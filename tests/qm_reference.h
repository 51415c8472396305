// The textbook Quine-McCluskey minimizer the control compiler used before
// its hashed, linear-per-cube rewrite, kept verbatim as a test oracle:
// ctrl::minimize must return exactly the same implicant vector, in the
// same order.
#pragma once

#include <algorithm>
#include <map>
#include <set>

#include "base/diag.h"
#include "ctrl/qm.h"

namespace bridge::ctrl::reference {

inline std::vector<Implicant> minimize(
    int nvars, const std::vector<std::uint32_t>& on_set,
    const std::vector<std::uint32_t>& dc_set) {
  BRIDGE_CHECK(nvars >= 0 && nvars <= 20, "QM limited to 20 variables");
  if (on_set.empty()) return {};

  // Level 0: all on-set and don't-care minterms as implicants.
  std::set<std::pair<std::uint32_t, std::uint32_t>> current;
  for (std::uint32_t m : on_set) current.insert({m, 0});
  for (std::uint32_t m : dc_set) current.insert({m, 0});

  std::vector<Implicant> primes;
  while (!current.empty()) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> next;
    std::map<std::pair<std::uint32_t, std::uint32_t>, bool> combined;
    for (const auto& ip : current) combined[ip] = false;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> list(current.begin(),
                                                              current.end());
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        if (list[i].second != list[j].second) continue;
        std::uint32_t diff = list[i].first ^ list[j].first;
        // Combine when they differ in exactly one non-masked bit.
        if (diff == 0 || (diff & (diff - 1)) != 0) continue;
        next.insert({list[i].first & ~diff, list[i].second | diff});
        combined[list[i]] = true;
        combined[list[j]] = true;
      }
    }
    for (const auto& [ip, was_combined] : combined) {
      if (!was_combined) primes.push_back(Implicant{ip.first, ip.second});
    }
    current = std::move(next);
  }

  // Cover the on-set: essential primes first, then greedy.
  std::vector<std::uint32_t> remaining = on_set;
  std::sort(remaining.begin(), remaining.end());
  remaining.erase(std::unique(remaining.begin(), remaining.end()),
                  remaining.end());
  std::vector<Implicant> chosen;
  auto remove_covered = [&remaining](const Implicant& imp) {
    remaining.erase(std::remove_if(remaining.begin(), remaining.end(),
                                   [&imp](std::uint32_t m) {
                                     return imp.covers(m);
                                   }),
                    remaining.end());
  };

  // Essential primes: minterms covered by exactly one prime.
  for (std::uint32_t m : std::vector<std::uint32_t>(remaining)) {
    const Implicant* only = nullptr;
    int count = 0;
    for (const Implicant& p : primes) {
      if (p.covers(m)) {
        ++count;
        only = &p;
      }
    }
    BRIDGE_CHECK(count > 0, "QM lost a minterm");
    if (count == 1 &&
        std::find(chosen.begin(), chosen.end(), *only) == chosen.end()) {
      chosen.push_back(*only);
    }
  }
  for (const Implicant& p : chosen) remove_covered(p);

  // Greedy: repeatedly take the prime covering the most remaining.
  while (!remaining.empty()) {
    const Implicant* best = nullptr;
    int best_cover = 0;
    for (const Implicant& p : primes) {
      if (std::find(chosen.begin(), chosen.end(), p) != chosen.end()) {
        continue;
      }
      int cover = 0;
      for (std::uint32_t m : remaining) {
        if (p.covers(m)) ++cover;
      }
      // Prefer wider coverage; break ties toward fewer literals.
      if (cover > best_cover ||
          (cover == best_cover && cover > 0 && best != nullptr &&
           p.literals(nvars) < best->literals(nvars))) {
        best = &p;
        best_cover = cover;
      }
    }
    BRIDGE_CHECK(best != nullptr, "QM cover failed");
    chosen.push_back(*best);
    remove_covered(*best);
  }
  return chosen;
}

}  // namespace bridge::ctrl::reference
