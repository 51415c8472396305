#include "ctrl/qm.h"

#include <algorithm>
#include <bit>

#include "base/diag.h"

namespace bridge::ctrl {

int Implicant::literals(int nvars) const {
  int n = 0;
  for (int b = 0; b < nvars; ++b) {
    if (((mask >> b) & 1) == 0) ++n;
  }
  return n;
}

std::string Implicant::to_string(int nvars,
                                 const std::string& var_prefix) const {
  std::string out;
  for (int b = nvars - 1; b >= 0; --b) {
    if ((mask >> b) & 1) continue;
    if (!out.empty()) out += " & ";
    if (((value >> b) & 1) == 0) out += "~";
    out += var_prefix + std::to_string(b);
  }
  return out.empty() ? "1" : out;
}

namespace {

// A cube c packed as (value << 32) | mask: integer order is (value, mask)
// order, its merge partner across a free bit b (a 0 literal) is
// c | (b << 32), and the merged cube is c | b.
using Cube = std::uint64_t;

Cube pack(std::uint32_t value, std::uint32_t mask) {
  return (Cube{value} << 32) | mask;
}
std::uint32_t value_of(Cube c) { return static_cast<std::uint32_t>(c >> 32); }
std::uint32_t mask_of(Cube c) { return static_cast<std::uint32_t>(c); }

/// One merge level's distinct cubes, with an open-addressing index from
/// cube to position (linear probing, power-of-two table at most half
/// full).
class Level {
 public:
  /// Empty the level and size its index for up to `n` cubes.
  void reset(std::size_t n) {
    cubes_.clear();
    cubes_.reserve(n);
    std::size_t size = 4;
    shift_ = 62;
    while (size < 2 * n) {
      size <<= 1;
      --shift_;
    }
    slots_.assign(size, kEmpty);
  }

  /// Add `c` unless it is already present.
  void insert(Cube c) {
    for (std::size_t h = home(c);; h = (h + 1) & (slots_.size() - 1)) {
      if (slots_[h] == kEmpty) {
        slots_[h] = static_cast<std::uint32_t>(cubes_.size());
        cubes_.push_back(c);
        return;
      }
      if (cubes_[slots_[h]] == c) return;
    }
  }

  /// Position of `c` in cubes(), or -1.
  std::int64_t find(Cube c) const {
    for (std::size_t h = home(c);; h = (h + 1) & (slots_.size() - 1)) {
      if (slots_[h] == kEmpty) return -1;
      if (cubes_[slots_[h]] == c) return slots_[h];
    }
  }

  const std::vector<Cube>& cubes() const { return cubes_; }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  std::size_t home(Cube c) const {
    return static_cast<std::size_t>((c * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Cube> cubes_;
  std::vector<std::uint32_t> slots_;
  int shift_ = 62;
};

/// All prime implicants, level by level (level k has k don't-care bits),
/// sorted by (value, mask) within a level. Each cube looks up its partner
/// across every free bit whose literal is 0, so a level costs
/// O(cubes * nvars) instead of the all-pairs O(cubes^2).
std::vector<Cube> prime_implicants(int nvars,
                                   const std::vector<std::uint32_t>& on_set,
                                   const std::vector<std::uint32_t>& dc_set) {
  const std::uint32_t all = (std::uint32_t{1} << nvars) - 1;
  Level level, next;
  level.reset(on_set.size() + dc_set.size());
  for (std::uint32_t m : on_set) level.insert(pack(m, 0));
  for (std::uint32_t m : dc_set) level.insert(pack(m, 0));

  std::vector<Cube> primes;
  std::vector<Cube> merged;
  std::vector<char> combined;
  while (!level.cubes().empty()) {
    const std::vector<Cube>& cubes = level.cubes();
    combined.assign(cubes.size(), 0);
    merged.clear();
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      const Cube c = cubes[i];
      for (std::uint32_t free = all & ~mask_of(c) & ~value_of(c); free != 0;
           free &= free - 1) {
        const std::uint32_t bit = free & (~free + 1);
        const std::int64_t j = level.find(c | (Cube{bit} << 32));
        if (j < 0) continue;
        combined[i] = 1;
        combined[static_cast<std::size_t>(j)] = 1;
        // A merged cube arises once for each of its don't-care bits; keep
        // only the merge across the lowest one.
        if (((bit - 1) & mask_of(c)) == 0) merged.push_back(c | bit);
      }
    }
    const std::size_t first = primes.size();
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      if (!combined[i]) primes.push_back(cubes[i]);
    }
    std::sort(primes.begin() + static_cast<std::ptrdiff_t>(first),
              primes.end());
    next.reset(merged.size());
    for (Cube c : merged) next.insert(c);
    std::swap(level, next);
  }
  return primes;
}

}  // namespace

std::vector<Implicant> minimize(int nvars,
                                const std::vector<std::uint32_t>& on_set,
                                const std::vector<std::uint32_t>& dc_set) {
  BRIDGE_CHECK(nvars >= 0 && nvars <= 20, "QM limited to 20 variables");
  for (const auto* set : {&on_set, &dc_set}) {
    for (std::uint32_t m : *set) {
      BRIDGE_CHECK((m >> nvars) == 0, "minterm " << m << " out of range for "
                                                 << nvars << " variables");
    }
  }
  if (on_set.empty()) return {};

  const std::vector<Cube> primes = prime_implicants(nvars, on_set, dc_set);
  std::vector<std::uint32_t> on = on_set;
  std::sort(on.begin(), on.end());
  on.erase(std::unique(on.begin(), on.end()), on.end());

  // Which on-set minterms (by index into `on`) each prime covers, and which
  // primes cover each minterm. Primes of the don't-care set alone cover
  // none and can never be chosen, so they are dropped here.
  std::vector<Implicant> useful;
  std::vector<std::uint32_t> row_start{0};
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> col_start(on.size() + 1, 0);
  for (Cube c : primes) {
    const Implicant p{value_of(c), mask_of(c)};
    const std::size_t before = rows.size();
    for (std::size_t i = 0; i < on.size(); ++i) {
      if (!p.covers(on[i])) continue;
      rows.push_back(static_cast<std::uint32_t>(i));
      ++col_start[i + 1];
    }
    if (rows.size() == before) continue;
    useful.push_back(p);
    row_start.push_back(static_cast<std::uint32_t>(rows.size()));
  }
  for (std::size_t i = 0; i < on.size(); ++i) {
    BRIDGE_CHECK(col_start[i + 1] > 0, "QM lost a minterm");
    col_start[i + 1] += col_start[i];
  }
  std::vector<std::uint32_t> cols(rows.size());
  std::vector<std::uint32_t> fill(col_start.begin(), col_start.end() - 1);
  for (std::size_t p = 0; p < useful.size(); ++p) {
    for (std::uint32_t k = row_start[p]; k < row_start[p + 1]; ++k) {
      cols[fill[rows[k]]++] = static_cast<std::uint32_t>(p);
    }
  }

  // cover[p] counts the still-uncovered minterms prime p covers; taking a
  // prime updates it for every prime sharing a newly covered minterm.
  std::vector<std::uint32_t> cover(useful.size());
  for (std::size_t p = 0; p < useful.size(); ++p) {
    cover[p] = row_start[p + 1] - row_start[p];
  }
  std::vector<char> covered(on.size(), 0);
  std::size_t left = on.size();
  std::vector<Implicant> chosen;
  auto take = [&](std::size_t p) {
    chosen.push_back(useful[p]);
    for (std::uint32_t k = row_start[p]; k < row_start[p + 1]; ++k) {
      const std::uint32_t i = rows[k];
      if (covered[i]) continue;
      covered[i] = 1;
      --left;
      for (std::uint32_t c = col_start[i]; c < col_start[i + 1]; ++c) {
        --cover[cols[c]];
      }
    }
  };

  // Essential primes: minterms covered by exactly one prime, taken in
  // on-set order (a minterm already covered has its prime taken).
  for (std::size_t i = 0; i < on.size(); ++i) {
    if (col_start[i + 1] - col_start[i] == 1 && !covered[i]) {
      take(cols[col_start[i]]);
    }
  }

  // Greedy: repeatedly take the prime covering the most remaining
  // minterms (a taken prime covers none); ties go to the first such prime
  // with strictly fewer literals.
  while (left > 0) {
    std::size_t best = useful.size();
    std::uint32_t best_cover = 0;
    int best_literals = 0;
    for (std::size_t p = 0; p < useful.size(); ++p) {
      if (cover[p] == 0 || cover[p] < best_cover) continue;
      const int literals = nvars - std::popcount(useful[p].mask);
      if (cover[p] > best_cover || literals < best_literals) {
        best = p;
        best_cover = cover[p];
        best_literals = literals;
      }
    }
    BRIDGE_CHECK(best < useful.size(), "QM cover failed");
    take(best);
  }
  return chosen;
}

bool eval_sop(const std::vector<Implicant>& sop, std::uint32_t input) {
  for (const Implicant& imp : sop) {
    if (imp.covers(input)) return true;
  }
  return false;
}

}  // namespace bridge::ctrl
