// Quine-McCluskey two-level logic minimization.
//
// The control compiler of Figure 1 "extracts the sequencing logic and
// applies logic-level optimizations"; this is the classical exact
// prime-implicant generation with an essential-then-greedy cover, for
// functions of up to 20 inputs.
//
// Prime generation merges level by level (level k holds the cubes with k
// don't-care bits). Each level's distinct cubes sit in an open-addressing
// hash index, and a cube looks up its one partner across each free bit
// instead of being compared with every other cube, so a level costs
// O(cubes * inputs) rather than O(cubes^2). The cover step lists, once, the
// on-set minterms each prime covers and keeps a running count of the
// uncovered ones per prime.
//
// The result is deterministic and ordered: essential primes first, each
// taken when the smallest on-set minterm it alone covers comes up (primes
// are ranked level by level, by (value, mask) within a level); then the
// greedy picks, each the prime covering the most still-uncovered minterms,
// ties going to the first-ranked prime with the fewest literals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bridge::ctrl {

/// A product term over n variables: for each bit position, if mask has a 1
/// the variable is a don't-care in this term; otherwise the literal value
/// comes from `value`.
struct Implicant {
  std::uint32_t value = 0;
  std::uint32_t mask = 0;

  bool covers(std::uint32_t minterm) const {
    return ((minterm ^ value) & ~mask) == 0;
  }
  /// Number of literals in the product term.
  int literals(int nvars) const;
  /// Render as e.g. "x3 & ~x1 & x0".
  std::string to_string(int nvars, const std::string& var_prefix = "x") const;

  bool operator==(const Implicant&) const = default;
};

/// Minimize a single-output function given its on-set and don't-care set
/// (both as minterm indices over `nvars` <= 20 variables, in any order,
/// repeats allowed; every minterm must be below 2^nvars). Returns a
/// minimal-ish sum of products covering every on-set minterm, in the order
/// described above. An empty result means the function is constant 0; a
/// single all-don't-care implicant means constant 1.
std::vector<Implicant> minimize(int nvars,
                                const std::vector<std::uint32_t>& on_set,
                                const std::vector<std::uint32_t>& dc_set);

/// Evaluate a sum of products.
bool eval_sop(const std::vector<Implicant>& sop, std::uint32_t input);

}  // namespace bridge::ctrl
