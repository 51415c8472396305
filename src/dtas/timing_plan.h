// Compiled timing plans: the per-combination evaluator of the design space.
//
// DTAS's search control (paper §5) only works because evaluating one
// candidate out of "several hundred thousand to several million alternative
// designs" is cheap. A functional evaluator re-derives everything per call:
// it rebuilds string-keyed port views, resolves port directions through
// genus::find_port, allocates per-net arrival vectors, and re-reads
// per-bit arrival times — for every odometer combination of the same
// template. DTAS evaluated that way before timing plans; that evaluator is
// now the test and bench oracle (tests/eval_reference.h).
//
// A TimingPlan compiles a template once, when its rule application is
// compiled (and then shared through the template cache).
// The key observation is that the bit-granular arrival buffer is only an
// intermediate encoding: every net bit has a fixed set of writers, so the
// bit-level propagation collapses into a step DAG whose edges are
// pre-resolved integer predecessor lists (false paths already filtered
// through genus::output_depends_on at compile time, multi-writer and
// write-after-read corner cases resolved by schedule position). Each
// combination is then one linear pass over the steps: no string compares,
// no find_port, no per-bit work, no allocation (callers reuse one scratch
// buffer of per-step completion times).
//
// The plan reproduces the functional evaluator bit-for-bit: area is summed
// in instance order (not grouped per child, which would reassociate
// floating-point addition), and each step applies the same max/add
// operations to the same operand values the functional evaluator reads out
// of its arrival buffer.
#pragma once

#include <string>
#include <vector>

#include "base/symbol.h"
#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::dtas {

/// One scheduled evaluation step: an instance and one of its output ports.
/// Scheduling is per output port (not per instance) so that false paths —
/// e.g. a look-ahead generator's GP/GG outputs, which do not depend on its
/// carry input — do not create spurious combinational cycles.
struct EvalStep {
  int instance = -1;
  base::Symbol port;
};
using EvalSchedule = std::vector<EvalStep>;

/// Reusable mutable state of one plan evaluation. A TimingPlan is
/// immutable after compile() and freely shared across threads; everything
/// a combination evaluation writes lives here instead. The sharded
/// odometer owns one EvalScratch per worker thread (never per plan and
/// never shared), which is what makes concurrent shard evaluation
/// race-free by construction.
struct EvalScratch {
  std::vector<double> times;        // per-plan-node completion times
  std::vector<double> child_area;   // per-distinct-child metrics of the
  std::vector<double> child_delay;  //   combination being evaluated
};

class TimingPlan {
 public:
  TimingPlan() = default;

  /// Compile `tmpl` against its topological schedule. `child_specs` lists
  /// the distinct child specifications of the implementation (in the order
  /// the caller indexes child metrics); every instance spec must equal one
  /// of them. Throws Error otherwise.
  static TimingPlan compile(
      const netlist::Module& tmpl, const EvalSchedule& topo,
      const std::vector<const genus::ComponentSpec*>& child_specs);

  bool compiled() const { return compiled_; }
  int num_children() const { return static_cast<int>(child_on_path_.size()); }
  int num_instances() const { return static_cast<int>(inst_child_.size()); }
  /// Combinational steps: one per entry of the schedule compiled from.
  int num_steps() const { return static_cast<int>(steps_.size()); }

  /// Distinct-child index of each template instance, in instance order.
  /// Extraction uses this instead of re-scanning children by spec.
  const std::vector<int>& instance_child() const { return inst_child_; }

  /// Template area for one child-choice combination: the sum of
  /// child_area[child] over instances, in instance order (bit-identical to
  /// the functional evaluator's accumulation).
  double area(const double* child_area) const {
    double total = 0.0;
    for (int c : inst_child_) total += child_area[c];
    return total;
  }

  /// Longest structural path for one combination. `child_delay` holds one
  /// delay per distinct child; `scratch` is the calling thread's scratch
  /// state, whose `times` buffer is resized here so repeated calls never
  /// allocate once it has grown to the plan's node count.
  double delay(const double* child_delay, EvalScratch& scratch) const;

  /// Rough resident size in bytes (vector capacities). Feeds the template
  /// cache's byte accounting; proportionality matters, exactness doesn't.
  std::size_t approx_footprint_bytes() const {
    return sizeof(TimingPlan) + inst_child_.capacity() * sizeof(int) +
           child_on_path_.capacity() + seq_child_.capacity() * sizeof(int) +
           steps_.capacity() * sizeof(Step) + preds_.capacity() * sizeof(int);
  }

  /// Cheap lower bound on delay(): the worst delay among children with at
  /// least one instance on a timing path (every such instance pins the
  /// worst path to at least its own delay). Used to skip a combination
  /// before even the one-pass delay propagation runs.
  double delay_lower_bound(const double* child_delay) const {
    double lb = 0.0;
    for (size_t c = 0; c < child_on_path_.size(); ++c) {
      if (child_on_path_[c] && child_delay[c] > lb) lb = child_delay[c];
    }
    return lb;
  }

 private:
  // Node numbering for the collapsed DAG: sequential launches first (their
  // completion time is their clock-to-q delay), then the combinational
  // steps in schedule order. preds_ holds flattened spans of node indices.
  struct Step {
    int child = -1;            // distinct-child index (delay lookup)
    int pred_begin = 0, pred_end = 0;  // span into preds_
  };

  bool compiled_ = false;
  std::vector<int> inst_child_;  // instance -> distinct-child index
  std::vector<unsigned char> child_on_path_;
  std::vector<int> seq_child_;   // nodes [0, seq_child_.size()): launches
  std::vector<Step> steps_;      // nodes [seq_child_.size(), ...), topo order
  std::vector<int> preds_;       // flattened predecessor node indices
};

}  // namespace bridge::dtas
