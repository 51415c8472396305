// The DTAS design space: an acyclic AND-OR graph.
//
// "This design space is represented as an acyclic graph. Nodes consist of
// component specifications and alternative component implementations. Each
// component implementation corresponds to a library cell or to a netlist
// of modules." (paper §5)
//
// SpecNode is a specification node; its ImplNodes are the alternatives —
// either a library cell (functional match) or a one-level decomposition
// template produced by a rule. Specification nodes are memoized, so the
// graph is shared across the whole design (a 4-bit adder appearing in many
// contexts is expanded once).
//
// Search control (paper §5):
//  1. Uniform-implementation constraint: "we ignore netlist implementations
//     containing two or more modules with the same component specification
//     that are not instances of the same component implementation" —
//     enforced by choosing one alternative per *distinct* child
//     specification when combining.
//  2. Performance filters: "we apply performance filters to eliminate all
//     but the best alternative implementations of each component
//     specification" — a Pareto filter over (area, delay) at every node.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/annotations.h"
#include "base/cancel.h"
#include "base/thread_pool.h"
#include "cells/cell.h"
#include "dtas/rule.h"
#include "dtas/timing_plan.h"
#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::dtas {

/// Area (equivalent NAND gates) and delay (ns) of a candidate design.
struct Metric {
  double area = 0.0;
  double delay = 0.0;
};

/// True if `a` is at least as good as `b` on both axes and better on one.
bool dominates(const Metric& a, const Metric& b);

struct SpecNode;

/// One alternative implementation of a specification.
///
/// Decomposition products (template, plan) are immutable after creation
/// and shared: every design space expanding the same (rule, spec) points at
/// one copy served by the global TemplateCache, so a cache hit costs two
/// refcount bumps instead of re-running TemplateBuilder string assembly,
/// scheduling, and plan compilation.
struct ImplNode {
  /// Leaf: the matched library cell (functional match). Null for decomps.
  const cells::Cell* cell = nullptr;
  /// Decomposition: the rule that produced it and its template netlist.
  std::string rule_name;
  std::shared_ptr<const netlist::Module> tmpl;
  /// Distinct child specification nodes, in deterministic order (parallel
  /// to the plan's distinct-child indices).
  std::vector<SpecNode*> children;
  /// Compiled evaluation program for the template (see timing_plan.h).
  /// Drives both the per-combination evaluator and extraction's
  /// instance→child resolution. Null for leaves.
  std::shared_ptr<const TimingPlan> plan;
  bool dead = false;

  bool is_leaf() const { return cell != nullptr; }
};

/// The immutable product of one template of one Rule::expand application,
/// compiled once and shared across design spaces: the template module, its
/// distinct child specifications (first-occurrence instance order — the
/// order child metrics are indexed in), and the timing plan (absent when
/// the template was rejected for a combinational cycle, which is a property
/// of the template itself). The topological schedule the plan is compiled
/// from is not kept: nothing evaluates against it afterwards.
struct CompiledTemplate {
  std::shared_ptr<const netlist::Module> tmpl;
  std::vector<genus::ComponentSpec> child_specs;
  std::shared_ptr<const TimingPlan> plan;
  bool rejected = false;  // combinational cycle in the template
};

/// Process-wide cache of compiled rule templates, keyed by
/// (rule name, spec, library-slice fingerprint). For the built-in and
/// LOLA-induced rules the fingerprint is 0 and the key degenerates to the
/// historical (rule name, spec): Rule::expand is contractually a pure
/// function of that pair (rule names encode their parameters, and the rule
/// context only ever gates applicability), so warm templates are shared
/// across design spaces, libraries, and server sessions. The fingerprint
/// exists for rules that cannot make that promise (see
/// Rule::slice_fingerprint): it keys the entry by whatever library slice
/// the rule's expansions actually depend on, making cross-library
/// soundness an enforced property of the key rather than a naming
/// convention. DesignSpace consults the cache per (applicable rule, spec)
/// — a miss compiles and publishes, a hit skips TemplateBuilder, topo
/// scheduling, and TimingPlan compilation entirely.
///
/// Lifecycle: entries are shared_ptr-owned and byte-accounted. With no
/// budget set (the default) the cache is effectively append-only, as
/// before. Under a budget (set_budget_bytes / SpaceOptions::
/// template_cache_budget_bytes / BRIDGE_CACHE_BUDGET) the key space is
/// sharded and each shard evicts least-recently-used entries down to its
/// slice of the budget — but never an entry pinned by a live synthesis:
/// an entry whose vector (or any inner template/plan) is referenced
/// outside the cache is skipped, so eviction can only reclaim memory, not
/// invalidate anything a DesignSpace still points at. Callers hold the
/// returned shared_ptr while iterating.
class TemplateCache {
 public:
  using EntryPtr = std::shared_ptr<const std::vector<CompiledTemplate>>;

  /// Process-wide lookup totals. The cache is shared by every DesignSpace
  /// in the process, so these absolutes can't attribute work to one run —
  /// diff two snapshot() results to carve out a window, or read the
  /// per-space deltas in SpaceStats::template_cache_{hits,misses} (each
  /// space counts only its own lookups, so interleaved spaces stay
  /// separable and their deltas sum to the global delta).
  struct Stats {
    long hits = 0;
    long misses = 0;    // find() calls that missed (insert usually follows)
    long entries = 0;   // compiled (rule, spec) entries resident
    long evictions = 0; // entries evicted over the process lifetime
    long bytes = 0;     // resident footprint estimate
  };

  static TemplateCache& global();

  /// nullptr when absent. `rule_fp` is the rule's slice fingerprint (see
  /// Rule::slice_fingerprint). Counts the lookup in the global Stats and
  /// the obs registry ("dtas.expand.template_cache.{hits,misses}") and
  /// freshens the entry's LRU stamp on a hit.
  EntryPtr find(const std::string& rule_name, std::uint64_t rule_fp,
                const genus::ComponentSpec& spec);

  /// Publish (first writer wins on a race); returns the stored entry and
  /// runs the eviction sweep when a budget is set.
  EntryPtr insert(const std::string& rule_name, std::uint64_t rule_fp,
                  const genus::ComponentSpec& spec,
                  std::vector<CompiledTemplate> templates);

  /// Byte budget; 0 = unbounded (the default, modulo BRIDGE_CACHE_BUDGET
  /// read at construction). Setting a budget sweeps immediately. Pinned
  /// entries are never evicted, so a budget is a target the cache meets
  /// whenever enough entries are unpinned, not a hard cap.
  void set_budget_bytes(std::size_t budget);
  std::size_t budget_bytes() const;

  /// Entries currently cached (diagnostics / tests).
  std::size_t size() const;

  /// Relaxed-read copy of the process-wide totals.
  Stats snapshot() const;

 private:
  struct Key {
    std::string rule;
    std::uint64_t fp = 0;  // Rule::slice_fingerprint of the producing rule
    genus::ComponentSpec spec;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = std::hash<std::string>()(k.rule);
      h ^= std::hash<std::uint64_t>()(k.fp) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      h ^= std::hash<genus::ComponentSpec>()(k.spec) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      return h;
    }
  };
  struct Entry {
    EntryPtr templates;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;  // global tick at last find/insert
  };
  /// One lock + map + byte total per key-hash shard, so concurrent
  /// Synthesizers contend only within a shard and eviction sweeps lock
  /// one shard at a time.
  struct Shard {
    mutable base::Mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map BRIDGE_GUARDED_BY(mu);
    std::size_t bytes BRIDGE_GUARDED_BY(mu) = 0;
  };
  static constexpr int kShards = 8;

  TemplateCache();

  Shard& shard_for(const Key& key) {
    return shards_[KeyHash{}(key) % kShards];
  }
  /// Evict LRU unpinned entries of `s` until its bytes fit `target`.
  void evict_locked(Shard& s, std::size_t target) BRIDGE_REQUIRES(s.mu);

  Shard shards_[kShards];
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::size_t> budget_{0};
  // Lock-free lookup totals (find() is called on the expansion hot path).
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> evictions_{0};
  std::atomic<long> bytes_{0};
};

/// Parse a byte-budget text: decimal digits with an optional k / m / g
/// (KiB / MiB / GiB) suffix, case-insensitive ("64m", "100000"). Returns
/// -1 when the text is empty or malformed (a sign, whitespace, any other
/// suffix) or when the byte count does not fit in a long.
long parse_cache_budget(const std::string& text);

/// BRIDGE_CACHE_BUDGET from the environment, parsed; -1 when unset or
/// unparsable. Read once by TemplateCache at construction and per
/// Synthesizer for the extraction cache default.
long cache_budget_from_env();

/// A surviving alternative after evaluation: which implementation, which
/// alternative of each distinct child, and the resulting metrics.
struct Alternative {
  int impl_index = -1;
  std::vector<int> child_alt;  // parallel to impls[impl_index]->children
  Metric metric;
};

struct SpecNode {
  genus::ComponentSpec spec;
  std::vector<std::unique_ptr<ImplNode>> impls;
  std::vector<Alternative> alts;  // filtered, sorted by ascending area
  bool expanded = false;
  bool in_progress = false;
  bool evaluated = false;
  /// Content fingerprint of the expanded subtree rooted here: the spec
  /// plus, per implementation in order, the matched cell's fingerprint
  /// (leaves) or the producing rule's (name, slice fingerprint) and the
  /// children's slice_fp (decompositions). Two nodes fingerprint equally
  /// exactly when their entire reachable design subspace is
  /// content-identical — same cells, same timing numbers, same impl and
  /// child ordering — which makes this the cross-retarget identity the
  /// ExtractionCache keys on: alternative indices, metrics, extracted
  /// modules, and descriptions are all functions of it. Set by expansion
  /// (0 until expanded).
  std::uint64_t slice_fp = 0;
  double count_constrained = -1.0;
  double count_unconstrained = -1.0;
};

/// Performance-filter policy (ablation knob; the paper uses the
/// favorable-tradeoff filter, i.e. Pareto).
enum class FilterKind { kPareto, kNone, kAreaOnly, kDelayOnly };

/// SpaceOptions::verify_designs' default, fixed by the library's own
/// build: true when design_space.cpp is compiled without NDEBUG. Defined
/// out of line so that every includer sees the same default.
bool default_verify_designs();

struct SpaceOptions {
  FilterKind filter = FilterKind::kPareto;
  /// Cap on surviving alternatives per node (after filtering).
  int max_alternatives_per_node = 24;
  /// Cap on child-choice combinations explored per implementation.
  long max_combinations_per_impl = 100000;
  /// "Favorable tradeoff" threshold of the Pareto filter: a larger design
  /// survives only if it improves delay by at least this fraction. This is
  /// what keeps the paper's alternative sets small (5 designs for the
  /// 64-bit ALU) instead of full of near-duplicates.
  double min_delay_gain = 0.10;
  /// Threads applied to evaluation. 0 means hardware_concurrency; 1 runs
  /// the fully serial recursion (no pool is ever created). Above 1, two
  /// parallel axes share one pool:
  ///  - node-parallel fan-out: evaluate() levelizes the un-evaluated
  ///    sub-DAG and schedules each antichain (nodes whose children are all
  ///    already evaluated) as one fork-join batch, so a single deep spec
  ///    saturates all cores instead of only sweeps. Each node keeps its
  ///    private candidate sequence, scratch, and front, and levels are
  ///    merged in node order;
  ///  - odometer sharding: large odometers split into contiguous index
  ///    ranges with private fronts, merged back in shard order.
  /// Either way the candidate sequence the filter sees is exactly the
  /// serial sequence (minus pruned candidates, which are front-preserving
  /// by the bound-and-prune margin argument), so fronts are bit-identical
  /// at every thread count.
  ///
  /// Evaluation always runs the compiled TimingPlan odometer with
  /// branch-and-bound: a whole block of combinations (all choices of the
  /// innermost children, the outer ones fixed) is skipped when a lower
  /// bound on its area and delay is already dominated (with margin) by an
  /// evaluated candidate; a single combination is skipped on its exact
  /// area plus its delay lower bound, and discarded without storing when
  /// its exact metrics are dominated. Pruning never changes the filtered
  /// front, nor at threads = 1 the evaluated/pruned counts, and is off
  /// under FilterKind::kNone (which keeps dominated candidates). The
  /// functional evaluator the plans replaced is the test oracle in
  /// tests/eval_reference.h.
  int threads = 0;
  /// Shard granularity: an odometer is sharded only when it holds at
  /// least two shards of this many combinations; below that the serial
  /// path runs (thread fork-join would cost more than it saves).
  long min_combinations_per_shard = 2048;
  /// Shards per thread above the minimum shard size — more shards than
  /// threads lets dynamic task claiming level uneven prune rates.
  int shards_per_thread = 4;
  /// Non-empty: start the process span tracer (obs::Tracer) into this
  /// file when the space is constructed, as if BRIDGE_TRACE had been set
  /// — the programmatic hook for tracing one synthesis. The first path
  /// the process starts with wins (the tracer is process-wide); the
  /// trace is written at process exit or by obs::Tracer::global().stop().
  /// Tracing never changes results: fronts, descriptions, and VHDL are
  /// byte-identical with tracing on or off at every thread count
  /// (tests/obs_test.cpp pins this).
  std::string trace_path;
  /// Wall-clock budget per synthesize call, in milliseconds; 0 means
  /// unbounded. The deadline is polled cooperatively at coarse
  /// checkpoints (per rule application, every 1024 units of odometer work
  /// — one unit per combination or block tested — per extracted
  /// alternative; never per combination), so
  /// overrun past the deadline is bounded by one checkpoint interval. A
  /// run whose deadline never fires is bit-identical to an unbounded run:
  /// the checks only read a clock.
  long deadline_ms = 0;
  /// What expiry does: false (default) — synthesize throws
  /// bridge::Cancelled and unwinds with strong exception safety (the
  /// Synthesizer stays usable; re-arm and retry); true — the call stops
  /// expanding/enumerating/extracting, returns the best-so-far front, and
  /// sets SpaceStats::deadline_hit. Best-effort truncation persists in
  /// the space for the session, like any other evaluated state.
  bool deadline_best_effort = false;
  /// External kill switch polled alongside the deadline (see
  /// base/cancel.h); may be shared across requests. Null = none.
  std::shared_ptr<base::CancelToken> cancel;
  /// Byte budget applied to the process-wide TemplateCache at space
  /// construction: -1 (default) leaves the process setting alone, 0 sets
  /// it unbounded, > 0 sets the budget. Process-wide — the last space to
  /// set it wins.
  long template_cache_budget_bytes = -1;
  /// Byte budget of the owning Synthesizer's ExtractionCache: -1 takes
  /// the BRIDGE_CACHE_BUDGET env default (unbounded when unset), 0 is
  /// unbounded, > 0 is the budget.
  long extraction_cache_budget_bytes = -1;
  /// Run the structural linter (src/lint) over every extracted
  /// alternative design before synthesize returns, and throw
  /// bridge::Error on any error-severity diagnostic — the assert-clean
  /// backstop for cache/parallel bugs that produce malformed netlists.
  /// The default is default_verify_designs(): on when the library itself
  /// is built without NDEBUG (Debug and sanitizer builds), off in Release
  /// — whatever the includer's own flags. Fronts, descriptions, and VHDL
  /// are byte-identical with the toggle on or off (linting only reads the
  /// designs).
  bool verify_designs = default_verify_designs();
};

struct SpaceStats {
  int spec_nodes = 0;
  int impl_nodes = 0;
  int leaf_impls = 0;
  int rule_applications = 0;
  int dead_specs = 0;        // specs with no viable implementation
  int rejected_templates = 0;  // cyclic or malformed rule output
  long combinations_evaluated = 0;  // odometer combinations kept as candidates
  long combinations_pruned = 0;     // skipped or discarded by bound-and-prune
  long combinations_skipped = 0;    // the part of pruned ruled out as blocks
  long block_tests = 0;             // bounds of multi-combination blocks tested
  long parallel_odometers = 0;      // odometer runs that went multi-threaded
  long odometer_shards = 0;         // shards executed across those runs
  long node_parallel_levels = 0;    // DAG antichains evaluated as pool batches
  long node_parallel_nodes = 0;     // spec nodes evaluated inside those batches
  // This space's TemplateCache lookups only — a this-run delta even when
  // several DesignSpaces interleave on the shared process-wide cache.
  // TemplateCache::snapshot() holds the global totals; per-space deltas
  // sum to the global snapshot diff (tests/obs_test.cpp pins this).
  long template_cache_hits = 0;     // rule applications served from the cache
  long template_cache_misses = 0;   // rule applications compiled (+published)
  // The most recent arm_deadline() window hit its deadline in best-effort
  // mode (the front returned is best-so-far, not exhaustive). Reset by
  // arm_deadline(); never set in throw mode, which raises Cancelled
  // instead.
  bool deadline_hit = false;
};

/// Incremental (area, delay) Pareto staircase over evaluated candidates,
/// used by bound-and-prune. A combination dominated with margin by an
/// evaluated point — on its delay lower bound before propagation, or on
/// its exact metrics before storage — can never survive any of the
/// dominance-respecting filters, so it is skipped or discarded. The margin
/// (2 × the filter epsilon) keeps the claim true under the filters'
/// epsilon-tolerant comparisons.
class ParetoFront {
 public:
  /// Record an evaluated candidate. Returns true when the front changed
  /// (the point was non-dominated and actually inserted).
  bool add(double area, double delay);
  /// True when some recorded point has area + margin <= `area` and
  /// delay + margin <= `delay_lower_bound`.
  bool dominates_bound(double area, double delay_lower_bound) const;
  /// Fold every point of `other` into this front; true when it changed.
  bool merge(const ParetoFront& other);

 private:
  /// Non-dominated points, area ascending (hence delay descending).
  std::vector<std::pair<double, double>> points_;
};

class DesignSpace {
 public:
  DesignSpace(const RuleBase& rules, const cells::CellLibrary& library,
              SpaceOptions options = {});

  /// Recursively expand a specification (memoized). Never null; the node
  /// may end up with no implementations (dead) if the library can't
  /// realize it.
  SpecNode* expand(const genus::ComponentSpec& spec);

  /// Evaluate a node bottom-up: build its filtered alternative list.
  void evaluate(SpecNode* node);

  /// Design-space size under the uniform-implementation constraint
  /// (search principle 1) but with no performance filter.
  double count_constrained(SpecNode* node);

  /// Raw design-space size with neither search-control principle: every
  /// module instance chooses independently. "Even for components of modest
  /// size ... several hundred thousand to several million alternative
  /// designs." (paper §5)
  double count_unconstrained(SpecNode* node);

  const cells::CellLibrary& library() const { return library_; }
  const RuleBase& rules() const { return rules_; }
  const SpaceStats& stats() const { return stats_; }
  const SpaceOptions& options() const { return options_; }

  /// (Re-)arm the cooperative deadline from the options: the clock starts
  /// now, SpaceStats::deadline_hit resets. The Synthesizer calls this at
  /// the top of every synthesize / synthesize_netlist; direct DesignSpace
  /// users get one arming at construction.
  void arm_deadline();

  /// Replace the deadline policy options (deadline_ms / best-effort /
  /// cancel token) for subsequent arm_deadline() calls — the hook for
  /// reusing one Synthesizer across requests with different budgets.
  void set_deadline_policy(long deadline_ms, bool best_effort,
                           std::shared_ptr<base::CancelToken> cancel);

  /// Poll the armed deadline. False while it hasn't fired (the common
  /// case: one clock read, no mutation). Once it fires: best-effort mode
  /// sets SpaceStats::deadline_hit and returns true — the caller stops
  /// its loop and keeps what it has; otherwise throws bridge::Cancelled.
  /// Called from the caller thread only; parallel shards poll the
  /// Deadline directly (see run_plan_odometer).
  bool deadline_exceeded();

  /// Topological evaluation schedule over (instance, output port) units
  /// with bit-granular dependencies. Throws Error on a real combinational
  /// cycle.
  static EvalSchedule topo_order(const netlist::Module& tmpl);

  /// Apply this space's filter policy to a set of alternatives (also used
  /// by netlist-level synthesis). Sorted by ascending area.
  std::vector<Alternative> filter_alternatives(
      std::vector<Alternative> candidates) const;

  /// Run the compiled-plan odometer over one child-alternative choice per
  /// entry of `children` (bounded by `limit`, whose product callers must
  /// already have capped via trim_limits), branch-and-bounding against
  /// `front`, and append the surviving candidates with the given impl
  /// index. Shared by per-implementation evaluation and whole-netlist
  /// synthesis — the same hot loop, one level apart. Whole blocks of
  /// combinations are ruled out at once when a lower bound on them is
  /// dominated; the soundness argument is at run_odometer_range in
  /// design_space.cpp. Large odometers are sharded across
  /// SpaceOptions::threads worker threads; the result is bit-identical to
  /// the serial run (see SpaceOptions::threads).
  void run_plan_odometer(const TimingPlan& plan,
                         const std::vector<SpecNode*>& children,
                         const std::vector<int>& limit, int impl_index,
                         ParetoFront& front,
                         std::vector<Alternative>& candidates);

  /// Shrink per-child alternative limits until their product fits `cap`
  /// (largest limit first).
  static void trim_limits(std::vector<int>& limit, long cap);

 private:
  void expand_node(SpecNode* node);

  /// The body of evaluate() (candidate enumeration + filtering), split
  /// out so evaluate() can wrap it in the reset-on-exception guard.
  /// The explicit-scratch/stats overload is the thread-safe worker body of
  /// node-parallel evaluation: every mutation lands in the caller-provided
  /// scratch and stats (merged into stats_ after the level's barrier), and
  /// `children_preevaluated` asserts the levelization guarantee instead of
  /// recursing (the recursion path touches members and must stay
  /// caller-thread-only).
  void evaluate_impls(SpecNode* node) {
    evaluate_impls(node, scratch_, stats_, /*children_preevaluated=*/false);
  }
  void evaluate_impls(SpecNode* node, EvalScratch& scratch, SpaceStats& stats,
                      bool children_preevaluated);

  /// Levelized node-parallel form of evaluate(): topologically layer the
  /// un-evaluated sub-DAG under `root`, then evaluate each layer's nodes
  /// as one fork-join pool batch (single-node layers — typically the root
  /// — run on the caller so their odometers still shard across the pool).
  void evaluate_parallel(SpecNode* root);

  /// Thread-safe deadline poll for worker-thread evaluation: identical to
  /// deadline_exceeded() but records a best-effort hit in `stats` instead
  /// of stats_.
  bool deadline_poll(SpaceStats& stats);

  /// Explicit-scratch/stats overload of the public odometer, so
  /// node-parallel workers enumerate without touching the shared members.
  void run_plan_odometer(const TimingPlan& plan,
                         const std::vector<SpecNode*>& children,
                         const std::vector<int>& limit, int impl_index,
                         ParetoFront& front, std::vector<Alternative>& candidates,
                         EvalScratch& scratch, SpaceStats& stats);

  /// Whether bound-and-prune applies under the current options (it must
  /// stay off when the filter keeps dominated candidates).
  bool prune_enabled() const { return options_.filter != FilterKind::kNone; }

  /// The lazily leased odometer pool (threads_ - 1 workers; the calling
  /// thread is the remaining one), handed back to the process-wide idle
  /// list when the space is destroyed. Never leased when threads_ == 1.
  base::ThreadPool* pool();

  const RuleBase& rules_;
  const cells::CellLibrary& library_;
  SpaceOptions options_;
  SpaceStats stats_;
  base::Deadline deadline_;  // armed from options_ (see arm_deadline)
  int threads_ = 1;  // resolved from options_.threads at construction
  // Recursion depths of expand()/evaluate(): only the depth-0 entry of
  // each opens a phase span, so one trace shows one expand and one
  // evaluate block per top-level request, not thousands of nested ones.
  int expand_depth_ = 0;
  int eval_depth_ = 0;
  base::ThreadPool::Lease pool_;
  std::unordered_map<genus::ComponentSpec, std::unique_ptr<SpecNode>> memo_;
  // Serial-path evaluation scratch, reused across odometer runs. Parallel
  // shards own one EvalScratch per shard instead (see run_plan_odometer).
  EvalScratch scratch_;
};

}  // namespace bridge::dtas
