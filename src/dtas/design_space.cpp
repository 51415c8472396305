#include "dtas/design_space.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <thread>

#include "base/diag.h"
#include "base/fault.h"
#include "base/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bridge::dtas {

using genus::ComponentSpec;
using netlist::Instance;
using netlist::Module;
using netlist::NetIndex;
using netlist::PortConn;
using netlist::RefKind;

namespace {
constexpr double kEps = 1e-9;
}

bool dominates(const Metric& a, const Metric& b) {
  return a.area <= b.area + kEps && a.delay <= b.delay + kEps &&
         (a.area < b.area - kEps || a.delay < b.delay - kEps);
}

namespace {
/// Pruning margin. With points separated by at least 2·kEps on both axes,
/// a pruned candidate provably fails every epsilon-tolerant filter sweep:
/// it sorts strictly after the dominating point and its delay can never
/// undercut the favorable-tradeoff threshold that point implies.
constexpr double kPruneMargin = 2.0 * kEps;
}  // namespace

bool ParetoFront::add(double area, double delay) {
  // Find the insertion position by area.
  auto pos = std::lower_bound(
      points_.begin(), points_.end(), area,
      [](const std::pair<double, double>& p, double a) { return p.first < a; });
  // Dominated by (or equal to) a point at or before `pos`: nothing to add.
  if (pos != points_.begin() && std::prev(pos)->second <= delay) return false;
  if (pos != points_.end() && pos->first == area && pos->second <= delay) {
    return false;
  }
  // Remove points the new one dominates (same or larger area, same or
  // larger delay) — they start at `pos` and are contiguous.
  auto last = pos;
  while (last != points_.end() && last->second >= delay) ++last;
  pos = points_.erase(pos, last);
  points_.insert(pos, {area, delay});
  return true;
}

bool ParetoFront::merge(const ParetoFront& other) {
  bool changed = false;
  for (const auto& [area, delay] : other.points_) {
    changed = add(area, delay) || changed;
  }
  return changed;
}

bool ParetoFront::dominates_bound(double area, double delay_lower_bound) const {
  // Best (lowest) delay among points with point.area + margin <= `area`:
  // the staircase is delay-descending, so it is the last qualifying point.
  auto pos = std::upper_bound(
      points_.begin(), points_.end(), area - kPruneMargin,
      [](double a, const std::pair<double, double>& p) { return a < p.first; });
  if (pos == points_.begin()) return false;
  return std::prev(pos)->second + kPruneMargin <= delay_lower_bound;
}

long parse_cache_budget(const std::string& text) {
  // Digits first: std::stoull alone would also skip leading whitespace and
  // accept a sign (negating "-5" into a huge unsigned value).
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return -1;
  }
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    return -1;
  }
  long multiplier = 1;
  if (pos < text.size()) {
    if (pos + 1 != text.size()) return -1;
    switch (std::tolower(static_cast<unsigned char>(text[pos]))) {
      case 'k': multiplier = 1L << 10; break;
      case 'm': multiplier = 1L << 20; break;
      case 'g': multiplier = 1L << 30; break;
      default: return -1;
    }
  }
  if (value > static_cast<unsigned long long>(
                  std::numeric_limits<long>::max() / multiplier)) {
    return -1;  // the byte count would overflow a long
  }
  return static_cast<long>(value) * multiplier;
}

long cache_budget_from_env() {
  const char* text = std::getenv("BRIDGE_CACHE_BUDGET");
  return text == nullptr ? -1 : parse_cache_budget(text);
}

namespace {

/// Byte footprint of one cached (rule, spec) entry: the compiled modules
/// and plans the cache keeps alive.
std::size_t entry_footprint(const std::vector<CompiledTemplate>& templates) {
  std::size_t bytes = sizeof(std::vector<CompiledTemplate>) +
                      templates.capacity() * sizeof(CompiledTemplate);
  for (const CompiledTemplate& ct : templates) {
    if (ct.tmpl != nullptr) bytes += ct.tmpl->approx_footprint_bytes();
    bytes += ct.child_specs.capacity() * sizeof(genus::ComponentSpec);
    if (ct.plan != nullptr) bytes += ct.plan->approx_footprint_bytes();
  }
  return bytes;
}

/// Registry mirrors of the template-cache totals, resolved once. Keeping
/// the single count site in TemplateCache (not in every caller) is what
/// makes the dotted names trustworthy.
struct TemplateCacheMetrics {
  obs::Counter& hits =
      obs::Registry::global().counter("dtas.expand.template_cache.hits");
  obs::Counter& misses =
      obs::Registry::global().counter("dtas.expand.template_cache.misses");
  obs::Counter& evictions =
      obs::Registry::global().counter("dtas.expand.template_cache.evictions");
  obs::Gauge& bytes =
      obs::Registry::global().gauge("dtas.expand.template_cache.bytes");

  static TemplateCacheMetrics& get() {
    static TemplateCacheMetrics m;
    return m;
  }
};

}  // namespace

TemplateCache& TemplateCache::global() {
  // Leaked deliberately: compiled templates are shared by shared_ptr into
  // design spaces whose lifetime the cache cannot see, and the pool must
  // survive static destruction.
  static TemplateCache* cache = new TemplateCache;
  return *cache;
}

TemplateCache::TemplateCache() {
  const long env = cache_budget_from_env();
  if (env >= 0) budget_.store(static_cast<std::size_t>(env),
                              std::memory_order_relaxed);
}

TemplateCache::EntryPtr TemplateCache::find(const std::string& rule_name,
                                            std::uint64_t rule_fp,
                                            const genus::ComponentSpec& spec) {
  TemplateCacheMetrics& metrics = TemplateCacheMetrics::get();
  Key key{rule_name, rule_fp, spec};
  Shard& shard = shard_for(key);
  EntryPtr found;
  {
    base::LockGuard lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.last_use = tick_.fetch_add(1, std::memory_order_relaxed);
      found = it->second.templates;
    }
  }
  if (found != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.hits.add(1);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics.misses.add(1);
  }
  return found;
}

TemplateCache::EntryPtr TemplateCache::insert(
    const std::string& rule_name, std::uint64_t rule_fp,
    const genus::ComponentSpec& spec,
    std::vector<CompiledTemplate> templates) {
  // An armed fault injector throws here, before any mutation: a failed
  // insert must leave no partially-constructed entry behind.
  base::FaultInjector::global().probe("dtas.template_cache.insert");
  auto owned = std::make_shared<const std::vector<CompiledTemplate>>(
      std::move(templates));
  const std::size_t bytes = entry_footprint(*owned);
  Key key{rule_name, rule_fp, spec};
  Shard& shard = shard_for(key);
  const std::size_t budget = budget_.load(std::memory_order_relaxed);
  EntryPtr stored;
  {
    base::LockGuard lock(shard.mu);
    // First writer wins on a publish race; both sides compiled identical
    // content (expand is pure in the key), so returning the survivor is
    // correct either way.
    auto [it, inserted] = shard.map.emplace(
        key, Entry{std::move(owned), bytes,
                   tick_.fetch_add(1, std::memory_order_relaxed)});
    if (inserted) {
      shard.bytes += bytes;
      bytes_.fetch_add(static_cast<long>(bytes), std::memory_order_relaxed);
    }
    stored = it->second.templates;
    if (budget != 0) evict_locked(shard, budget / kShards);
  }
  TemplateCacheMetrics::get().bytes.set(
      bytes_.load(std::memory_order_relaxed));
  return stored;
}

void TemplateCache::evict_locked(Shard& shard, std::size_t target) {
  // LRU sweep over unpinned entries. Pinned = the entry vector or any
  // inner template/plan is referenced outside the cache: an in-flight
  // find() holds the vector (its copy happened under this shard's lock,
  // so the count is visible here), and every ImplNode of a live
  // DesignSpace holds the inner pointers — either way use_count > 1 and
  // the entry is skipped.
  while (shard.bytes > target) {
    auto victim = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      const Entry& e = it->second;
      if (e.templates.use_count() > 1) continue;
      bool pinned = false;
      for (const CompiledTemplate& ct : *e.templates) {
        if ((ct.tmpl != nullptr && ct.tmpl.use_count() > 1) ||
            (ct.plan != nullptr && ct.plan.use_count() > 1)) {
          pinned = true;
          break;
        }
      }
      if (pinned) continue;
      if (victim == shard.map.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == shard.map.end()) break;  // everything left is pinned
    shard.bytes -= victim->second.bytes;
    bytes_.fetch_sub(static_cast<long>(victim->second.bytes),
                     std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    TemplateCacheMetrics::get().evictions.add(1);
    shard.map.erase(victim);
  }
}

void TemplateCache::set_budget_bytes(std::size_t budget) {
  budget_.store(budget, std::memory_order_relaxed);
  if (budget != 0) {
    for (Shard& shard : shards_) {
      base::LockGuard lock(shard.mu);
      evict_locked(shard, budget / kShards);
    }
  }
  TemplateCacheMetrics::get().bytes.set(
      bytes_.load(std::memory_order_relaxed));
}

std::size_t TemplateCache::budget_bytes() const {
  return budget_.load(std::memory_order_relaxed);
}

TemplateCache::Stats TemplateCache::snapshot() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.entries = static_cast<long>(size());
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

std::size_t TemplateCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    base::LockGuard lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

bool default_verify_designs() {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

DesignSpace::DesignSpace(const RuleBase& rules,
                         const cells::CellLibrary& library,
                         SpaceOptions options)
    : rules_(rules), library_(library), options_(options) {
  threads_ = options_.threads;
  if (threads_ <= 0) {
    threads_ = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  if (!options_.trace_path.empty()) {
    obs::Tracer::global().start(options_.trace_path);
  }
  if (options_.template_cache_budget_bytes >= 0) {
    TemplateCache::global().set_budget_bytes(
        static_cast<std::size_t>(options_.template_cache_budget_bytes));
  }
  arm_deadline();
}

void DesignSpace::arm_deadline() {
  stats_.deadline_hit = false;
  if (options_.deadline_ms > 0) {
    deadline_ = base::Deadline::after_ms(options_.deadline_ms,
                                         options_.cancel);
  } else if (options_.cancel != nullptr) {
    deadline_ = base::Deadline::cancel_only(options_.cancel);
  } else {
    deadline_ = base::Deadline();
  }
}

void DesignSpace::set_deadline_policy(
    long deadline_ms, bool best_effort,
    std::shared_ptr<base::CancelToken> cancel) {
  options_.deadline_ms = deadline_ms;
  options_.deadline_best_effort = best_effort;
  options_.cancel = std::move(cancel);
}

bool DesignSpace::deadline_exceeded() { return deadline_poll(stats_); }

bool DesignSpace::deadline_poll(SpaceStats& stats) {
  if (!deadline_.active() || !deadline_.expired()) return false;
  if (!options_.deadline_best_effort) {
    throw Cancelled("synthesis deadline exceeded (deadline_ms = " +
                    std::to_string(options_.deadline_ms) + ")");
  }
  stats.deadline_hit = true;
  return true;
}

base::ThreadPool* DesignSpace::pool() {
  if (pool_ == nullptr) pool_ = base::ThreadPool::lease(threads_ - 1);
  return pool_.get();
}

namespace {

/// Increment for the lifetime of a recursive call (spans only the
/// depth-0 entry; see expand_depth_/eval_depth_).
struct DepthGuard {
  explicit DepthGuard(int& depth) : depth_(depth) { ++depth_; }
  ~DepthGuard() { --depth_; }
  int& depth_;
};

}  // namespace

SpecNode* DesignSpace::expand(const ComponentSpec& spec) {
  obs::Span span(expand_depth_ == 0 ? "expand" : nullptr, "dtas");
  DepthGuard depth(expand_depth_);
  auto it = memo_.find(spec);
  if (it != memo_.end()) return it->second.get();
  auto owned = std::make_unique<SpecNode>();
  SpecNode* node = owned.get();
  node->spec = spec;
  memo_.emplace(spec, std::move(owned));
  ++stats_.spec_nodes;
  static obs::Counter& spec_node_counter =
      obs::Registry::global().counter("dtas.expand.spec_nodes");
  spec_node_counter.add(1);
  try {
    expand_node(node);
  } catch (...) {
    // Strong exception safety: a half-expanded node must not stay
    // memoized (a retry would trust its expanded/in_progress flags and
    // its partial impl list). Fully expanded descendants stay — they are
    // complete, and nothing can reference *this* node yet: it was
    // in_progress for its whole expansion, so the cyclic-graph check
    // rejected every template that tried.
    memo_.erase(spec);
    --stats_.spec_nodes;
    throw;
  }
  return node;
}

namespace {

/// Run one rule's expand() and compile every produced template into its
/// immutable shared form: distinct child specs (first-occurrence instance
/// order) and timing plan, compiled from a topological schedule that is
/// dropped afterwards. Pure in (rule name, spec) by the Rule::expand
/// contract, so the result is what the global TemplateCache stores.
/// Combinational-cycle rejection is a property of the template and is
/// recorded here; cyclic-*graph* rejection depends on the expansion path
/// and stays in expand_node.
std::vector<CompiledTemplate> compile_rule_templates(
    const Rule& rule, const ComponentSpec& spec, const RuleContext& ctx) {
  std::vector<CompiledTemplate> out;
  for (Module& tmpl : rule.expand(spec, ctx)) {
    CompiledTemplate ct;
    for (const Instance& inst : tmpl.instances()) {
      BRIDGE_CHECK(inst.ref == RefKind::kSpec,
                   "rule " << rule.name() << " emitted a non-spec instance");
      if (std::find(ct.child_specs.begin(), ct.child_specs.end(),
                    inst.spec) == ct.child_specs.end()) {
        ct.child_specs.push_back(inst.spec);
      }
    }
    EvalSchedule topo;
    try {
      topo = DesignSpace::topo_order(tmpl);
    } catch (const Error&) {
      ct.rejected = true;
      ct.tmpl = std::make_shared<const Module>(std::move(tmpl));
      out.push_back(std::move(ct));
      continue;
    }
    std::vector<const ComponentSpec*> child_spec_ptrs;
    child_spec_ptrs.reserve(ct.child_specs.size());
    for (const ComponentSpec& cs : ct.child_specs) {
      child_spec_ptrs.push_back(&cs);
    }
    TimingPlan plan = TimingPlan::compile(tmpl, topo, child_spec_ptrs);
    ct.tmpl = std::make_shared<const Module>(std::move(tmpl));
    ct.plan = std::make_shared<const TimingPlan>(std::move(plan));
    out.push_back(std::move(ct));
  }
  return out;
}

}  // namespace

void DesignSpace::expand_node(SpecNode* node) {
  static obs::Counter& impl_node_counter =
      obs::Registry::global().counter("dtas.expand.impl_nodes");
  static obs::Counter& rule_application_counter =
      obs::Registry::global().counter("dtas.expand.rule_applications");
  node->in_progress = true;
  const ComponentSpec& spec = node->spec;

  // Subtree content fingerprint, folded in step with the impls as they are
  // appended (see SpecNode::slice_fp). The leaf/decomp discriminants keep
  // a cell from aliasing a rule application at the same position.
  std::uint64_t slice_fp =
      base::fp_u64(base::kFingerprintSeed, genus::spec_fingerprint(spec));

  // Leaf implementations: functional matches against the data book.
  for (const cells::Cell* cell : library_.matches(spec)) {
    auto impl = std::make_unique<ImplNode>();
    impl->cell = cell;
    node->impls.push_back(std::move(impl));
    slice_fp = base::fp_u64(slice_fp, 1);
    slice_fp = base::fp_u64(slice_fp, cell->fingerprint);
    ++stats_.impl_nodes;
    ++stats_.leaf_impls;
    impl_node_counter.add(1);
  }

  // Decomposition implementations: every applicable rule contributes.
  // Applicability is probed per library (rules routinely ask the data book
  // which granularities exist); the *templates* of an applicable rule are
  // pure in (rule name, spec) and come from the shared cache.
  RuleContext ctx{library_};
  for (const auto& rule : rules_.rules()) {
    // Cooperative checkpoints, one per candidate rule: a deadline stops
    // further rule applications (best-effort) or unwinds (throw mode);
    // an armed fault injector exercises the unwind path.
    if (deadline_exceeded()) break;
    base::FaultInjector::global().probe("dtas.expand.rule");
    if (!rule->applies(spec, ctx)) continue;
    ++stats_.rule_applications;
    rule_application_counter.add(1);

    // `cached` keeps the entry alive while we iterate — under a cache
    // budget, eviction may race with this loop, and the shared_ptr is
    // what pins the entry (see TemplateCache::evict_locked).
    TemplateCache::EntryPtr cached;
    const std::vector<CompiledTemplate>* compiled = nullptr;
    std::vector<CompiledTemplate> local;  // uncacheable rules
    if (rule->cacheable()) {
      // The key always carries the rule's slice fingerprint — that is
      // what makes sharing the process-wide cache across libraries
      // *sound* (a LambdaRule with private behavior gets a private key;
      // two same-named library rules over divergent content can never
      // collide): soundness is an invariant, not an option.
      const std::uint64_t rule_fp = rule->slice_fingerprint();
      TemplateCache& cache = TemplateCache::global();
      cached = cache.find(rule->name(), rule_fp, spec);
      if (cached != nullptr) {
        ++stats_.template_cache_hits;
      } else {
        ++stats_.template_cache_misses;
        cached = cache.insert(rule->name(), rule_fp, spec,
                              compile_rule_templates(*rule, spec, ctx));
      }
      compiled = cached.get();
    } else {
      local = compile_rule_templates(*rule, spec, ctx);
      compiled = &local;
    }

    for (const CompiledTemplate& ct : *compiled) {
      // Recursively expand children; reject templates that reference a
      // specification still being expanded (would make the graph cyclic).
      bool cyclic = false;
      std::vector<SpecNode*> children;
      children.reserve(ct.child_specs.size());
      for (const ComponentSpec& cs : ct.child_specs) {
        SpecNode* child = expand(cs);
        if (child->in_progress) {
          cyclic = true;
          break;
        }
        children.push_back(child);
      }
      if (cyclic || ct.rejected) {
        ++stats_.rejected_templates;
        continue;
      }
      auto impl = std::make_unique<ImplNode>();
      impl->rule_name = rule->name();
      impl->tmpl = ct.tmpl;
      impl->plan = ct.plan;
      impl->children = std::move(children);
      slice_fp = base::fp_u64(slice_fp, 2);
      slice_fp = base::fp_str(slice_fp, impl->rule_name);
      slice_fp = base::fp_u64(slice_fp, rule->slice_fingerprint());
      // Children finished expanding inside this loop, so their subtree
      // fingerprints are final here; folding them makes slice_fp cover
      // the entire reachable subspace transitively.
      for (SpecNode* child : impl->children) {
        slice_fp = base::fp_u64(slice_fp, child->slice_fp);
      }
      node->impls.push_back(std::move(impl));
      ++stats_.impl_nodes;
      impl_node_counter.add(1);
    }
  }

  node->slice_fp = slice_fp;
  node->in_progress = false;
  node->expanded = true;
  if (node->impls.empty()) ++stats_.dead_specs;
}

namespace {

/// Per-instance connection view with resolved port directions, computed
/// once (instance_ports + find_port are too hot to call per edge).
struct InstView {
  bool sequential = false;
  // (port name, conn, width) split by direction.
  std::vector<std::tuple<base::Symbol, PortConn, int>> ins;
  std::vector<std::tuple<base::Symbol, PortConn, int>> outs;
};

std::vector<InstView> make_views(const Module& tmpl) {
  std::vector<InstView> views;
  views.reserve(tmpl.instances().size());
  std::vector<genus::PortSpec> storage;
  for (const Instance& inst : tmpl.instances()) {
    InstView v;
    v.sequential = genus::kind_is_sequential(inst.spec.kind);
    const auto& ports = Module::instance_ports_ref(inst, storage);
    for (const auto& [port_name, conn] : inst.connections) {
      const genus::PortSpec& p = genus::find_port(ports, port_name);
      if (p.dir == genus::PortDir::kIn) {
        v.ins.emplace_back(port_name, conn, p.width);
      } else {
        v.outs.emplace_back(port_name, conn, p.width);
      }
    }
    views.push_back(std::move(v));
  }
  return views;
}

}  // namespace

EvalSchedule DesignSpace::topo_order(const Module& tmpl) {
  const auto& insts = tmpl.instances();
  const int n = static_cast<int>(insts.size());
  const auto views = make_views(tmpl);

  // Units: one per (combinational instance, connected output port).
  std::vector<EvalStep> units;
  std::vector<std::vector<int>> unit_of_inst(n);
  for (int i = 0; i < n; ++i) {
    if (views[i].sequential) continue;
    for (const auto& [port, conn, width] : views[i].outs) {
      (void)conn;
      (void)width;
      unit_of_inst[i].push_back(static_cast<int>(units.size()));
      units.push_back(EvalStep{i, port});
    }
  }

  // Driver unit per net bit (-1: external input / sequential / constant).
  std::vector<std::vector<int>> bit_driver(tmpl.nets().size());
  for (size_t nn = 0; nn < tmpl.nets().size(); ++nn) {
    bit_driver[nn].assign(tmpl.nets()[nn].width, -1);
  }
  for (size_t u = 0; u < units.size(); ++u) {
    const EvalStep& step = units[u];
    for (const auto& [port, conn, width] : views[step.instance].outs) {
      if (port != step.port || conn.kind != PortConn::Kind::kNet) continue;
      for (int b = 0; b < width; ++b) {
        bit_driver[conn.net][conn.lo + b] = static_cast<int>(u);
      }
    }
  }

  std::vector<std::vector<int>> succs(units.size());
  std::vector<int> indegree(units.size(), 0);
  for (size_t u = 0; u < units.size(); ++u) {
    const EvalStep& step = units[u];
    const Instance& inst = insts[step.instance];
    std::vector<int> preds;
    for (const auto& [in_port, conn, width] : views[step.instance].ins) {
      if (conn.kind != PortConn::Kind::kNet) continue;
      if (!genus::output_depends_on(inst.spec, step.port, in_port)) continue;
      const int span = conn.replicate ? 1 : width;
      for (int b = 0; b < span; ++b) {
        int d = bit_driver[conn.net][conn.lo + b];
        if (d >= 0 && d != static_cast<int>(u)) preds.push_back(d);
      }
    }
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    for (int p : preds) {
      succs[p].push_back(static_cast<int>(u));
      ++indegree[u];
    }
  }

  EvalSchedule order;
  std::vector<int> ready;
  for (size_t u = 0; u < units.size(); ++u) {
    if (indegree[u] == 0) ready.push_back(static_cast<int>(u));
  }
  while (!ready.empty()) {
    int u = ready.back();
    ready.pop_back();
    order.push_back(units[u]);
    for (int s : succs[u]) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != units.size()) {
    throw Error("combinational cycle in template " + tmpl.name());
  }
  return order;
}

std::vector<Alternative> DesignSpace::filter_alternatives(
    std::vector<Alternative> candidates) const {
  // Deduplicate identical metrics (keep the first). stable_sort so that
  // ties between equal-metric candidates resolve to enumeration order:
  // bound-and-prune never discards the first-enumerated candidate of an
  // equal-metric group (the margins are strict), so the pruned and
  // unpruned sweeps keep the same representative.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Alternative& a, const Alternative& b) {
                     if (std::abs(a.metric.area - b.metric.area) > kEps) {
                       return a.metric.area < b.metric.area;
                     }
                     return a.metric.delay < b.metric.delay;
                   });
  std::vector<Alternative> kept;
  switch (options_.filter) {
    case FilterKind::kPareto: {
      // Favorable-tradeoff filter: strictly Pareto, and additional area is
      // only worth paying for a significant delay gain.
      double best_delay = std::numeric_limits<double>::infinity();
      for (Alternative& alt : candidates) {
        const double required =
            kept.empty() ? best_delay
                         : best_delay * (1.0 - options_.min_delay_gain);
        if (alt.metric.delay < required - kEps) {
          best_delay = alt.metric.delay;
          kept.push_back(std::move(alt));
        }
      }
      break;
    }
    case FilterKind::kAreaOnly:
      if (!candidates.empty()) kept.push_back(std::move(candidates.front()));
      break;
    case FilterKind::kDelayOnly: {
      if (!candidates.empty()) {
        auto it = std::min_element(candidates.begin(), candidates.end(),
                                   [](const Alternative& a,
                                      const Alternative& b) {
                                     return a.metric.delay < b.metric.delay;
                                   });
        kept.push_back(std::move(*it));
      }
      break;
    }
    case FilterKind::kNone: {
      // Drop exact duplicates only.
      for (Alternative& alt : candidates) {
        if (kept.empty() ||
            std::abs(kept.back().metric.area - alt.metric.area) > kEps ||
            std::abs(kept.back().metric.delay - alt.metric.delay) > kEps) {
          kept.push_back(std::move(alt));
        }
      }
      break;
    }
  }
  if (static_cast<int>(kept.size()) > options_.max_alternatives_per_node) {
    kept.resize(options_.max_alternatives_per_node);
  }
  return kept;
}

void DesignSpace::trim_limits(std::vector<int>& limit, long cap) {
  auto product = [&]() {
    double p = 1;
    for (int l : limit) p *= l;
    return p;
  };
  while (product() > static_cast<double>(cap)) {
    auto it = std::max_element(limit.begin(), limit.end());
    if (*it <= 1) break;
    --*it;
  }
}

namespace {

/// Cross-shard exchange of the evaluated-candidate Pareto front: the
/// shared best-bound parallel shards use to tighten their private
/// bound-and-prune fronts. Shards exchange periodically (not per
/// combination); the atomic stamp lets a shard skip the lock entirely
/// when neither side has learned anything new since its last visit.
/// Sharing is a pure pruning accelerator — correctness and determinism
/// never depend on which points a shard happens to have seen, because a
/// candidate strictly dominated with margin by *any* evaluated candidate
/// of the node can survive no dominance-respecting filter.
class BoundExchange {
 public:
  explicit BoundExchange(const ParetoFront& seed) : front_(seed) {}

  std::uint64_t stamp() const {
    return stamp_.load(std::memory_order_relaxed);
  }

  /// Merge `local` into the shared front, refresh `local` to the union,
  /// and return the stamp of the refreshed state.
  std::uint64_t exchange(ParetoFront& local) {
    base::LockGuard lock(mu_);
    if (front_.merge(local)) {
      stamp_.fetch_add(1, std::memory_order_relaxed);
    }
    local = front_;
    return stamp_.load(std::memory_order_relaxed);
  }

 private:
  base::Mutex mu_;
  ParetoFront front_ BRIDGE_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> stamp_{0};
};

/// Units of odometer work (combination tests plus block tests) between
/// checkpoints: fault probe, deadline poll and, in a parallel shard,
/// bound exchange.
constexpr long kBoundExchangePeriod = 1024;

struct OdometerCounters {
  long evaluated = 0;
  long pruned = 0;
  long skipped = 0;      // the part of `pruned` ruled out as whole blocks
  long block_tests = 0;  // bounds of multi-combination blocks tested

  OdometerCounters& operator+=(const OdometerCounters& o) {
    evaluated += o.evaluated;
    pruned += o.pruned;
    skipped += o.skipped;
    block_tests += o.block_tests;
    return *this;
  }
};

/// What a shard does when the armed deadline expires mid-range: nothing
/// (no deadline), stop and keep the candidates gathered so far
/// (best-effort — the flag records that the enumeration is partial), or
/// throw Cancelled (captured by the pool, rethrown after the batch
/// drains).
struct DeadlineHooks {
  const base::Deadline* deadline = nullptr;  // null = unbounded
  bool best_effort = false;
  std::atomic<bool>* hit = nullptr;  // set by best-effort expiry
};

/// Evaluate the contiguous combination index range [begin, end) of the
/// odometer — the body of both the serial path (one range covering
/// everything, shared == nullptr) and each parallel shard. Index i
/// decodes little-endian into child choices: digit c is
/// (i / stride[c]) % limit[c] with stride[c] = prod(limit[0..c)),
/// matching the serial odometer's increment-with-carry order, so
/// concatenating shard outputs in shard order reproduces the serial
/// candidate sequence exactly.
///
/// Branch and bound over blocks. Block k at index i (i a multiple of
/// stride[k]) is the stride[k] combinations that share digits k..n-1
/// with i, digits 0..k-1 free. Setting every free digit to its child's
/// minimum area and minimum delay over the trimmed prefix
/// [0, limit[c]) gives a vector whose plan.area (an FP sum in instance
/// order) and plan.delay (max-plus) lower-bound every combination of the
/// block: FP addition and max are monotone in each argument, and so is
/// ParetoFront::dominates_bound. At each block start the largest block
/// that fits in [begin, end) is tested — delay_lower_bound first, then
/// the exact plan.delay — and a dominated block is counted as pruned and
/// stepped over whole; otherwise its sub-blocks are tested in turn, down
/// to single combinations (block 0, the per-combination test). Under
/// pruning the front only grows, and only evaluated candidates grow it,
/// so every skipped combination is one the per-combination test would
/// also have pruned, and every combination that is tested sees the same
/// front it would have seen: the serial candidate sequence and the
/// serial evaluated/pruned counts are unchanged.
///
/// Checkpoints (fault probe, deadline poll, bound exchange) run on a work
/// counter, +1 per combination test and +1 per block test, every
/// kBoundExchangePeriod units — an index-based cadence would miss them
/// once the index jumps over skipped blocks.
void run_odometer_range(const TimingPlan& plan,
                        const std::vector<SpecNode*>& children,
                        const std::vector<int>& limit, int impl_index,
                        long begin, long end, bool prune, ParetoFront& front,
                        BoundExchange* shared, std::uint64_t shared_stamp,
                        const DeadlineHooks& hooks, EvalScratch& scratch,
                        std::vector<Alternative>& candidates,
                        OdometerCounters& counters) {
  const int n = static_cast<int>(children.size());
  scratch.child_area.resize(n);
  scratch.child_delay.resize(n);
  std::vector<long> stride(n + 1, 1);
  std::vector<double> min_area(n), min_delay(n);
  for (int c = 0; c < n; ++c) {
    stride[c + 1] = stride[c] * limit[c];
    min_area[c] = min_delay[c] = std::numeric_limits<double>::infinity();
    for (int a = 0; a < limit[c]; ++a) {
      const Metric& m = children[c]->alts[a].metric;
      min_area[c] = std::min(min_area[c], m.area);
      min_delay[c] = std::min(min_delay[c], m.delay);
    }
  }
  std::vector<int> choice(n, 0);
  long rest = begin;
  for (int c = 0; c < n; ++c) {
    choice[c] = static_cast<int>(rest % limit[c]);
    rest /= limit[c];
  }
  bool local_news = false;  // front points other shards haven't seen
  long work = 0;
  long idx = begin;
  while (idx < end) {
    // The largest block starting at idx (digits below it all zero) that
    // fits the range, lowered past limit-1 digits, which leave it the
    // same block. Without pruning only single combinations are tested.
    int k = 0;
    if (prune) {
      while (k < n && choice[k] == 0) ++k;
      while (k > 0 && (idx + stride[k] > end || stride[k - 1] == stride[k])) {
        --k;
      }
    }
    for (;;) {
      if (work % kBoundExchangePeriod == 0) {
        base::FaultInjector::global().probe("dtas.evaluate.plan");
        if (hooks.deadline != nullptr && hooks.deadline->expired()) {
          if (!hooks.best_effort) {
            throw Cancelled("synthesis deadline exceeded in odometer");
          }
          hooks.hit->store(true, std::memory_order_relaxed);
          return;  // keep the candidates evaluated so far
        }
        if (shared != nullptr && work != 0 &&
            (local_news || shared->stamp() != shared_stamp)) {
          shared_stamp = shared->exchange(front);
          local_news = false;
        }
      }
      ++work;
      if (k > 0) ++counters.block_tests;
      for (int c = 0; c < k; ++c) {
        scratch.child_area[c] = min_area[c];
        scratch.child_delay[c] = min_delay[c];
      }
      for (int c = k; c < n; ++c) {
        const Metric& m = children[c]->alts[choice[c]].metric;
        scratch.child_area[c] = m.area;
        scratch.child_delay[c] = m.delay;
      }
      const double area = plan.area(scratch.child_area.data());
      bool dominated =
          prune && front.dominates_bound(
                       area, plan.delay_lower_bound(scratch.child_delay.data()));
      double delay = 0.0;
      if (!dominated) {
        delay = plan.delay(scratch.child_delay.data(), scratch);
        dominated = prune && front.dominates_bound(area, delay);
      }
      if (dominated) {
        counters.pruned += stride[k];
        if (k > 0) counters.skipped += stride[k];
        break;
      }
      if (k == 0) {
        Alternative alt;
        alt.impl_index = impl_index;
        alt.child_alt = choice;
        alt.metric = Metric{area, delay};
        ++counters.evaluated;
        local_news = front.add(area, delay) || local_news;
        candidates.push_back(std::move(alt));
        break;
      }
      // Not ruled out: descend to the first of its next-smaller blocks.
      do {
        --k;
      } while (k > 0 && stride[k - 1] == stride[k]);
    }
    // Step past block k: digits below k are zero, so this is digit k's
    // increment with carry.
    idx += stride[k];
    int c = k;
    while (c < n && ++choice[c] >= limit[c]) {
      choice[c] = 0;
      ++c;
    }
  }
}

}  // namespace

void DesignSpace::run_plan_odometer(const TimingPlan& plan,
                                    const std::vector<SpecNode*>& children,
                                    const std::vector<int>& limit,
                                    int impl_index, ParetoFront& front,
                                    std::vector<Alternative>& candidates) {
  run_plan_odometer(plan, children, limit, impl_index, front, candidates,
                    scratch_, stats_);
}

void DesignSpace::run_plan_odometer(const TimingPlan& plan,
                                    const std::vector<SpecNode*>& children,
                                    const std::vector<int>& limit,
                                    int impl_index, ParetoFront& front,
                                    std::vector<Alternative>& candidates,
                                    EvalScratch& scratch, SpaceStats& stats) {
  // Compiled path: per-child metric arrays feed the timing plan; each
  // combination is pure array arithmetic, and bound-and-prune skips delay
  // propagation — or discards the combination unstored — when an
  // evaluated candidate already dominates it.
  //
  // Registry mirrors are added once per odometer run (bulk deltas), never
  // per combination — the inner loop stays registry-free.
  static obs::Counter& evaluated_counter =
      obs::Registry::global().counter("dtas.evaluate.combinations.evaluated");
  static obs::Counter& pruned_counter =
      obs::Registry::global().counter("dtas.evaluate.combinations.pruned");
  static obs::Counter& skipped_counter =
      obs::Registry::global().counter("dtas.evaluate.combinations.skipped");
  static obs::Counter& block_tests_counter =
      obs::Registry::global().counter("dtas.evaluate.block_tests");
  static obs::Counter& parallel_runs_counter =
      obs::Registry::global().counter("dtas.evaluate.odometer.parallel_runs");
  static obs::Counter& shards_counter =
      obs::Registry::global().counter("dtas.evaluate.odometer.shards");
  obs::Span span("odometer", "dtas");
  const bool prune = prune_enabled();
  long total = 1;
  for (int l : limit) total *= l;  // callers capped the product (trim_limits)

  long num_shards = 1;
  const long min_shard = std::max<long>(1, options_.min_combinations_per_shard);
  if (threads_ > 1 && total >= 2 * min_shard) {
    num_shards =
        std::min(static_cast<long>(threads_) *
                     std::max(1, options_.shards_per_thread),
                 total / min_shard);
  }

  // One odometer run's counts into the stats and their registry mirrors.
  const auto record = [&](const OdometerCounters& c) {
    stats.combinations_evaluated += c.evaluated;
    stats.combinations_pruned += c.pruned;
    stats.combinations_skipped += c.skipped;
    stats.block_tests += c.block_tests;
    evaluated_counter.add(c.evaluated);
    pruned_counter.add(c.pruned);
    skipped_counter.add(c.skipped);
    block_tests_counter.add(c.block_tests);
  };

  DeadlineHooks hooks;
  std::atomic<bool> deadline_hit{false};
  if (deadline_.active()) {
    hooks.deadline = &deadline_;
    hooks.best_effort = options_.deadline_best_effort;
    hooks.hit = &deadline_hit;
  }

  if (num_shards <= 1) {
    OdometerCounters counters;
    run_odometer_range(plan, children, limit, impl_index, 0, total, prune,
                       front, nullptr, 0, hooks, scratch, candidates,
                       counters);
    record(counters);
    if (deadline_hit.load(std::memory_order_relaxed)) {
      stats.deadline_hit = true;
    }
    return;
  }

  // Sharded run: contiguous index ranges in enumeration order. Every shard
  // evaluates against its executing thread's EvalScratch and a private
  // ParetoFront (seeded from the candidates evaluated so far and
  // refreshed through the shared bound), and stores into its own slot; no
  // odometer state is ever written concurrently. Merging slot-by-slot in
  // shard order makes the surviving candidate sequence exactly the serial
  // one, so the filtered front — stable sort, tie rules and all — is
  // bit-identical at every thread count.
  BoundExchange shared(front);
  struct Shard {
    std::vector<Alternative> candidates;
    OdometerCounters counters;
  };
  std::vector<Shard> shards(static_cast<size_t>(num_shards));
  // One scratch per pool thread slot (caller + workers), reused across
  // the shards that thread happens to claim.
  std::vector<EvalScratch> scratches(static_cast<size_t>(threads_));
  const long chunk = (total + num_shards - 1) / num_shards;
  pool()->run(static_cast<int>(num_shards), [&](int s, int slot) {
    const long begin = s * chunk;
    const long end = std::min(total, begin + chunk);
    if (begin >= end) return;
    ParetoFront local;
    const std::uint64_t stamp = shared.exchange(local);
    run_odometer_range(plan, children, limit, impl_index, begin, end, prune,
                       local, prune ? &shared : nullptr, stamp, hooks,
                       scratches[slot], shards[s].candidates,
                       shards[s].counters);
  });
  if (deadline_hit.load(std::memory_order_relaxed)) {
    // Best-effort expiry inside one or more shards: the merged candidate
    // list is a prefix-of-each-shard, still deterministic to merge, but
    // the enumeration is partial — record it.
    stats.deadline_hit = true;
  }
  OdometerCounters merged;
  for (Shard& s : shards) {
    for (Alternative& alt : s.candidates) {
      front.add(alt.metric.area, alt.metric.delay);
      candidates.push_back(std::move(alt));
    }
    merged += s.counters;
  }
  record(merged);
  parallel_runs_counter.add(1);
  shards_counter.add(num_shards);
  ++stats.parallel_odometers;
  stats.odometer_shards += num_shards;
}

void DesignSpace::evaluate(SpecNode* node) {
  obs::Span span(eval_depth_ == 0 ? "evaluate" : nullptr, "dtas");
  DepthGuard depth(eval_depth_);
  if (node->evaluated) return;
  if (threads_ > 1 && eval_depth_ == 1) {
    // Top-level entry with a pool available: levelize and fan out. The
    // recursive serial path below is the threads == 1 path.
    evaluate_parallel(node);
    return;
  }
  node->evaluated = true;  // set first: graph is acyclic by construction
  try {
    evaluate_impls(node);
  } catch (...) {
    // Strong exception safety: without the reset, a retry would see
    // evaluated == true over an empty alternative list and conclude the
    // node is unrealizable. Fully evaluated children keep their alts
    // (they are complete); this node redoes its own odometers only.
    node->evaluated = false;
    node->alts.clear();
    throw;
  }
}

void DesignSpace::evaluate_parallel(SpecNode* root) {
  static obs::Counter& levels_counter =
      obs::Registry::global().counter("dtas.evaluate.node_parallel.levels");
  static obs::Counter& nodes_counter =
      obs::Registry::global().counter("dtas.evaluate.node_parallel.nodes");
  // Layer the un-evaluated sub-DAG reachable from `root`:
  // level(n) = 1 + max level over the un-evaluated children of its
  // decomposition impls (0 when every child is already evaluated). Each
  // layer is an antichain of the evaluation dependency order — its nodes
  // share no path — so once all lower layers are done, a layer's nodes
  // evaluate independently. Nodes enter their layer in DFS discovery
  // order, which is the order the serial recursion would first reach
  // them; per-node evaluation is exactly the serial code on private
  // state, so the resulting alts are bit-identical to the serial path.
  std::unordered_map<const SpecNode*, int> level;
  std::vector<std::vector<SpecNode*>> levels;
  std::function<int(SpecNode*)> layer = [&](SpecNode* n) -> int {
    if (n->evaluated) return -1;
    auto it = level.find(n);
    if (it != level.end()) return it->second;
    int lv = 0;
    for (const auto& impl : n->impls) {
      if (impl->is_leaf()) continue;
      for (SpecNode* child : impl->children) {
        lv = std::max(lv, layer(child) + 1);
      }
    }
    level.emplace(n, lv);
    if (static_cast<int>(levels.size()) <= lv) levels.resize(lv + 1);
    levels[static_cast<std::size_t>(lv)].push_back(n);
    return lv;
  };
  layer(root);

  std::vector<EvalScratch> scratches(static_cast<std::size_t>(threads_));
  for (std::vector<SpecNode*>& nodes : levels) {
    if (nodes.size() == 1) {
      // Single-node antichain (typically the root, whose odometers carry
      // most of the work): run on the caller so run_plan_odometer can
      // still shard it across the pool.
      SpecNode* n = nodes.front();
      n->evaluated = true;
      try {
        evaluate_impls(n, scratch_, stats_, /*children_preevaluated=*/true);
      } catch (...) {
        n->evaluated = false;
        n->alts.clear();
        throw;
      }
      continue;
    }
    // Fork-join batch over the antichain. Each node writes only its own
    // alts/flags, evaluates into the executing thread's scratch, and
    // accumulates into a private SpaceStats merged after the barrier in
    // node order (the sums are order-independent; merging in node order
    // just keeps it obviously deterministic). A throwing node resets
    // itself — the same strong exception safety as serial evaluate() —
    // and the pool rethrows the first failure once the batch drains.
    std::vector<SpaceStats> local(nodes.size());
    pool()->run(static_cast<int>(nodes.size()), [&](int t, int slot) {
      SpecNode* n = nodes[static_cast<std::size_t>(t)];
      n->evaluated = true;
      try {
        evaluate_impls(n, scratches[static_cast<std::size_t>(slot)],
                       local[static_cast<std::size_t>(t)],
                       /*children_preevaluated=*/true);
      } catch (...) {
        n->evaluated = false;
        n->alts.clear();
        throw;
      }
    });
    for (const SpaceStats& s : local) {
      stats_.combinations_evaluated += s.combinations_evaluated;
      stats_.combinations_pruned += s.combinations_pruned;
      stats_.combinations_skipped += s.combinations_skipped;
      stats_.block_tests += s.block_tests;
      stats_.parallel_odometers += s.parallel_odometers;
      stats_.odometer_shards += s.odometer_shards;
      stats_.deadline_hit = stats_.deadline_hit || s.deadline_hit;
    }
    ++stats_.node_parallel_levels;
    stats_.node_parallel_nodes += static_cast<long>(nodes.size());
    levels_counter.add(1);
    nodes_counter.add(static_cast<long>(nodes.size()));
  }
}

void DesignSpace::evaluate_impls(SpecNode* node, EvalScratch& scratch,
                                 SpaceStats& stats,
                                 bool children_preevaluated) {
  // Evaluated candidates of this node, across all implementations — the
  // prune front a combination must beat to be worth timing.
  ParetoFront front;

  std::vector<Alternative> candidates;
  for (size_t ii = 0; ii < node->impls.size(); ++ii) {
    // Best-effort deadline expiry stops further implementations; the
    // candidates gathered so far still filter into a valid (partial)
    // alternative list.
    if (deadline_poll(stats)) break;
    ImplNode* impl = node->impls[ii].get();
    if (impl->is_leaf()) {
      Alternative alt;
      alt.impl_index = static_cast<int>(ii);
      alt.metric = Metric{impl->cell->area, impl->cell->delay_ns};
      front.add(alt.metric.area, alt.metric.delay);
      candidates.push_back(std::move(alt));
      continue;
    }
    // Evaluate children first. In node-parallel batches the levelization
    // already evaluated every child in an earlier layer (this may run on
    // a worker thread, where the recursive path's member state is off
    // limits) — assert that instead of recursing.
    bool viable = true;
    for (SpecNode* child : impl->children) {
      if (children_preevaluated) {
        BRIDGE_CHECK(child->evaluated,
                     "node-parallel level order violated for "
                         << child->spec.key());
      } else {
        evaluate(child);
      }
      if (child->alts.empty()) {
        viable = false;
        break;
      }
    }
    if (!viable) {
      impl->dead = true;
      continue;
    }
    // Bound the combination count per implementation: shrink the number of
    // alternatives considered per child until the product fits.
    const int nchildren = static_cast<int>(impl->children.size());
    std::vector<int> limit(nchildren);
    for (int c = 0; c < nchildren; ++c) {
      limit[c] = static_cast<int>(impl->children[c]->alts.size());
    }
    trim_limits(limit, options_.max_combinations_per_impl);

    // Odometer over child alternative choices (uniform-implementation
    // constraint: one choice per *distinct* child spec).
    run_plan_odometer(*impl->plan, impl->children, limit,
                      static_cast<int>(ii), front, candidates, scratch, stats);
  }
  node->alts = filter_alternatives(std::move(candidates));
}

double DesignSpace::count_constrained(SpecNode* node) {
  if (node->count_constrained >= 0) return node->count_constrained;
  node->count_constrained = 0;  // guards (graph is acyclic)
  double total = 0;
  for (const auto& impl : node->impls) {
    if (impl->is_leaf()) {
      total += 1;
      continue;
    }
    double p = 1;
    for (SpecNode* child : impl->children) {
      p *= count_constrained(child);
    }
    total += p;
  }
  node->count_constrained = total;
  return total;
}

double DesignSpace::count_unconstrained(SpecNode* node) {
  if (node->count_unconstrained >= 0) return node->count_unconstrained;
  node->count_unconstrained = 0;
  double total = 0;
  for (const auto& impl : node->impls) {
    if (impl->is_leaf()) {
      total += 1;
      continue;
    }
    double p = 1;
    for (const Instance& inst : impl->tmpl->instances()) {
      for (SpecNode* child : impl->children) {
        if (child->spec == inst.spec) {
          p *= count_unconstrained(child);
          break;
        }
      }
    }
    total += p;
  }
  node->count_unconstrained = total;
  return total;
}

}  // namespace bridge::dtas
