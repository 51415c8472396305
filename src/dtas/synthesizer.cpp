#include "dtas/synthesizer.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "base/diag.h"
#include "base/fault.h"
#include "base/strutil.h"
#include "lint/lint.h"
#include "lola/lola.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bridge::dtas {

using genus::ComponentSpec;
using genus::Kind;
using genus::PortDir;
using genus::PortSpec;
using netlist::Design;
using netlist::Instance;
using netlist::Module;
using netlist::PortConn;
using netlist::RefKind;

namespace {

std::string sanitize(const std::string& s) { return sanitize_identifier(s); }

/// Resets and owns one synthesize call's obs::Profile: phases are added by
/// PhaseTimer scopes; the destructor fills in this-call counter deltas
/// from the space / extraction-cache stats captured at construction. The
/// counter names intentionally match the registry's dotted names minus
/// the "dtas." prefix, so a profile reconciles against a registry
/// snapshot diff by direct name comparison.
class ProfileScope {
 public:
  ProfileScope(obs::Profile& out, std::string name, const DesignSpace& space,
               const ExtractionCache& cache)
      : out_(out),
        space_(space),
        cache_(cache),
        space_before_(space.stats()),
        cache_before_(cache.stats()) {
    out_ = obs::Profile{};
    out_.name = std::move(name);
  }
  ~ProfileScope() {
    const SpaceStats& s = space_.stats();
    const SpaceStats& b = space_before_;
    out_.add_counter("expand.spec_nodes", s.spec_nodes - b.spec_nodes);
    out_.add_counter("expand.impl_nodes", s.impl_nodes - b.impl_nodes);
    out_.add_counter("expand.rule_applications",
                     s.rule_applications - b.rule_applications);
    out_.add_counter("expand.template_cache.hits",
                     s.template_cache_hits - b.template_cache_hits);
    out_.add_counter("expand.template_cache.misses",
                     s.template_cache_misses - b.template_cache_misses);
    out_.add_counter("evaluate.combinations.evaluated",
                     s.combinations_evaluated - b.combinations_evaluated);
    out_.add_counter("evaluate.combinations.pruned",
                     s.combinations_pruned - b.combinations_pruned);
    out_.add_counter("evaluate.combinations.skipped",
                     s.combinations_skipped - b.combinations_skipped);
    out_.add_counter("evaluate.block_tests", s.block_tests - b.block_tests);
    out_.add_counter("evaluate.odometer.parallel_runs",
                     s.parallel_odometers - b.parallel_odometers);
    out_.add_counter("evaluate.odometer.shards",
                     s.odometer_shards - b.odometer_shards);
    const ExtractionCache::Stats& c = cache_.stats();
    out_.add_counter("extract.extraction_cache.hits",
                     c.hits - cache_before_.hits);
    out_.add_counter("extract.extraction_cache.misses",
                     c.misses - cache_before_.misses);
  }
  obs::Profile& profile() { return out_; }

 private:
  obs::Profile& out_;
  const DesignSpace& space_;
  const ExtractionCache& cache_;
  SpaceStats space_before_;
  ExtractionCache::Stats cache_before_;
};

/// SpaceOptions::verify_designs: run the structural linter over each
/// extracted design and refuse to return one that fails. The linter is
/// read-only, so fronts, descriptions, and VHDL are byte-identical with
/// the gate on or off — it can only turn a bad front into an exception.
void verify_or_throw(const std::vector<AlternativeDesign>& designs,
                     lint::Cache& cache) {
  for (const AlternativeDesign& d : designs) {
    const std::vector<lint::Diagnostic> diags =
        lint::lint_design(*d.design, cache);
    if (lint::has_errors(diags)) {
      throw Error("post-extraction verification failed for '" +
                  d.design->name() + "':\n" + lint::render(diags));
    }
  }
}

/// Adds one wall-clock phase entry to a profile on scope exit.
class PhaseTimer {
 public:
  PhaseTimer(obs::Profile& profile, const char* name)
      : profile_(profile),
        name_(name),
        start_(std::chrono::steady_clock::now()) {}
  /// Record the phase now instead of at scope exit (idempotent) — lets
  /// "extract" stop before the "verify" phase opens, so the two are
  /// disjoint in the profile instead of verify nesting inside extract.
  void finish() {
    if (name_ == nullptr) return;
    profile_.add_phase(name_,
                       std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
    name_ = nullptr;
  }
  ~PhaseTimer() { finish(); }

 private:
  obs::Profile& profile_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

/// Materializes chosen alternatives into hierarchical modules. Each
/// distinct (node, alternative) subtree is built once per session as an
/// immutable shared module in the ExtractionCache and merely *registered*
/// with every further design that needs it. Module names come from the
/// session table in ExtractionCache.
class Extractor {
 public:
  Extractor(Design& out, ExtractionCache& cache) : out_(out), cache_(cache) {}

  /// Module implementing (node, alt), registered with the design (along
  /// with its transitive children). Only valid for decomposition alts.
  const Module* materialize(const SpecNode* node, int alt_index) {
    const auto key = std::make_pair(node, alt_index);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;

    std::shared_ptr<const Module> shared = shared_module(node, alt_index);
    const Module* raw = shared.get();
    out_.reference_module(std::move(shared));
    memo_[key] = raw;
    // Register the subtree's decomposition children with the design in
    // pre-order (the emitters walk module_order(), so the order is part
    // of the contract).
    for_each_decomp_child(node, alt_index,
                          [this](const SpecNode* child, int child_alt) {
                            materialize(child, child_alt);
                          });
    return raw;
  }

  /// Create the instance in `mod` implementing template instance `ti`
  /// with the chosen (child, alt). Child modules are materialized into
  /// (registered with) the design.
  Instance& bind_instance(Module& mod, const Instance& ti,
                          const SpecNode* child, int child_alt) {
    return bind(mod, ti, child, child_alt, /*children=*/nullptr);
  }

 private:
  /// Build the body of the module implementing (node, alt) from its
  /// implementation template; `children` collects the shared modules its
  /// instances point at.
  void fill(Module& mod, const SpecNode* node, int alt_index,
            std::vector<std::shared_ptr<const Module>>& children) {
    // Probe before any of `mod` is built: an injected throw here models
    // a mid-extraction failure, and the unwind must discard the partial
    // module without publishing it (inserts happen only after a
    // complete fill).
    base::FaultInjector::global().probe("dtas.extract.materialize");
    const Alternative& alt = node->alts.at(alt_index);
    const ImplNode* impl = node->impls.at(alt.impl_index).get();
    BRIDGE_CHECK(!impl->is_leaf(), "materialize called on a leaf alt");
    const Module& tmpl = *impl->tmpl;
    for (const auto& p : tmpl.module_ports()) {
      mod.add_port(p.name, p.dir, p.width);
    }
    for (const auto& n : tmpl.nets()) {
      if (mod.find_net(n.name) == netlist::kNoNet) {
        mod.add_net(n.name, n.width);
      }
    }
    // Which distinct child (and which of its alternatives) implements each
    // template instance is pre-resolved in the compiled plan.
    const std::vector<int>& inst_child = impl->plan->instance_child();
    int ti_index = 0;
    for (const Instance& ti : tmpl.instances()) {
      const int child_index = inst_child.at(ti_index++);
      const SpecNode* child = impl->children[child_index];
      const int child_alt = alt.child_alt.at(child_index);
      bind(mod, ti, child, child_alt, &children);
    }
  }

  /// Shared immutable module for (node, alt): served from the cache, or
  /// built (bottom-up through the cache, never touching the design) and
  /// published on a miss.
  std::shared_ptr<const Module> shared_module(const SpecNode* node,
                                              int alt_index) {
    if (auto m = cache_.find(node, alt_index)) return m;
    auto mod = std::make_shared<Module>(cache_.name_for(node, alt_index));
    // The module holds raw instance pointers into its child modules;
    // `children` keeps each child's shared_ptr alive from the child's
    // own insert (whose budget sweep must not reclaim it) through this
    // insert, where the entry takes them over as subtree pins.
    std::vector<std::shared_ptr<const Module>> children;
    fill(*mod, node, alt_index, children);
    return cache_.insert(node, alt_index, std::move(mod),
                         std::move(children));
  }

  /// Instantiate (child, child_alt) for template instance `ti` in `mod`.
  /// A decomposition child goes into `children` when `mod` is a shared
  /// module under construction, or is registered with the design when
  /// `children` is null (`mod` is the design's own top).
  Instance& bind(Module& mod, const Instance& ti, const SpecNode* child,
                 int child_alt,
                 std::vector<std::shared_ptr<const Module>>* children) {
    const Alternative& calt = child->alts.at(child_alt);
    const ImplNode* cimpl = child->impls.at(calt.impl_index).get();
    if (cimpl->is_leaf()) {
      const cells::Cell& cell = *cimpl->cell;
      Instance& ni = mod.add_cell_instance(ti.name, cell.spec, cell.name);
      // Map cell ports onto the need's ports; copy the template's
      // connections through the binding; apply tie-offs.
      for (const auto& [cell_port, binding] :
           cell_binding(cell.spec, child->spec)) {
        switch (binding.kind) {
          case PortBinding::Kind::kPort: {
            auto it = ti.connections.find(binding.need_port);
            if (it != ti.connections.end()) {
              ni.connections[cell_port] = it->second;
            } else {
              // A matched cell *output* with nothing to drive is legally
              // open; a matched cell *input* with no connection to copy
              // through means the template (or input netlist) dropped a
              // port the cell reads — never silently leave it floating.
              BRIDGE_CHECK(binding.dir == PortDir::kOut,
                           "instance " << ti.name << " of "
                                       << child->spec.key()
                                       << " leaves input port "
                                       << binding.need_port
                                       << " unconnected (cell "
                                       << cell.name << "." << cell_port
                                       << " would float)");
            }
            break;
          }
          case PortBinding::Kind::kConst:
            ni.connections[cell_port] = PortConn::constant(binding.value);
            break;
          case PortBinding::Kind::kOpen:
            break;
        }
      }
      return ni;
    }
    const Module* child_mod;
    if (children != nullptr) {
      std::shared_ptr<const Module> shared = shared_module(child, child_alt);
      child_mod = shared.get();
      children->push_back(std::move(shared));
    } else {
      child_mod = materialize(child, child_alt);
    }
    Instance& ni = mod.add_module_instance(ti.name, child_mod, child->spec);
    ni.connections = ti.connections;
    return ni;
  }

  /// Visit (child, alt) of every decomposition (non-leaf) template
  /// instance of (node, alt), in template-instance order.
  template <class Fn>
  void for_each_decomp_child(const SpecNode* node, int alt_index, Fn&& fn) {
    const Alternative& alt = node->alts.at(alt_index);
    const ImplNode* impl = node->impls.at(alt.impl_index).get();
    const std::vector<int>& inst_child = impl->plan->instance_child();
    const std::size_t count = impl->tmpl->instances().size();
    for (std::size_t ti_index = 0; ti_index < count; ++ti_index) {
      const int child_index = inst_child.at(ti_index);
      const SpecNode* child = impl->children[child_index];
      const int child_alt = alt.child_alt.at(child_index);
      const ImplNode* cimpl =
          child->impls.at(child->alts.at(child_alt).impl_index).get();
      if (!cimpl->is_leaf()) fn(child, child_alt);
    }
  }

  Design& out_;
  ExtractionCache& cache_;
  std::map<std::pair<const SpecNode*, int>, const Module*> memo_;
};

/// Short human-readable trace of a chosen implementation, memoized per
/// (node, alternative, depth) in the session's ExtractionCache. The
/// alternatives of one front share most of their child subtrees, so
/// recomputing the joins per alternative — ~20% of single-spec wall
/// before memoization — repeats the same string assembly over and over;
/// the memo builds each subtree trace once per session.
const std::string& describe(ExtractionCache& cache, const SpecNode* node,
                            int alt_index, int depth) {
  const ExtractionCache::DescribeKey key{cache.node_key(node), alt_index,
                                         depth};
  if (const std::string* hit = cache.find_describe(key)) return *hit;
  const Alternative& alt = node->alts.at(alt_index);
  const ImplNode* impl = node->impls.at(alt.impl_index).get();
  std::string s;
  if (impl->is_leaf()) {
    s = impl->cell->name;
  } else {
    s = impl->rule_name;
    if (depth > 0 && !impl->children.empty()) {
      std::vector<std::string> parts;
      for (size_t c = 0; c < impl->children.size(); ++c) {
        const SpecNode* child = impl->children[c];
        // Only describe "interesting" children (skip SSI gate fodder).
        if (child->spec.kind == Kind::kGate) continue;
        parts.push_back(genus::kind_name(child->spec.kind) + ":" +
                        describe(cache, child, alt.child_alt[c], depth - 1));
      }
      if (!parts.empty()) s += " (" + join(parts, ", ") + ")";
    }
  }
  return cache.memoize_describe(key, std::move(s));
}

/// Registry mirrors of the extraction-cache lifecycle counters. The
/// bytes gauge aggregates across every live ExtractionCache in the
/// process (each adds its deltas and subtracts its residue on
/// destruction), matching how the template-cache gauge reads: resident
/// cache bytes process-wide.
struct ExtractionCacheMetrics {
  obs::Counter& hits = obs::Registry::global().counter(
      "dtas.extract.extraction_cache.hits");
  obs::Counter& misses = obs::Registry::global().counter(
      "dtas.extract.extraction_cache.misses");
  obs::Counter& evictions = obs::Registry::global().counter(
      "dtas.extract.extraction_cache.evictions");
  obs::Gauge& bytes = obs::Registry::global().gauge(
      "dtas.extract.extraction_cache.bytes");

  static ExtractionCacheMetrics& get() {
    static ExtractionCacheMetrics m;
    return m;
  }
};

}  // namespace

ExtractionCache::ExtractionCache() {
  const long env = cache_budget_from_env();
  if (env > 0) budget_ = static_cast<std::size_t>(env);
}

ExtractionCache::~ExtractionCache() {
  ExtractionCacheMetrics::get().bytes.add(-static_cast<long>(bytes_));
}

void ExtractionCache::set_budget_bytes(std::size_t budget) {
  budget_ = budget;
  evict_to_budget();
}

void ExtractionCache::evict_to_budget() {
  if (budget_ == 0) return;
  while (bytes_ > budget_) {
    // LRU among modules only this cache references: use_count > 1 means
    // some live Design (or an extraction in flight) still points at the
    // module, and evicting it would only move memory from the cache to
    // the design — the sharing is the point, so those are pinned.
    auto victim = modules_.end();
    for (auto it = modules_.begin(); it != modules_.end(); ++it) {
      if (it->second.module.use_count() > 1) continue;
      if (victim == modules_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == modules_.end()) break;  // everything left is pinned
    bytes_ -= victim->second.bytes;
    ++stats_.evictions;
    stats_.bytes = static_cast<long>(bytes_);
    ExtractionCacheMetrics& metrics = ExtractionCacheMetrics::get();
    metrics.evictions.add(1);
    metrics.bytes.add(-static_cast<long>(victim->second.bytes));
    modules_.erase(victim);
  }
}

std::uint64_t ExtractionCache::node_key(const SpecNode* node) {
  // slice_fp is 0 only before expansion; extraction always runs on
  // evaluated (hence expanded) nodes, so a zero here is a caller bug.
  BRIDGE_CHECK(node->slice_fp != 0,
               "extraction-cache key requested for unexpanded node "
                   << node->spec.key());
  return node->slice_fp;
}

const std::string& ExtractionCache::name_for(const SpecNode* node,
                                             int alt_index) {
  const Key key{node_key(node), alt_index};
  auto it = names_.find(key);
  if (it != names_.end()) return it->second;
  // Sanitizing the *whole* name (not just the key part) makes it a VHDL
  // basic identifier verbatim — emission's own sanitization is the
  // identity on it — so uniquifying these strings is uniquifying the
  // emitted entity names themselves.
  const std::string base = sanitize_identifier(
      node->spec.key() + "__a" + std::to_string(alt_index));
  return names_.emplace(key, unique_name(base)).first->second;
}

std::string ExtractionCache::unique_name(const std::string& base) {
  int& uses = name_uses_[base];
  ++uses;
  // Distinct spec keys can sanitize to the same identifier; a bare
  // counter suffix keeps every session name (and thus every emitted
  // entity) unique. The suffixed form is itself recorded, so a later
  // literal "X_u1" request cannot collide either.
  if (uses == 1) return base;
  return unique_name(base + "_u" + std::to_string(uses - 1));
}

const std::string* ExtractionCache::find_describe(
    const DescribeKey& key) const {
  auto it = describe_memo_.find(key);
  return it == describe_memo_.end() ? nullptr : &it->second;
}

const std::string& ExtractionCache::memoize_describe(const DescribeKey& key,
                                                     std::string text) {
  return describe_memo_.emplace(key, std::move(text)).first->second;
}

std::shared_ptr<const netlist::Module> ExtractionCache::find(
    const SpecNode* node, int alt_index) {
  auto it = modules_.find(Key{node_key(node), alt_index});
  if (it == modules_.end()) return nullptr;
  it->second.last_use = ++tick_;
  ++stats_.hits;
  ExtractionCacheMetrics::get().hits.add(1);
  return it->second.module;
}

std::shared_ptr<const netlist::Module> ExtractionCache::insert(
    const SpecNode* node, int alt_index,
    std::shared_ptr<const netlist::Module> module,
    std::vector<std::shared_ptr<const netlist::Module>> children) {
  // An armed fault injector throws here, before any mutation: a failed
  // insert must leave no partially-constructed entry behind. (The names_
  // table the module's name came from is insert-order memoized and
  // intentionally survives — the retry re-requests the same name.)
  base::FaultInjector::global().probe("dtas.extraction_cache.insert");
  ++stats_.misses;
  const std::size_t module_bytes = module->approx_footprint_bytes();
  auto [it, inserted] = modules_.emplace(
      Key{node_key(node), alt_index},
      Entry{std::move(module), std::move(children), module_bytes, ++tick_});
  BRIDGE_CHECK(inserted, "duplicate extraction-cache insert for "
                             << node->spec.key() << " alt " << alt_index);
  bytes_ += module_bytes;
  stats_.bytes = static_cast<long>(bytes_);
  ExtractionCacheMetrics& metrics = ExtractionCacheMetrics::get();
  metrics.misses.add(1);
  metrics.bytes.add(static_cast<long>(module_bytes));
  // Keep a strong ref across the sweep: the just-inserted module may be
  // the only unpinned entry, and the caller must receive a live pointer
  // either way.
  std::shared_ptr<const netlist::Module> stored = it->second.module;
  evict_to_budget();
  stats_.bytes = static_cast<long>(bytes_);
  return stored;
}

std::vector<std::pair<base::Symbol, PortBinding>> cell_binding(
    const ComponentSpec& cell_spec, const ComponentSpec& need) {
  BRIDGE_CHECK(genus::spec_implements(cell_spec, need),
               "cell_binding: " << cell_spec.key() << " does not implement "
                                << need.key());
  const auto& cell_ports = genus::spec_ports(cell_spec);
  const auto& need_ports = genus::spec_ports(need);
  std::vector<std::pair<base::Symbol, PortBinding>> out;
  for (const PortSpec& cp : cell_ports) {
    PortBinding b;
    b.dir = cp.dir;
    bool matched = false;
    for (const PortSpec& np : need_ports) {
      if (np.name == cp.name && np.width == cp.width && np.dir == cp.dir) {
        b.kind = PortBinding::Kind::kPort;
        b.need_port = np.name;
        matched = true;
        break;
      }
    }
    if (!matched) {
      static const base::Symbol kEN("EN"), kCEN("CEN"), kMODE("MODE"),
          kCI("CI");
      if (cp.dir == PortDir::kOut) {
        b.kind = PortBinding::Kind::kOpen;
      } else {
        // Data-book tie-offs for extra cell inputs.
        b.kind = PortBinding::Kind::kConst;
        if (cp.name == kEN || cp.name == kCEN) {
          b.value = 1;  // enables are active high
        } else if (cp.name == kMODE) {
          b.value = need.kind == Kind::kSubtractor ? 1 : 0;
        } else if (cp.name == kCI && need.kind == Kind::kSubtractor) {
          b.value = 1;  // raw carry-in of 1 completes two's complement
        } else {
          b.value = 0;  // CI, ASET, ARST, spare data inputs
        }
      }
    }
    out.emplace_back(cp.name, b);
  }
  return out;
}

std::string default_rules_flavor(const cells::CellLibrary& library) {
  return library.name() == "LSI_LGC15" ? "lsi" : "lola";
}

RuleBase default_rules_for(const cells::CellLibrary& library) {
  RuleBase base;
  register_standard_rules(base);
  if (default_rules_flavor(library) == "lsi") {
    // The paper's nine hand-written library-specific rules (§5).
    register_lsi_rules(base);
  } else {
    // Any other data book — built-in TTL, parsed text, or a Liberty
    // import — gets its library-specific rules induced by LOLA (§7), so
    // retargeting needs no per-library code. The call direction follows
    // the paper: "LOLA is invoked when DTAS is presented with a new cell
    // library." (lola also uses dtas rule constructors; both live in the
    // one bridge library, so the mutual use is a deliberate pairing, not
    // a link cycle.)
    lola::induce_rules(library, base);
  }
  return base;
}

Synthesizer::Synthesizer(RuleBase rules, const cells::CellLibrary& library,
                         SpaceOptions options)
    : rules_(std::move(rules)) {
  space_.emplace(rules_, library, options);
  if (options.extraction_cache_budget_bytes >= 0) {
    extract_cache_.set_budget_bytes(
        static_cast<std::size_t>(options.extraction_cache_budget_bytes));
  }
}

Synthesizer::Synthesizer(const cells::CellLibrary& library,
                         SpaceOptions options)
    : Synthesizer(default_rules_for(library), library, options) {}

void Synthesizer::retarget(const cells::CellLibrary& library) {
  retarget(default_rules_for(library), library);
}

void Synthesizer::retarget(RuleBase rules, const cells::CellLibrary& library) {
  const SpaceOptions options = space_->options();
  // Tear down the old space before swapping the rule base it references.
  space_.reset();
  rules_ = std::move(rules);
  space_.emplace(rules_, library, options);
}

std::vector<AlternativeDesign> Synthesizer::synthesize(
    const ComponentSpec& spec) {
  const auto build = [&](const std::vector<SpecNode*>& roots, std::size_t a,
                         const Alternative& alt) {
    const SpecNode* node = roots.front();
    const int index = static_cast<int>(a);
    const ImplNode* impl = node->impls.at(alt.impl_index).get();
    AlternativeDesign d;
    d.description = describe(extract_cache_, node, index, 2);
    d.design = std::make_shared<Design>(sanitize(spec.key()) + "__alt" +
                                        std::to_string(a));
    if (impl->is_leaf()) {
      // Wrap the direct cell match in a module with the spec's ports.
      Module& top = d.design->add_module(
          sanitize(spec.key() + "__direct" + std::to_string(a)));
      for (const PortSpec& p : genus::spec_ports(spec)) {
        top.add_port(p.name, p.dir, p.width);
      }
      Instance& ci =
          top.add_cell_instance("u0", impl->cell->spec, impl->cell->name);
      for (const auto& [cell_port, binding] :
           cell_binding(impl->cell->spec, spec)) {
        switch (binding.kind) {
          case PortBinding::Kind::kPort:
            top.connect(ci, cell_port, top.find_net(binding.need_port));
            break;
          case PortBinding::Kind::kConst:
            top.connect_const(ci, cell_port, binding.value);
            break;
          case PortBinding::Kind::kOpen:
            break;
        }
      }
      d.design->set_top(&top);
    } else {
      Extractor ex(*d.design, extract_cache_);
      d.design->set_top(ex.materialize(node, index));
    }
    return d;
  };
  return run_pipeline("synthesize:" + spec.key(), {&spec},
                      /*netlist_odometer=*/nullptr, build);
}

std::vector<AlternativeDesign> Synthesizer::synthesize_netlist(
    const Module& input) {
  std::vector<const ComponentSpec*> specs;
  for (const Instance& inst : input.instances()) {
    BRIDGE_CHECK(inst.ref == RefKind::kSpec,
                 "synthesize_netlist input must be a netlist of "
                 "specification instances");
    specs.push_back(&inst.spec);
  }
  // Compiled once from the input netlist by the odometer; its
  // instance->child map also drives materialization.
  std::unique_ptr<TimingPlan> plan;
  const auto odometer = [&](const std::vector<SpecNode*>& children) {
    std::vector<const ComponentSpec*> child_specs;
    child_specs.reserve(children.size());
    for (const SpecNode* c : children) child_specs.push_back(&c->spec);
    plan = std::make_unique<TimingPlan>(TimingPlan::compile(
        input, DesignSpace::topo_order(input), child_specs));

    // Odometer over per-spec choices (uniform across the whole netlist) —
    // the same hot loop as per-implementation evaluation, one level up.
    // The per-spec evaluate() calls opened their own depth-0 "evaluate"
    // spans; this one covers the netlist-level sweep.
    obs::Span eval_span("evaluate", "dtas");
    std::vector<int> limit(children.size());
    for (std::size_t c = 0; c < children.size(); ++c) {
      limit[c] = static_cast<int>(children[c]->alts.size());
    }
    DesignSpace::trim_limits(limit,
                             space_->options().max_combinations_per_impl);
    std::vector<Alternative> candidates;
    ParetoFront front;
    space_->run_plan_odometer(*plan, children, limit, /*impl_index=*/0, front,
                              candidates);
    return space_->filter_alternatives(std::move(candidates));
  };
  const auto build = [&](const std::vector<SpecNode*>& children,
                         std::size_t a, const Alternative& alt) {
    AlternativeDesign d;
    d.design = std::make_shared<Design>(input.name() + "__alt" +
                                        std::to_string(a));
    Module& top = d.design->add_module(
        sanitize(input.name() + "__impl" + std::to_string(a)));
    for (const auto& p : input.module_ports()) {
      top.add_port(p.name, p.dir, p.width);
    }
    for (const auto& nn : input.nets()) {
      if (top.find_net(nn.name) == netlist::kNoNet) {
        top.add_net(nn.name, nn.width);
      }
    }
    Extractor ex(*d.design, extract_cache_);
    int ti_index = 0;
    for (const Instance& ti : input.instances()) {
      const int ci = plan->instance_child().at(ti_index++);
      ex.bind_instance(top, ti, children[ci], alt.child_alt[ci]);
    }
    // The alternatives' per-spec choices overlap heavily, so the memoized
    // child traces are built once instead of once per alternative.
    std::vector<std::string> parts;
    for (std::size_t c = 0; c < children.size(); ++c) {
      parts.push_back(genus::kind_name(children[c]->spec.kind) + ":" +
                      describe(extract_cache_, children[c],
                               alt.child_alt[c], 1));
    }
    d.description = join(parts, "; ");
    d.design->set_top(&top);
    return d;
  };
  return run_pipeline("synthesize_netlist:" + input.name(), specs, odometer,
                      build);
}

std::vector<AlternativeDesign> Synthesizer::run_pipeline(
    std::string profile_name, const std::vector<const ComponentSpec*>& specs,
    const NetlistOdometer& netlist_odometer, const BuildAlternative& build) {
  obs::Span synth_span("synthesize", "dtas");
  ProfileScope prof(profile_, std::move(profile_name), *space_,
                    extract_cache_);
  space_->arm_deadline();
  std::vector<SpecNode*> roots;  // distinct, in first-use order
  {
    PhaseTimer t(prof.profile(), "expand");
    for (const ComponentSpec* spec : specs) {
      SpecNode* node = space_->expand(*spec);
      if (std::find(roots.begin(), roots.end(), node) == roots.end()) {
        roots.push_back(node);
      }
    }
  }
  std::vector<Alternative> kept;
  {
    PhaseTimer t(prof.profile(), "evaluate");
    for (SpecNode* root : roots) {
      space_->evaluate(root);
      if (root->alts.empty()) return {};  // unrealizable
    }
    if (netlist_odometer) kept = netlist_odometer(roots);
  }
  const std::vector<Alternative>& front =
      netlist_odometer ? kept : roots.front()->alts;
  obs::Span extract_span("extract", "dtas");
  PhaseTimer extract_timer(prof.profile(), "extract");
  std::vector<AlternativeDesign> out;
  for (std::size_t a = 0; a < front.size(); ++a) {
    // Best-effort deadline: the alternatives already materialized form a
    // valid (prefix of the) front; throw mode unwinds with nothing
    // published (the caches only ever hold complete entries).
    if (space_->deadline_exceeded()) break;
    const Alternative& alt = front[a];
    AlternativeDesign d = build(roots, a, alt);
    d.metric = alt.metric;
    out.push_back(std::move(d));
  }
  // Stop "extract" before "verify" opens, so the two phases are disjoint.
  extract_timer.finish();
  extract_span.close();
  if (space_->options().verify_designs) {
    obs::Span verify_span("verify", "dtas");
    PhaseTimer t(prof.profile(), "verify");
    verify_or_throw(out, lint_cache_);
  }
  return out;
}

}  // namespace bridge::dtas
