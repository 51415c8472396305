// The functional design-space evaluator DTAS used before compiled timing
// plans, kept as a test and bench oracle (make_views and eval_template
// verbatim; the odometer without the library's deadline and
// fault-injection checkpoints, which an oracle does not need). The
// library evaluates only through TimingPlan with bound-and-prune
// (src/dtas/design_space.h); this header re-evaluates the same expanded
// graph the original way — per-combination port views and bit-granular
// arrival buffers, serial, unpruned — through DesignSpace's public API
// alone, so every compiled front can be checked against it exactly:
//  - evaluate(space, root) fills alts / evaluated / dead on an expanded
//    graph, so a later Synthesizer::synthesize extracts from the
//    reference alternatives;
//  - netlist_front(space, input) is the whole-netlist odometer of
//    Synthesizer::synthesize_netlist on those alternatives;
//  - uncacheable(rules) wraps a rule base so that no expansion is served
//    from (or published to) the process-wide TemplateCache.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "base/diag.h"
#include "dtas/design_space.h"
#include "dtas/rule.h"
#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::dtas::reference {

/// Per-instance connection view with resolved port directions, computed
/// once (instance_ports + find_port are too hot to call per edge).
struct InstView {
  bool sequential = false;
  // (port name, conn, width) split by direction.
  std::vector<std::tuple<base::Symbol, netlist::PortConn, int>> ins;
  std::vector<std::tuple<base::Symbol, netlist::PortConn, int>> outs;
};

inline std::vector<InstView> make_views(const netlist::Module& tmpl) {
  std::vector<InstView> views;
  views.reserve(tmpl.instances().size());
  std::vector<genus::PortSpec> storage;
  for (const netlist::Instance& inst : tmpl.instances()) {
    InstView v;
    v.sequential = genus::kind_is_sequential(inst.spec.kind);
    const auto& ports = netlist::Module::instance_ports_ref(inst, storage);
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

/// Evaluate a template's metrics given per-child-spec metrics: area is
/// the sum over instances, delay the longest structural path (sequential
/// instances act as path sources/sinks with their clock-to-q delay).
/// Arrival times are tracked per net *bit*.
inline Metric eval_template(
    const netlist::Module& tmpl, const EvalSchedule& topo,
    const std::function<Metric(const genus::ComponentSpec&)>& child_metric) {
  using netlist::PortConn;
  const auto& insts = tmpl.instances();
  const auto views = make_views(tmpl);
  Metric total;
  double worst_path = 0.0;

  // Arrival time per net bit.
  std::vector<std::vector<double>> arrival(tmpl.nets().size());
  for (size_t nn = 0; nn < tmpl.nets().size(); ++nn) {
    arrival[nn].assign(tmpl.nets()[nn].width, 0.0);
  }

  auto write_port = [&](int i, base::Symbol port, double t) {
    for (const auto& [pname, conn, width] : views[i].outs) {
      if (pname != port || conn.kind != PortConn::Kind::kNet) continue;
      for (int b = 0; b < width; ++b) {
        double& a = arrival[conn.net][conn.lo + b];
        a = std::max(a, t);
      }
    }
  };
  auto in_arrival = [&](int i, const base::Symbol* out_port) {
    double a = 0.0;
    for (const auto& [in_port, conn, width] : views[i].ins) {
      if (conn.kind != PortConn::Kind::kNet) continue;
      if (out_port != nullptr &&
          !genus::output_depends_on(insts[i].spec, *out_port, in_port)) {
        continue;
      }
      const int span = conn.replicate ? 1 : width;
      for (int b = 0; b < span; ++b) {
        a = std::max(a, arrival[conn.net][conn.lo + b]);
      }
    }
    return a;
  };

  // Area, and clock-to-q launch for sequential instances.
  std::vector<int> seq_insts;
  std::vector<double> inst_delay(insts.size(), 0.0);
  for (int i = 0; i < static_cast<int>(insts.size()); ++i) {
    Metric m = child_metric(insts[i].spec);
    total.area += m.area;
    inst_delay[i] = m.delay;
    if (views[i].sequential) {
      seq_insts.push_back(i);
      for (const auto& [pname, conn, width] : views[i].outs) {
        (void)conn;
        (void)width;
        write_port(i, pname, m.delay);
      }
      worst_path = std::max(worst_path, m.delay);
    }
  }
  for (const EvalStep& step : topo) {
    double t = in_arrival(step.instance, &step.port) +
               inst_delay[step.instance];
    write_port(step.instance, step.port, t);
    worst_path = std::max(worst_path, t);
  }
  // Paths terminating at sequential inputs (register setup).
  for (int i : seq_insts) {
    worst_path = std::max(worst_path, in_arrival(i, nullptr));
  }
  total.delay = worst_path;
  return total;
}

/// The serial, unpruned odometer over one child-alternative choice per
/// entry of `children` (bounded by `limit`), every combination timed by
/// eval_template. Appends every combination with the given impl index, in
/// enumeration order, and returns how many it evaluated.
inline long run_odometer(const netlist::Module& tmpl, const EvalSchedule& topo,
                         const std::vector<SpecNode*>& children,
                         const std::vector<int>& limit, int impl_index,
                         std::vector<Alternative>& candidates) {
  long evaluated = 0;
  const int n = static_cast<int>(children.size());
  std::vector<int> choice(n, 0);
  for (;;) {
    auto metric_of = [&](const genus::ComponentSpec& spec) -> Metric {
      for (int c = 0; c < n; ++c) {
        if (children[c]->spec == spec) {
          return children[c]->alts[choice[c]].metric;
        }
      }
      throw Error("template child spec not found: " + spec.key());
    };
    Alternative alt;
    alt.impl_index = impl_index;
    alt.child_alt = choice;
    alt.metric = eval_template(tmpl, topo, metric_of);
    ++evaluated;
    candidates.push_back(std::move(alt));

    int c = 0;
    while (c < n && ++choice[c] >= limit[c]) {
      choice[c] = 0;
      ++c;
    }
    if (c == n) break;
  }
  return evaluated;
}

/// The topological schedule of a rule template, computed once per template
/// per process. The library compiles each template's schedule into its
/// TimingPlan and drops it; templates are shared across design spaces
/// through the TemplateCache, so memoizing here keeps the reference's
/// per-template work what it was when ImplNode still carried the schedule.
/// Keyed by owner: the weak_ptr key keeps the template's control block
/// alive, so a key can never be reused by a different template even after
/// the template itself is gone. Entries live for the process; they are
/// bounded by the templates the reference ever evaluated.
inline std::shared_ptr<const EvalSchedule> schedule_of(
    const std::shared_ptr<const netlist::Module>& tmpl) {
  static std::mutex mu;
  static std::map<std::weak_ptr<const netlist::Module>,
                  std::shared_ptr<const EvalSchedule>, std::owner_less<>>
      memo;
  std::lock_guard<std::mutex> lock(mu);
  auto it = memo.find(tmpl);
  if (it != memo.end()) return it->second;
  auto schedule = std::make_shared<const EvalSchedule>(
      DesignSpace::topo_order(*tmpl));
  memo.emplace(tmpl, schedule);
  return schedule;
}

/// Evaluate `node` bottom-up on the reference evaluator: the serial
/// recursion of DesignSpace::evaluate (children first, an implementation
/// with an unrealizable child marked dead, per-implementation limits
/// trimmed to max_combinations_per_impl, the space's filter applied), with
/// every odometer on run_odometer. Sets alts, evaluated and dead exactly
/// as the library would, so the space's own evaluate() treats the node as
/// done. Returns the combinations evaluated (0 for an already-evaluated
/// node) — with pruning off that is every combination enumerated.
inline long evaluate(DesignSpace& space, SpecNode* node) {
  if (node->evaluated) return 0;
  node->evaluated = true;  // set first: graph is acyclic by construction
  long evaluated = 0;
  std::vector<Alternative> candidates;
  for (size_t ii = 0; ii < node->impls.size(); ++ii) {
    ImplNode* impl = node->impls[ii].get();
    if (impl->is_leaf()) {
      Alternative alt;
      alt.impl_index = static_cast<int>(ii);
      alt.metric = Metric{impl->cell->area, impl->cell->delay_ns};
      candidates.push_back(std::move(alt));
      continue;
    }
    bool viable = true;
    for (SpecNode* child : impl->children) {
      evaluated += evaluate(space, child);
      if (child->alts.empty()) {
        viable = false;
        break;
      }
    }
    if (!viable) {
      impl->dead = true;
      continue;
    }
    const int nchildren = static_cast<int>(impl->children.size());
    std::vector<int> limit(nchildren);
    for (int c = 0; c < nchildren; ++c) {
      limit[c] = static_cast<int>(impl->children[c]->alts.size());
    }
    DesignSpace::trim_limits(limit, space.options().max_combinations_per_impl);
    evaluated += run_odometer(*impl->tmpl, *schedule_of(impl->tmpl),
                              impl->children, limit, static_cast<int>(ii),
                              candidates);
  }
  node->alts = space.filter_alternatives(std::move(candidates));
  return evaluated;
}

/// The distinct specification nodes of a netlist of spec instances, in
/// first-use order — the roots Synthesizer::synthesize_netlist expands.
inline std::vector<SpecNode*> netlist_roots(DesignSpace& space,
                                            const netlist::Module& input) {
  std::vector<SpecNode*> roots;
  for (const netlist::Instance& inst : input.instances()) {
    SpecNode* node = space.expand(inst.spec);
    if (std::find(roots.begin(), roots.end(), node) == roots.end()) {
      roots.push_back(node);
    }
  }
  return roots;
}

/// Per-root alternative limits of the whole-netlist odometer, capped to
/// max_combinations_per_impl as synthesize_netlist caps them.
inline std::vector<int> netlist_limits(const DesignSpace& space,
                                       const std::vector<SpecNode*>& roots) {
  std::vector<int> limit(roots.size());
  for (std::size_t c = 0; c < roots.size(); ++c) {
    limit[c] = static_cast<int>(roots[c]->alts.size());
  }
  DesignSpace::trim_limits(limit, space.options().max_combinations_per_impl);
  return limit;
}

struct NetlistFront {
  std::vector<SpecNode*> roots;   // distinct instance specs, first-use order
  std::vector<Alternative> alts;  // filtered; child_alt parallel to roots
  long combinations = 0;          // evaluated, per-spec and netlist-level
};

/// The reference counterpart of synthesize_netlist's evaluate phase:
/// expand `input`'s instance specs, evaluate each on the reference
/// evaluator, then run the reference odometer over the whole netlist and
/// filter. Empty alts when some instance spec is unrealizable.
inline NetlistFront netlist_front(DesignSpace& space,
                                  const netlist::Module& input) {
  NetlistFront out;
  out.roots = netlist_roots(space, input);
  for (SpecNode* root : out.roots) {
    out.combinations += evaluate(space, root);
    if (root->alts.empty()) return out;
  }
  std::vector<Alternative> candidates;
  out.combinations += run_odometer(input, DesignSpace::topo_order(input),
                                   out.roots, netlist_limits(space, out.roots),
                                   /*impl_index=*/0, candidates);
  out.alts = space.filter_alternatives(std::move(candidates));
  return out;
}

/// The compiled side of the same comparison: the library's plan odometer
/// (bound-and-prune, sharded at the space's thread count) over the roots
/// of `input` in `space`, which must already be evaluated (e.g. by a
/// synthesize_netlist call on the owning Synthesizer).
inline std::vector<Alternative> compiled_netlist_alternatives(
    DesignSpace& space, const netlist::Module& input) {
  const std::vector<SpecNode*> roots = netlist_roots(space, input);
  std::vector<const genus::ComponentSpec*> child_specs;
  for (const SpecNode* root : roots) {
    BRIDGE_CHECK(root->evaluated, "netlist root not evaluated: "
                                      << root->spec.key());
    child_specs.push_back(&root->spec);
  }
  const TimingPlan plan = TimingPlan::compile(
      input, DesignSpace::topo_order(input), child_specs);
  ParetoFront front;
  std::vector<Alternative> candidates;
  space.run_plan_odometer(plan, roots, netlist_limits(space, roots),
                          /*impl_index=*/0, front, candidates);
  return space.filter_alternatives(std::move(candidates));
}

/// Exact equality of two alternative lists: per alternative, the
/// implementation, the child choices, and both metric doubles bit-for-bit.
inline bool identical(const std::vector<Alternative>& a,
                      const std::vector<Alternative>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Alternative& x, const Alternative& y) {
                      return x.impl_index == y.impl_index &&
                             x.child_alt == y.child_alt &&
                             x.metric.area == y.metric.area &&
                             x.metric.delay == y.metric.delay;
                    });
}

/// A rule that forwards to another but declines the template cache
/// (cacheable() is false), so every expansion re-runs the wrapped rule's
/// expand() and compiles its plan locally. Name, principle, library
/// specificity and slice fingerprint are the wrapped rule's, so the
/// expanded graph — impl order, SpecNode::slice_fp, extraction keys — is
/// the cached one's.
class UncacheableRule final : public Rule {
 public:
  UncacheableRule(std::shared_ptr<const RuleBase> owner, const Rule& inner)
      : Rule(inner.name(), inner.principle(), inner.library_specific()),
        owner_(std::move(owner)),
        inner_(inner) {}

  bool applies(const genus::ComponentSpec& spec,
               const RuleContext& ctx) const override {
    return inner_.applies(spec, ctx);
  }
  std::vector<netlist::Module> expand(const genus::ComponentSpec& spec,
                                      const RuleContext& ctx) const override {
    return inner_.expand(spec, ctx);
  }
  bool cacheable() const override { return false; }
  std::uint64_t slice_fingerprint() const override {
    return inner_.slice_fingerprint();
  }

 private:
  std::shared_ptr<const RuleBase> owner_;  // keeps inner_ alive
  const Rule& inner_;
};

/// `rules`, every rule wrapped in an UncacheableRule: a design space over
/// the result makes no TemplateCache lookups at all.
inline RuleBase uncacheable(RuleBase rules) {
  auto owner = std::make_shared<const RuleBase>(std::move(rules));
  RuleBase out;
  for (const auto& rule : owner->rules()) {
    out.add(std::make_unique<UncacheableRule>(owner, *rule));
  }
  return out;
}

}  // namespace bridge::dtas::reference
