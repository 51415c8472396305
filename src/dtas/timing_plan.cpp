#include "dtas/timing_plan.h"

#include <algorithm>

#include "base/diag.h"

namespace bridge::dtas {

using genus::ComponentSpec;
using netlist::Instance;
using netlist::Module;
using netlist::PortConn;

namespace {

/// A writer of one net bit: the DAG node that drives it, plus its schedule
/// position (-1 for sequential launches, which the functional evaluator
/// writes before any combinational step runs).
struct BitWriter {
  int node = -1;
  int order = -1;
};

}  // namespace

TimingPlan TimingPlan::compile(
    const Module& tmpl, const EvalSchedule& topo,
    const std::vector<const ComponentSpec*>& child_specs) {
  TimingPlan plan;
  plan.compiled_ = true;
  plan.child_on_path_.assign(child_specs.size(), 0);

  // Global bit index per (net, bit): net_base[net] + bit.
  std::vector<int> net_base(tmpl.nets().size(), 0);
  int num_bits = 0;
  for (size_t n = 0; n < tmpl.nets().size(); ++n) {
    net_base[n] = num_bits;
    num_bits += tmpl.nets()[n].width;
  }

  // Per-instance connection views with resolved directions and widths,
  // computed once here — the whole point is that evaluation never touches
  // port names again.
  struct Conn {
    base::Symbol port;
    PortConn conn;
    int width;
  };
  const auto& insts = tmpl.instances();
  const int n = static_cast<int>(insts.size());
  std::vector<std::vector<Conn>> ins(n), outs(n);
  plan.inst_child_.resize(n);
  for (int i = 0; i < n; ++i) {
    const Instance& inst = insts[i];
    int child = -1;
    for (size_t c = 0; c < child_specs.size(); ++c) {
      if (*child_specs[c] == inst.spec) {
        child = static_cast<int>(c);
        break;
      }
    }
    if (child < 0) {
      throw Error("timing plan: instance spec not a distinct child: " +
                  inst.spec.key());
    }
    plan.inst_child_[i] = child;
    std::vector<genus::PortSpec> storage;
    const auto& ports = Module::instance_ports_ref(inst, storage);
    for (const auto& [port_name, conn] : inst.connections) {
      const genus::PortSpec& p = genus::find_port(ports, port_name);
      Conn c{port_name, conn, p.width};
      (p.dir == genus::PortDir::kIn ? ins[i] : outs[i]).push_back(c);
    }
  }

  // Writers per net bit. Node numbering: sequential launches first, then
  // combinational steps in schedule order.
  std::vector<std::vector<BitWriter>> writers(num_bits);
  std::vector<int> seq_insts;
  for (int i = 0; i < n; ++i) {
    if (genus::kind_is_sequential(insts[i].spec.kind)) seq_insts.push_back(i);
  }
  const int num_seq = static_cast<int>(seq_insts.size());
  for (int s = 0; s < num_seq; ++s) {
    const int i = seq_insts[s];
    for (const Conn& c : outs[i]) {
      if (c.conn.kind != PortConn::Kind::kNet) continue;
      for (int b = 0; b < c.width; ++b) {
        writers[net_base[c.conn.net] + c.conn.lo + b].push_back(
            BitWriter{s, -1});
      }
    }
  }
  for (size_t u = 0; u < topo.size(); ++u) {
    const EvalStep& step = topo[u];
    const int node = num_seq + static_cast<int>(u);
    for (const Conn& c : outs[step.instance]) {
      if (c.port != step.port || c.conn.kind != PortConn::Kind::kNet) {
        continue;
      }
      for (int b = 0; b < c.width; ++b) {
        writers[net_base[c.conn.net] + c.conn.lo + b].push_back(
            BitWriter{node, static_cast<int>(u)});
      }
    }
  }

  // Collect the predecessor nodes feeding a set of input connections:
  // every writer of every selected input bit that has already run by
  // schedule position `before`. This is exactly the set of values the
  // functional evaluator's arrival-buffer read would have observed, so
  // collapsing the bits preserves bit-exact results.
  std::vector<int> scratch;
  auto collect_preds = [&](const std::vector<const Conn*>& conns, int before,
                           int self_node) {
    scratch.clear();
    for (const Conn* c : conns) {
      const int span = c->conn.replicate ? 1 : c->width;
      for (int b = 0; b < span; ++b) {
        for (const BitWriter& w :
             writers[net_base[c->conn.net] + c->conn.lo + b]) {
          if (w.order < before && w.node != self_node) {
            scratch.push_back(w.node);
          }
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    const int begin = static_cast<int>(plan.preds_.size());
    plan.preds_.insert(plan.preds_.end(), scratch.begin(), scratch.end());
    return std::make_pair(begin, static_cast<int>(plan.preds_.size()));
  };

  std::vector<const Conn*> selected;

  for (size_t u = 0; u < topo.size(); ++u) {
    const EvalStep& step = topo[u];
    const Instance& inst = insts[step.instance];
    Step s;
    s.child = plan.inst_child_[step.instance];
    plan.child_on_path_[s.child] = 1;
    selected.clear();
    for (const Conn& c : ins[step.instance]) {
      if (c.conn.kind != PortConn::Kind::kNet) continue;
      if (!genus::output_depends_on(inst.spec, step.port, c.port)) continue;
      selected.push_back(&c);
    }
    const int node = num_seq + static_cast<int>(u);
    std::tie(s.pred_begin, s.pred_end) =
        collect_preds(selected, static_cast<int>(u), node);
    plan.steps_.push_back(s);
  }

  // Sequential instances are path sources only. A path ending at a
  // register input needs no pass of its own: each of its drivers is a
  // launch or a step whose completion time delay() already folds into the
  // worst path.
  for (int i : seq_insts) {
    plan.seq_child_.push_back(plan.inst_child_[i]);
    plan.child_on_path_[plan.inst_child_[i]] = 1;
  }
  return plan;
}

double TimingPlan::delay(const double* child_delay,
                         EvalScratch& scratch) const {
  BRIDGE_CHECK(compiled_, "delay() on an uncompiled timing plan");
  std::vector<double>& times = scratch.times;
  const size_t num_nodes = seq_child_.size() + steps_.size();
  if (times.size() < num_nodes) times.resize(num_nodes);
  double worst = 0.0;
  size_t node = 0;
  for (int child : seq_child_) {
    const double d = child_delay[child];
    times[node++] = d;
    if (d > worst) worst = d;
  }
  for (const Step& s : steps_) {
    double at = 0.0;
    for (int k = s.pred_begin; k < s.pred_end; ++k) {
      const double a = times[preds_[k]];
      if (a > at) at = a;
    }
    const double t = at + child_delay[s.child];
    times[node++] = t;
    if (t > worst) worst = t;
  }
  return worst;
}

}  // namespace bridge::dtas
