#include "ctrl/control_compiler.h"

#include <algorithm>

#include "base/diag.h"
#include "genus/spec.h"
#include "obs/trace.h"

namespace bridge::ctrl {

using genus::ComponentSpec;
using genus::Op;
using hls::StateRow;
using hls::StateTable;
using hls::Transition;
using netlist::Instance;
using netlist::Module;
using netlist::NetIndex;

namespace {

int clog2(int n) {
  int bits = 0;
  int cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++bits;
  }
  return bits < 1 ? 1 : bits;
}

}  // namespace

ControllerResult compile_control(const StateTable& table) {
  obs::Span span("compile", "ctrl");
  BRIDGE_CHECK(!table.rows.empty(), "empty state table");
  const int nstates = table.state_count();
  const int sbits = clog2(nstates);
  const int nstatus = static_cast<int>(table.status_inputs.size());
  const int nvars = sbits + nstatus;
  BRIDGE_CHECK(nvars <= 20, "controller input space too large for QM");

  for (const auto& [signal, width] : table.control_signals) {
    BRIDGE_CHECK(width >= 1 && width <= 64,
                 "control signal '" << signal << "' is " << width
                                    << " bits wide; the control compiler "
                                       "supports 1 to 64");
  }

  ControllerResult result;
  result.design = netlist::Design("controller");
  result.state_bits = sbits;

  // Encode states; the initial state must be code 0 (ARST target).
  std::vector<const StateRow*> ordered;
  for (const StateRow& r : table.rows) {
    if (r.name == table.initial) ordered.insert(ordered.begin(), &r);
    else ordered.push_back(&r);
  }
  BRIDGE_CHECK(ordered.front()->name == table.initial,
               "initial state '" << table.initial << "' names no row");
  for (size_t i = 0; i < ordered.size(); ++i) {
    const bool fresh =
        result.state_codes
            .emplace(ordered[i]->name, static_cast<std::uint32_t>(i))
            .second;
    BRIDGE_CHECK(fresh, "duplicate state '" << ordered[i]->name << "'");
  }

  // Input variable order: status inputs in bits [0, nstatus), state bits
  // in [nstatus, nstatus+sbits).
  auto input_of = [&](std::uint32_t state_code, std::uint32_t status) {
    return status | (state_code << nstatus);
  };

  // Output functions: next-state bits, then every control signal bit.
  std::vector<ControlFunction>& functions = result.functions;
  for (int b = 0; b < sbits; ++b) {
    functions.push_back(ControlFunction{"", b, {}});
  }
  for (const auto& [signal, width] : table.control_signals) {
    for (int b = 0; b < width; ++b) {
      functions.push_back(ControlFunction{signal, b, {}});
    }
  }
  std::vector<std::vector<std::uint32_t>> on_sets(functions.size());

  // Enumerate the reachable input space.
  std::vector<std::uint32_t> dc_set;  // unused state codes: don't care
  for (std::uint32_t code = nstates; code < (1u << sbits); ++code) {
    for (std::uint32_t status = 0; status < (1u << nstatus); ++status) {
      dc_set.push_back(input_of(code, status));
    }
  }
  // A transition resolved to its status bit (-1 for the default edge) and
  // its successor's code.
  struct Edge {
    int bit;
    bool negate;
    std::uint32_t next;
  };
  std::vector<Edge> edges;
  std::vector<std::uint64_t> values;  // the row's control-signal values
  int minterms = 0;
  for (const StateRow* row : ordered) {
    const std::uint32_t code = result.state_codes.at(row->name);
    edges.clear();
    for (const Transition& t : row->transitions) {
      const auto next_it = result.state_codes.find(t.next);
      BRIDGE_CHECK(next_it != result.state_codes.end(),
                   "state " << row->name << " transitions to unknown state '"
                            << t.next << "'");
      int bit = -1;
      if (!t.status.empty()) {
        auto it = std::find(table.status_inputs.begin(),
                            table.status_inputs.end(), t.status);
        BRIDGE_CHECK(it != table.status_inputs.end(),
                     "unknown status '" << t.status << "'");
        bit = static_cast<int>(it - table.status_inputs.begin());
      }
      edges.push_back(Edge{bit, t.negate, next_it->second});
    }
    values.clear();
    for (const auto& [signal, width] : table.control_signals) {
      auto it = row->asserts.find(signal);
      values.push_back(it == row->asserts.end() ? 0 : it->second);
    }
    for (std::uint32_t status = 0; status < (1u << nstatus); ++status) {
      const std::uint32_t input = input_of(code, status);
      ++minterms;
      // Next state: first matching transition.
      const auto edge =
          std::find_if(edges.begin(), edges.end(), [status](const Edge& e) {
            return e.bit < 0 || (((status >> e.bit) & 1) != 0) != e.negate;
          });
      BRIDGE_CHECK(edge != edges.end(),
                   "state " << row->name << " has no default transition");
      for (int b = 0; b < sbits; ++b) {
        if ((edge->next >> b) & 1) on_sets[b].push_back(input);
      }
      // Moore control outputs.
      int fn = sbits;
      for (size_t k = 0; k < values.size(); ++k) {
        const int width = table.control_signals[k].second;
        for (int b = 0; b < width; ++b, ++fn) {
          if ((values[k] >> b) & 1) on_sets[fn].push_back(input);
        }
      }
    }
  }
  result.minterm_count = minterms;

  // Minimize every output.
  for (size_t fn = 0; fn < functions.size(); ++fn) {
    functions[fn].sop = minimize(nvars, on_sets[fn], dc_set);
    result.implicant_count += static_cast<int>(functions[fn].sop.size());
    for (const Implicant& imp : functions[fn].sop) {
      result.literal_count += imp.literals(nvars);
    }
  }

  // --- build the controller netlist -------------------------------------
  Module& m = result.design.add_module("controller");
  result.design.set_top(&m);
  const NetIndex clk = m.add_port("CLK", genus::PortDir::kIn, 1);
  const NetIndex arst = m.add_port("ARST", genus::PortDir::kIn, 1);
  std::vector<NetIndex> status_nets;
  for (const std::string& s : table.status_inputs) {
    status_nets.push_back(m.add_port(s, genus::PortDir::kIn, 1));
  }
  std::map<std::string, NetIndex> out_ports;
  for (const auto& [signal, width] : table.control_signals) {
    out_ports[signal] = m.add_port(signal, genus::PortDir::kOut, width);
  }

  // State register and its D input.
  const NetIndex state_q = m.add_net("state_q", sbits);
  const NetIndex state_d = m.add_net("state_d", sbits);
  ComponentSpec reg = genus::make_register_spec(sbits, false, true);
  Instance& sreg = m.add_spec_instance("state_reg", reg);
  m.connect(sreg, "D", state_d);
  m.connect(sreg, "CLK", clk);
  m.connect(sreg, "ARST", arst);
  m.connect(sreg, "Q", state_q);

  // Gates are 1 bit wide, so a gate's spec and reference name depend only
  // on its function and fan-in: build each pair once.
  std::map<std::pair<Op, int>, std::pair<ComponentSpec, std::string>> gates;
  auto add_gate = [&](std::string name, Op fn, int fanin) -> Instance& {
    auto it = gates.find({fn, fanin});
    if (it == gates.end()) {
      ComponentSpec spec = genus::make_gate_spec(fn, 1, fanin);
      std::string ref = spec.key();
      it = gates.emplace(std::pair{fn, fanin},
                         std::pair{std::move(spec), std::move(ref)})
               .first;
    }
    return m.add_spec_instance(name, it->second.first, it->second.second);
  };

  // Input literals: (net, bit) for each variable and its complement.
  int fresh = 0;
  auto var_pick = [&](int v) -> std::pair<NetIndex, int> {
    if (v < nstatus) return {status_nets[v], 0};
    return {state_q, v - nstatus};
  };
  std::map<int, NetIndex> inverted;
  auto inv_pick = [&](int v) -> std::pair<NetIndex, int> {
    auto it = inverted.find(v);
    if (it == inverted.end()) {
      auto [net, bit] = var_pick(v);
      Instance& g = add_gate("inv" + std::to_string(fresh++), Op::kLnot, 1);
      m.connect(g, "I0", net, bit);
      NetIndex out = m.add_net("nv" + std::to_string(v), 1);
      m.connect(g, "OUT", out);
      it = inverted.emplace(v, out).first;
    }
    return {it->second, 0};
  };
  auto build_sop = [&](const std::vector<Implicant>& sop, NetIndex dst,
                       int dst_bit) {
    auto drive_const = [&](bool v) {
      Instance& g = add_gate("k" + std::to_string(fresh++), Op::kBuf, 1);
      m.connect_const(g, "I0", v ? 1 : 0);
      m.connect(g, "OUT", dst, dst_bit);
    };
    if (sop.empty()) {
      drive_const(false);
      return;
    }
    std::vector<std::pair<NetIndex, int>> products;
    for (const Implicant& imp : sop) {
      std::vector<std::pair<NetIndex, int>> picks;
      for (int v = 0; v < nvars; ++v) {
        if ((imp.mask >> v) & 1) continue;
        picks.push_back(((imp.value >> v) & 1) ? var_pick(v) : inv_pick(v));
      }
      if (picks.empty()) {
        drive_const(true);  // constant-1 implicant dominates
        return;
      }
      if (picks.size() == 1) {
        products.push_back(picks[0]);
        continue;
      }
      Instance& g = add_gate("and" + std::to_string(fresh++), Op::kAnd,
                             static_cast<int>(picks.size()));
      for (size_t i = 0; i < picks.size(); ++i) {
        m.connect(g, "I" + std::to_string(i), picks[i].first,
                  picks[i].second);
      }
      NetIndex out = m.add_net("p" + std::to_string(fresh++), 1);
      m.connect(g, "OUT", out);
      products.emplace_back(out, 0);
    }
    if (products.size() == 1) {
      Instance& g = add_gate("b" + std::to_string(fresh++), Op::kBuf, 1);
      m.connect(g, "I0", products[0].first, products[0].second);
      m.connect(g, "OUT", dst, dst_bit);
      return;
    }
    Instance& g = add_gate("or" + std::to_string(fresh++), Op::kOr,
                           static_cast<int>(products.size()));
    for (size_t i = 0; i < products.size(); ++i) {
      m.connect(g, "I" + std::to_string(i), products[i].first,
                products[i].second);
    }
    m.connect(g, "OUT", dst, dst_bit);
  };

  for (const ControlFunction& fn : functions) {
    if (fn.port.empty()) {
      build_sop(fn.sop, state_d, fn.bit);
    } else {
      build_sop(fn.sop, out_ports.at(fn.port), fn.bit);
    }
  }
  return result;
}

}  // namespace bridge::ctrl
