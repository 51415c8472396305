#include "sim/simulator.h"

#include <algorithm>

#include "base/diag.h"

namespace bridge::sim {

using genus::Kind;
using genus::PortDir;
using genus::PortSpec;
using netlist::Instance;
using netlist::Module;
using netlist::PortConn;
using netlist::RefKind;

namespace {

/// Copy `len` bits of `src` from `src_lo` into `dst` at `dst_lo`, up to 64
/// bits at a time.
void copy_bits(BitVec& dst, int dst_lo, const BitVec& src, int src_lo,
               int len) {
  for (int done = 0; done < len; done += 64) {
    const int n = std::min(64, len - done);
    dst.set_field(dst_lo + done, n, src.field(src_lo + done, n));
  }
}

/// Set `len` bits of `dst` from `lo` to `bit`.
void fill_bits(BitVec& dst, int lo, int len, bool bit) {
  for (int done = 0; done < len; done += 64) {
    dst.set_field(lo + done, std::min(64, len - done), bit ? ~0ULL : 0);
  }
}

bool addressed_kind(Kind k) {
  return k == Kind::kRegisterFile || k == Kind::kMemory ||
         k == Kind::kStack || k == Kind::kFifo;
}

}  // namespace

Simulator::Simulator(const Module& top) {
  // Top-level ports take the first store bits, then flatten.
  PortMap port_map;
  for (const auto& p : top.module_ports()) {
    std::vector<BitRef> refs(p.width);
    top_ports_[p.name] = Port{num_bits_, p.width, p.dir == PortDir::kIn};
    for (BitRef& r : refs) r.index = num_bits_++;
    port_map[p.name] = std::move(refs);
  }
  flatten(top, top.name(), port_map);
  store_ = BitVec(std::max(1, num_bits_));
  schedule();
}

void Simulator::flatten(const Module& m, const std::string& path,
                        const PortMap& port_map) {
  // Assign store bits to every net. Port nets alias the caller's bits;
  // every other net gets a fresh contiguous range.
  std::vector<std::vector<BitRef>> net_bits(m.nets().size());
  for (size_t n = 0; n < m.nets().size(); ++n) {
    net_bits[n].resize(m.nets()[n].width);
  }
  for (const auto& p : m.module_ports()) {
    auto it = port_map.find(p.name);
    BRIDGE_CHECK(it != port_map.end(),
                 "module " << m.name() << " port " << p.name << " unbound");
    BRIDGE_CHECK(static_cast<int>(it->second.size()) == p.width,
                 "width mismatch binding " << path << "." << p.name);
    net_bits[p.net] = it->second;
  }
  for (auto& bits : net_bits) {
    for (auto& ref : bits) {
      if (ref.index < 0 && !ref.is_const) ref.index = num_bits_++;
    }
  }

  auto resolve = [&](const Instance& inst, const PortSpec& p)
      -> std::vector<BitRef> {
    std::vector<BitRef> refs(p.width);
    auto it = inst.connections.find(p.name);
    if (it == inst.connections.end()) return refs;  // open/default zero
    const PortConn& c = it->second;
    switch (c.kind) {
      case PortConn::Kind::kOpen:
        return refs;
      case PortConn::Kind::kConst:
        for (int b = 0; b < p.width; ++b) {
          refs[b] = BitRef{-1, b < 64 && ((c.const_value >> b) & 1) != 0,
                           true};
        }
        return refs;
      case PortConn::Kind::kNet: {
        const auto& bits = net_bits[c.net];
        if (c.replicate) {
          BRIDGE_CHECK(c.lo >= 0 && c.lo < static_cast<int>(bits.size()),
                       "replicated bit out of range");
          std::fill(refs.begin(), refs.end(), bits[c.lo]);
          return refs;
        }
        BRIDGE_CHECK(c.lo >= 0 &&
                         c.lo + p.width <= static_cast<int>(bits.size()),
                     "slice out of range on " << path << "/" << inst.name
                                              << "." << p.name);
        std::copy_n(bits.begin() + c.lo, p.width, refs.begin());
        return refs;
      }
    }
    return refs;
  };

  std::vector<PortSpec> storage;
  for (const Instance& inst : m.instances()) {
    const auto& ports = Module::instance_ports_ref(inst, storage);
    if (inst.ref == RefKind::kModule) {
      PortMap child_map;
      for (const PortSpec& p : ports) child_map[p.name] = resolve(inst, p);
      flatten(*inst.module, path + "/" + inst.name, child_map);
      continue;
    }
    std::vector<std::vector<BitRef>> port_refs;
    port_refs.reserve(ports.size());
    for (const PortSpec& p : ports) port_refs.push_back(resolve(inst, p));
    add_leaf(inst, path, port_refs);
  }
}

void Simulator::add_leaf(const Instance& inst, const std::string& path,
                         const std::vector<std::vector<BitRef>>& port_refs) {
  const bool sequential = genus::kind_is_sequential(inst.spec.kind);
  Leaf leaf{Behavior(inst.spec), path + "/" + inst.name, sequential,
            sequential ? init_state(inst.spec) : SeqState{}, {}, {}, {}};
  const auto& ports = leaf.behavior.ports();
  leaf.values.reserve(ports.size());
  for (const PortSpec& p : ports) leaf.values.emplace_back(p.width);
  for (int slot = 0; slot < static_cast<int>(ports.size()); ++slot) {
    const PortSpec& p = ports[slot];
    const bool input = p.dir == PortDir::kIn;
    if (input && p.role == genus::PortRole::kClock) {
      continue;  // single implicit clock domain
    }
    // Compress the per-bit references into runs. Constant and open input
    // bits are written into the value buffer now and never gathered; open
    // output bits are dropped. Inputs fold a repeated bit into one
    // replicated run; outputs keep every write, in bit order.
    const std::vector<BitRef>& refs = port_refs[slot];
    Binding binding{slot, {}};
    for (int b = 0; b < p.width;) {
      const BitRef& r = refs[b];
      int end = b + 1;
      if (r.index < 0) {
        if (input) leaf.values[slot].set_bit(b, r.const_value);
        b = end;
        continue;
      }
      while (input && end < p.width && refs[end].index == r.index) ++end;
      const bool replicate = end - b > 1;
      while (!replicate && end < p.width &&
             refs[end].index == refs[end - 1].index + 1) {
        ++end;
      }
      binding.runs.push_back(Run{r.index, b, end - b, replicate});
      b = end;
    }
    if (binding.runs.empty()) continue;
    (input ? leaf.inputs : leaf.outputs).push_back(std::move(binding));
  }
  leaves_.push_back(std::move(leaf));
}

void Simulator::schedule() {
  // The combinational leaf driving each store bit.
  std::vector<int> leaf_driver(num_bits_, -1);
  for (size_t li = 0; li < leaves_.size(); ++li) {
    if (leaves_[li].sequential) continue;
    for (const Binding& out : leaves_[li].outputs) {
      for (const Run& r : out.runs) {
        std::fill_n(leaf_driver.begin() + r.store, r.len,
                    static_cast<int>(li));
      }
    }
  }
  // Store bits an input binding reads.
  auto for_each_read = [](const Binding& in, auto&& fn) {
    for (const Run& r : in.runs) {
      for (int k = 0; k < (r.replicate ? 1 : r.len); ++k) fn(r.store + k);
    }
  };
  // Units: one per combinational leaf; one per output binding where a
  // structural false path needs it, or where the leaf feeds itself (each
  // output then sees the others' values, as if they were separate leaves).
  std::vector<Unit> units;
  std::vector<int> driver(num_bits_, -1);  // driving unit per store bit
  for (size_t li = 0; li < leaves_.size(); ++li) {
    const Leaf& leaf = leaves_[li];
    if (leaf.sequential) {
      seq_leaves_.push_back(static_cast<int>(li));
      any_addressed_ |= addressed_kind(leaf.behavior.spec().kind);
      continue;
    }
    const auto& ports = leaf.behavior.ports();
    bool split = false;
    for (const Binding& in : leaf.inputs) {
      for (const Binding& out : leaf.outputs) {
        split |= !genus::output_depends_on(
            leaf.behavior.spec(), ports[out.slot].name, ports[in.slot].name);
      }
      for_each_read(in, [&](int bit) {
        split |= leaf_driver[bit] == static_cast<int>(li);
      });
    }
    auto add_unit = [&](int output) {
      const int u = static_cast<int>(units.size());
      units.push_back(Unit{static_cast<int>(li), output});
      for (int o = 0; o < static_cast<int>(leaf.outputs.size()); ++o) {
        if (output >= 0 && o != output) continue;
        for (const Run& r : leaf.outputs[o].runs) {
          std::fill_n(driver.begin() + r.store, r.len, u);
        }
      }
    };
    if (!split) {
      add_unit(-1);
      continue;
    }
    for (int o = 0; o < static_cast<int>(leaf.outputs.size()); ++o) add_unit(o);
  }
  // Dependency edges per unit, honoring structural false paths.
  std::vector<std::vector<int>> succs(units.size());
  std::vector<int> indegree(units.size(), 0);
  for (size_t u = 0; u < units.size(); ++u) {
    const Leaf& leaf = leaves_[units[u].leaf];
    const auto& ports = leaf.behavior.ports();
    std::vector<int> preds;
    for (const Binding& in : leaf.inputs) {
      if (units[u].output >= 0 &&
          !genus::output_depends_on(
              leaf.behavior.spec(),
              ports[leaf.outputs[units[u].output].slot].name,
              ports[in.slot].name)) {
        continue;
      }
      for_each_read(in, [&](int bit) {
        if (driver[bit] >= 0 && driver[bit] != static_cast<int>(u)) {
          preds.push_back(driver[bit]);
        }
      });
    }
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    for (int p : preds) {
      succs[p].push_back(static_cast<int>(u));
      ++indegree[u];
    }
  }
  // Kahn topological order.
  std::vector<int> ready;
  for (size_t u = 0; u < units.size(); ++u) {
    if (indegree[u] == 0) ready.push_back(static_cast<int>(u));
  }
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    comb_order_.push_back(units[u]);
    for (int s : succs[u]) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  if (comb_order_.size() != units.size()) {
    throw Error("combinational cycle detected in netlist");
  }
}

Simulator::Port Simulator::port(const std::string& name) const {
  auto it = top_ports_.find(name);
  BRIDGE_CHECK(it != top_ports_.end(), "no top port '" << name << "'");
  return it->second;
}

void Simulator::set_input(const std::string& name, const BitVec& value) {
  const Port p = port(name);
  BRIDGE_CHECK(p.input, "'" << name << "' is an output");
  BRIDGE_CHECK(value.width() == p.width,
               "width mismatch on input '" << name << "'");
  copy_bits(store_, p.lo, value, 0, p.width);
  dirty_ = true;
}

void Simulator::set_input(Port p, std::uint64_t value) {
  BRIDGE_CHECK(p.input, "set_input on an output port");
  store_.set_field(p.lo, std::min(64, p.width), value);
  if (p.width > 64) fill_bits(store_, p.lo + 64, p.width - 64, false);
  dirty_ = true;
}

void Simulator::gather(Leaf& leaf) {
  for (const Binding& in : leaf.inputs) {
    BitVec& value = leaf.values[in.slot];
    for (const Run& r : in.runs) {
      if (r.replicate) {
        fill_bits(value, r.port, r.len, store_.field(r.store, 1) != 0);
      } else {
        copy_bits(value, r.port, store_, r.store, r.len);
      }
    }
  }
}

void Simulator::scatter(const Leaf& leaf, const Binding& out) {
  const BitVec& value = leaf.values[out.slot];
  const PortSpec& p = leaf.behavior.ports()[out.slot];
  BRIDGE_CHECK(value.width() == p.width, "semantics produced a "
                                             << value.width()
                                             << "-bit value for " << leaf.path
                                             << "." << p.name);
  for (const Run& r : out.runs) copy_bits(store_, r.store, value, r.port, r.len);
}

void Simulator::propagate() {
  // Sequential outputs first (they are stable within the cycle)...
  for (int li : seq_leaves_) {
    Leaf& leaf = leaves_[li];
    gather(leaf);
    leaf.behavior.outputs(leaf.state, leaf.values);
    for (const Binding& out : leaf.outputs) scatter(leaf, out);
  }
  // ...then combinational logic in topological order.
  for (const Unit& unit : comb_order_) {
    Leaf& leaf = leaves_[unit.leaf];
    gather(leaf);
    leaf.behavior.eval(leaf.values);
    if (unit.output >= 0) {
      scatter(leaf, leaf.outputs[unit.output]);
    } else {
      for (const Binding& out : leaf.outputs) scatter(leaf, out);
    }
  }
}

void Simulator::eval() {
  if (!dirty_) return;
  propagate();
  // Address-dependent sequential reads (register files, memories) may
  // depend on combinational outputs; refresh them and re-propagate once.
  if (any_addressed_) propagate();
  dirty_ = false;
}

void Simulator::step() {
  eval();
  // Each leaf's step reads only its own gathered inputs and writes only its
  // state, so every leaf updates from the same pre-edge view.
  for (int li : seq_leaves_) {
    Leaf& leaf = leaves_[li];
    gather(leaf);
    leaf.behavior.step(leaf.state, leaf.values);
  }
  dirty_ = true;
}

BitVec Simulator::get(const std::string& name) {
  const Port p = port(name);
  eval();
  BitVec v(p.width);
  copy_bits(v, 0, store_, p.lo, p.width);
  return v;
}

std::uint64_t Simulator::get_uint(Port p) {
  eval();
  return store_.field(p.lo, std::min(64, p.width));
}

PortValues eval_module(const Module& top, const PortValues& inputs) {
  Simulator sim(top);
  for (const auto& [name, value] : inputs) {
    sim.set_input(name, value);
  }
  PortValues out;
  for (const auto& p : top.module_ports()) {
    if (p.dir == PortDir::kOut) out[p.name] = sim.get(p.name);
  }
  return out;
}

}  // namespace bridge::sim
