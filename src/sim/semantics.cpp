#include "sim/semantics.h"

#include <algorithm>

#include "base/diag.h"

namespace bridge::sim {

using genus::ComponentSpec;
using genus::Kind;
using genus::Op;
using genus::PortDir;
using genus::PortSpec;

namespace {

BitVec bool_vec(bool b) { return BitVec(1, b ? 1 : 0); }

/// Apply a gate function across the fan-in slots of `v` (bitwise).
BitVec apply_gate(Op fn, const std::vector<BitVec>& v,
                  const std::vector<int>& fan_in) {
  BRIDGE_CHECK(!fan_in.empty(), "gate with no inputs");
  switch (fn) {
    case Op::kLnot:
      return ~v[fan_in[0]];
    case Op::kBuf:
      return v[fan_in[0]];
    case Op::kLimpl:
      BRIDGE_CHECK(fan_in.size() == 2, "LIMPL gate needs 2 inputs");
      return ~v[fan_in[0]] | v[fan_in[1]];
    default:
      break;
  }
  BitVec acc = v[fan_in[0]];
  for (size_t i = 1; i < fan_in.size(); ++i) {
    const BitVec& x = v[fan_in[i]];
    switch (fn) {
      case Op::kAnd:
      case Op::kNand:
        acc = acc & x;
        break;
      case Op::kOr:
      case Op::kNor:
        acc = acc | x;
        break;
      case Op::kXor:
      case Op::kXnor:
        acc = acc ^ x;
        break;
      default:
        throw Error("unsupported gate function " + genus::op_name(fn));
    }
  }
  if (fn == Op::kNand || fn == Op::kNor || fn == Op::kXnor) acc = ~acc;
  return acc;
}

/// Bitwise logic-group operation (ALU logic group, logic unit).
BitVec apply_logic(Op op, const BitVec& a, const BitVec& b) {
  switch (op) {
    case Op::kAnd:
      return a & b;
    case Op::kOr:
      return a | b;
    case Op::kNand:
      return ~(a & b);
    case Op::kNor:
      return ~(a | b);
    case Op::kXor:
      return a ^ b;
    case Op::kXnor:
      return ~(a ^ b);
    case Op::kLnot:
      return ~a;
    case Op::kLimpl:
      return ~a | b;
    case Op::kBuf:
      return a;
    default:
      throw Error("unsupported logic op " + genus::op_name(op));
  }
}

/// Unsigned comparison predicate (comparator outputs, ALU status pins).
bool compare(Op op, const BitVec& a, const BitVec& b) {
  switch (op) {
    case Op::kEq:
      return a == b;
    case Op::kNe:
      return a != b;
    case Op::kLt:
      return a.ult(b);
    case Op::kGt:
      return a.ugt(b);
    case Op::kLe:
      return !a.ugt(b);
    case Op::kGe:
      return !a.ult(b);
    case Op::kZerop:
      return a.is_zero();
    default:
      throw Error("unsupported comparator op " + genus::op_name(op));
  }
}

BitVec shift_value(Op op, const BitVec& in, int amount) {
  switch (op) {
    case Op::kShl:
      return in.shl(amount);
    case Op::kShr:
      return in.lshr(amount);
    case Op::kAshr:
      return in.ashr(amount);
    case Op::kRotl:
      return in.rotl(amount);
    case Op::kRotr:
      return in.rotr(amount);
    default:
      throw Error("unsupported shift op " + genus::op_name(op));
  }
}

}  // namespace

const std::array<base::Symbol, Behavior::kPinCount>& Behavior::pin_names() {
  // In Pin order.
  static const std::array<base::Symbol, kPinCount> names = {
      "A",    "B",   "C",     "CI",   "CO",    "D",   "F",    "G",    "P",
      "Q",    "R",   "S",     "GG",   "GP",    "IN",  "EN",   "OE",   "O0",
      "OUT",  "SEL", "AMT",   "MODE", "ASET",  "ARST", "ARESET", "CEN",
      "CLOAD", "CUP", "CDOWN", "WE",  "WA",    "WD",  "RA",   "RD",   "ADDR",
      "DIN",  "DOUT", "PUSH", "POP",  "EMPTY", "FULL", "CLK"};
  return names;
}

Behavior::Behavior(const ComponentSpec& spec)
    : spec_(spec), ports_(&genus::spec_ports(spec)), ops_(spec.ops.to_vector()) {
  pin_.fill(-1);
  const auto& names = pin_names();
  const auto& ports = *ports_;
  for (int i = 0; i < static_cast<int>(ports.size()); ++i) {
    for (int p = 0; p < kPinCount; ++p) {
      if (ports[i].name == names[p]) pin_[p] = i;
    }
  }
  for (int i = 0;; ++i) {
    const base::Symbol name("I" + std::to_string(i));
    auto it = std::find_if(ports.begin(), ports.end(),
                           [&](const PortSpec& p) { return p.name == name; });
    if (it == ports.end()) break;
    fan_in_.push_back(static_cast<int>(it - ports.begin()));
  }
  if (spec.kind == Kind::kComparator || spec.kind == Kind::kAlu) {
    for (Op op : ops_) {
      if (spec.kind == Kind::kAlu && !genus::op_is_compare(op)) continue;
      const PortSpec& p = genus::find_port(ports, genus::op_name(op));
      status_.emplace_back(op, static_cast<int>(&p - ports.data()));
    }
  }
}

/// The ALU/LU/shifter operation selected by F (clamped to the last op).
Op Behavior::selected_op(const std::vector<BitVec>& v) const {
  if (ops_.size() == 1) return ops_[0];
  std::uint64_t f = in(v, kF).to_uint64();
  if (f >= ops_.size()) f = ops_.size() - 1;
  return ops_[f];
}

void Behavior::eval_alu(std::vector<BitVec>& v) const {
  const int w = spec_.width;
  const BitVec& a = in(v, kA);
  const BitVec& b = in(v, kB);
  const bool ci = spec_.carry_in ? bit(v, kCI) : false;
  const Op op = selected_op(v);

  // Internal datapath: one adder/subtractor with a B-operand selector.
  BitVec b_operand(w);
  bool subtract = false;
  switch (op) {
    case Op::kAdd:
      b_operand = b;
      break;
    case Op::kSub:
    case Op::kEq:
    case Op::kLt:
    case Op::kGt:
      b_operand = b;
      subtract = true;
      break;
    case Op::kInc:
      b_operand = BitVec(w, 1);
      break;
    case Op::kDec:
      b_operand = BitVec(w, 1);
      subtract = true;
      break;
    case Op::kZerop:
      b_operand = BitVec(w, 0);
      subtract = true;
      break;
    default:  // logic group: datapath defaults to A + B + CI (74181-style)
      b_operand = b;
      break;
  }
  bool carry = false;
  BitVec datapath = a.add_with_carry(subtract ? ~b_operand : b_operand,
                                     ci, &carry);
  if (genus::op_is_logic(op)) {
    if (op == Op::kBuf) throw Error("unhandled ALU logic op");
    out(v, kOUT) = apply_logic(op, a, b);
  } else {
    out(v, kOUT) = std::move(datapath);
  }
  if (spec_.carry_out) out(v, kCO) = bool_vec(carry);
  for (const auto& [status, slot] : status_) {
    v[slot] = bool_vec(compare(status, a, b));
  }
}

int op_select_code(const ComponentSpec& spec, Op op) {
  const auto ops = spec.ops.to_vector();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] == op) return static_cast<int>(i);
  }
  throw Error("op " + genus::op_name(op) + " not in spec " + spec.key());
}

void Behavior::eval(std::vector<BitVec>& v) const {
  const int w = spec_.width;
  switch (spec_.kind) {
    case Kind::kGate:
      out(v, kOUT) = apply_gate(ops_.at(0), v, fan_in_);
      break;
    case Kind::kLogicUnit:
      out(v, kOUT) = apply_logic(selected_op(v), in(v, kA), in(v, kB));
      break;
    case Kind::kMux: {
      std::uint64_t sel = in(v, kSEL).to_uint64();
      sel = std::min<std::uint64_t>(sel, spec_.size - 1);
      out(v, kOUT) = v[fan_in_.at(sel)];
      break;
    }
    case Kind::kSelector: {
      // One-hot select: OR of selected inputs (wired-or of enabled buffers).
      const BitVec& sel = in(v, kSEL);
      BitVec acc(w);
      for (int i = 0; i < spec_.size; ++i) {
        if (sel.bit(i)) acc = acc | v[fan_in_[i]];
      }
      out(v, kOUT) = std::move(acc);
      break;
    }
    case Kind::kDecoder: {
      const std::uint64_t x = in(v, kIN).to_uint64();
      const bool en = spec_.enable ? bit(v, kEN) : true;
      BitVec o(spec_.size);
      if (en && x < static_cast<std::uint64_t>(spec_.size)) {
        o.set_bit(static_cast<int>(x), true);
      }
      out(v, kOUT) = std::move(o);
      break;
    }
    case Kind::kEncoder: {
      // Priority encoder: index of the highest asserted input (0 if none).
      const BitVec& x = in(v, kIN);
      int idx = 0;
      for (int i = spec_.size - 1; i >= 0; --i) {
        if (x.bit(i)) {
          idx = i;
          break;
        }
      }
      out(v, kOUT) = BitVec(w, static_cast<std::uint64_t>(idx));
      break;
    }
    case Kind::kComparator:
      for (const auto& [op, slot] : status_) {
        v[slot] = bool_vec(compare(op, in(v, kA), in(v, kB)));
      }
      break;
    case Kind::kAlu:
      eval_alu(v);
      break;
    case Kind::kShifter:
      out(v, kOUT) = shift_value(selected_op(v), in(v, kIN), 1);
      break;
    case Kind::kBarrelShifter: {
      const int amt = static_cast<int>(in(v, kAMT).to_uint64());
      out(v, kOUT) = shift_value(selected_op(v), in(v, kIN), amt);
      break;
    }
    case Kind::kMultiplier:
      out(v, kP) = in(v, kA).mul(in(v, kB), w + spec_.size);
      break;
    case Kind::kDivider: {
      const int n = std::max(w, spec_.size);
      const BitVec a = in(v, kA).zext(n);
      const BitVec b = in(v, kB).zext(n);
      if (b.is_zero()) {
        out(v, kQ) = BitVec::ones(w);
        out(v, kR) = in(v, kA).zext(spec_.size);
      } else {
        out(v, kQ) = a.udiv(b).zext(w);
        out(v, kR) = a.urem(b).zext(spec_.size);
      }
      break;
    }
    case Kind::kAdder: {
      const bool ci = spec_.carry_in ? bit(v, kCI) : false;
      bool carry = false;
      out(v, kS) = in(v, kA).add_with_carry(in(v, kB), ci, &carry);
      if (spec_.carry_out) out(v, kCO) = bool_vec(carry);
      break;
    }
    case Kind::kSubtractor: {
      // S = A - B - CI (borrow in); CO is the borrow out.
      const bool bi = spec_.carry_in ? bit(v, kCI) : false;
      bool carry = false;
      out(v, kS) = in(v, kA).add_with_carry(~in(v, kB), !bi, &carry);
      if (spec_.carry_out) out(v, kCO) = bool_vec(!carry);
      break;
    }
    case Kind::kAddSub: {
      // Raw datapath: S = A + (MODE ? ~B : B) + CI, CO = raw carry.
      const BitVec& b = in(v, kB);
      const bool ci = spec_.carry_in ? bit(v, kCI) : false;
      bool carry = false;
      out(v, kS) = in(v, kA).add_with_carry(bit(v, kMODE) ? ~b : b, ci, &carry);
      if (spec_.carry_out) out(v, kCO) = bool_vec(carry);
      break;
    }
    case Kind::kCarryLookahead: {
      const int k = spec_.size > 0 ? spec_.size : 4;
      const BitVec& pvec = in(v, kP);
      const BitVec& gvec = in(v, kG);
      bool carry = bit(v, kCI);
      BitVec c(k);
      bool gp = true;
      bool gg = false;
      for (int i = 0; i < k; ++i) {
        carry = gvec.bit(i) || (pvec.bit(i) && carry);
        c.set_bit(i, carry);
        gg = gvec.bit(i) || (pvec.bit(i) && gg);
        gp = gp && pvec.bit(i);
      }
      out(v, kC) = std::move(c);
      out(v, kGP) = bool_vec(gp);
      out(v, kGG) = bool_vec(gg);
      break;
    }
    case Kind::kPort:
    case Kind::kBuffer:
    case Kind::kClockDriver:
    case Kind::kSchmittTrigger:
    case Kind::kDelay:
      out(v, kOUT) = in(v, kIN);
      break;
    case Kind::kTristate:
      out(v, kOUT) = bit(v, kOE) ? in(v, kIN) : BitVec(w);
      break;
    case Kind::kWiredOr:
    case Kind::kBus: {
      BitVec acc(w);
      for (int slot : fan_in_) acc = acc | v[slot];
      out(v, kOUT) = std::move(acc);
      break;
    }
    case Kind::kConcat:
      out(v, kOUT) = BitVec::concat(v[fan_in_[0]], v[fan_in_[1]]);
      break;
    case Kind::kExtract:
      out(v, kOUT) = in(v, kIN).slice(0, spec_.size > 0 ? spec_.size : 1);
      break;
    case Kind::kClockGenerator:
      out(v, kCLK) = BitVec(1);
      break;
    default:
      throw Error("eval_combinational on sequential spec " + spec_.key());
  }
}

void Behavior::outputs(const SeqState& state, std::vector<BitVec>& v) const {
  switch (spec_.kind) {
    case Kind::kRegister:
    case Kind::kFlipFlop:
      out(v, kQ) = state.value;
      break;
    case Kind::kCounter:
      out(v, kO0) = state.value;
      break;
    case Kind::kRegisterFile: {
      const std::uint64_t ra = in(v, kRA).to_uint64();
      out(v, kRD) = ra < state.words.size() ? state.words[ra]
                                            : BitVec(spec_.width);
      break;
    }
    case Kind::kMemory: {
      const std::uint64_t addr = in(v, kADDR).to_uint64();
      out(v, kDOUT) = addr < state.words.size() ? state.words[addr]
                                                : BitVec(spec_.width);
      break;
    }
    case Kind::kStack:
    case Kind::kFifo: {
      const int top = spec_.kind == Kind::kStack ? state.count - 1 : state.head;
      out(v, kDOUT) = state.count > 0 ? state.words[top] : BitVec(spec_.width);
      out(v, kEMPTY) = bool_vec(state.count == 0);
      out(v, kFULL) =
          bool_vec(state.count == static_cast<int>(state.words.size()));
      break;
    }
    default:
      throw Error("seq_outputs on combinational spec " + spec_.key());
  }
}

void Behavior::step(SeqState& state, const std::vector<BitVec>& v) const {
  switch (spec_.kind) {
    case Kind::kRegister:
    case Kind::kFlipFlop: {
      if (spec_.async_set && bit(v, kASET)) {
        state.value = BitVec::ones(spec_.width);
        return;
      }
      if (spec_.async_reset && bit(v, kARST)) {
        state.value = BitVec(spec_.width);
        return;
      }
      const bool en = spec_.enable ? bit(v, kEN) : true;
      if (en) state.value = in(v, kD);
      break;
    }
    case Kind::kCounter: {
      if (spec_.async_set && bit(v, kASET)) {
        state.value = BitVec::ones(spec_.width);
        return;
      }
      if (spec_.async_reset && bit(v, kARESET)) {
        state.value = BitVec(spec_.width);
        return;
      }
      const bool en = spec_.enable ? bit(v, kCEN) : true;
      if (!en) return;
      if (spec_.ops.contains(Op::kLoad) && bit(v, kCLOAD)) {
        state.value = v[fan_in_[0]];
      } else if (spec_.ops.contains(Op::kCountUp) && bit(v, kCUP)) {
        state.value = state.value + BitVec(spec_.width, 1);
      } else if (spec_.ops.contains(Op::kCountDown) && bit(v, kCDOWN)) {
        state.value = state.value - BitVec(spec_.width, 1);
      }
      break;
    }
    case Kind::kRegisterFile: {
      if (bit(v, kWE)) {
        const std::uint64_t wa = in(v, kWA).to_uint64();
        if (wa < state.words.size()) state.words[wa] = in(v, kWD);
      }
      break;
    }
    case Kind::kMemory: {
      if (bit(v, kWE)) {
        const std::uint64_t addr = in(v, kADDR).to_uint64();
        if (addr < state.words.size()) state.words[addr] = in(v, kDIN);
      }
      break;
    }
    case Kind::kStack: {
      const bool push = bit(v, kPUSH);
      const bool pop = bit(v, kPOP);
      if (push && state.count < static_cast<int>(state.words.size())) {
        state.words[state.count++] = in(v, kDIN);
      } else if (pop && state.count > 0) {
        --state.count;
      }
      break;
    }
    case Kind::kFifo: {
      const bool push = bit(v, kPUSH);
      const bool pop = bit(v, kPOP);
      const int n = static_cast<int>(state.words.size());
      if (push && state.count < n) {
        state.words[(state.head + state.count) % n] = in(v, kDIN);
        ++state.count;
      } else if (pop && state.count > 0) {
        state.head = (state.head + 1) % n;
        --state.count;
      }
      break;
    }
    default:
      throw Error("seq_step on combinational spec " + spec_.key());
  }
}

namespace {

/// Name-keyed inputs as a port-indexed value vector: missing inputs are
/// zero, mismatched widths are resized to the port width.
std::vector<BitVec> port_values(const Behavior& b, const PortValues& inputs) {
  std::vector<BitVec> v;
  v.reserve(b.ports().size());
  for (const PortSpec& p : b.ports()) {
    auto it = p.dir == PortDir::kIn ? inputs.find(p.name) : inputs.end();
    if (it == inputs.end()) {
      v.emplace_back(p.width);
    } else {
      v.push_back(it->second.width() == p.width ? it->second
                                                : it->second.zext(p.width));
    }
  }
  return v;
}

PortValues output_values(const Behavior& b, const std::vector<BitVec>& v) {
  PortValues out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (b.ports()[i].dir == PortDir::kOut) out[b.ports()[i].name] = v[i];
  }
  return out;
}

}  // namespace

PortValues eval_combinational(const ComponentSpec& spec,
                              const PortValues& inputs) {
  const Behavior b(spec);
  std::vector<BitVec> v = port_values(b, inputs);
  b.eval(v);
  return output_values(b, v);
}

SeqState init_state(const ComponentSpec& spec) {
  SeqState st;
  switch (spec.kind) {
    case Kind::kRegister:
    case Kind::kFlipFlop:
    case Kind::kCounter:
      st.value = BitVec(spec.width);
      break;
    case Kind::kRegisterFile:
    case Kind::kMemory:
    case Kind::kStack:
    case Kind::kFifo:
      st.words.assign(spec.size > 0 ? spec.size : 1, BitVec(spec.width));
      break;
    default:
      throw Error("init_state on combinational spec " + spec.key());
  }
  return st;
}

PortValues seq_outputs(const ComponentSpec& spec, const SeqState& state,
                       const PortValues& inputs) {
  const Behavior b(spec);
  std::vector<BitVec> v = port_values(b, inputs);
  b.outputs(state, v);
  return output_values(b, v);
}

void seq_step(const ComponentSpec& spec, SeqState& state,
              const PortValues& inputs) {
  const Behavior b(spec);
  b.step(state, port_values(b, inputs));
}

}  // namespace bridge::sim
