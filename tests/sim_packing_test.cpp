// Differential test of the simulator's bit packing.
//
// For every GENUS generator kind and data widths 1-9, 31-33, 63-65 and
// 100, a one-instance module binds each port of the component in one of
// the ways a netlist can: a slice of a wider top-level port at an offset
// that straddles a 64-bit word boundary, one bit replicated across the
// port, a constant tie-off, or left open. sim::Simulator on that module
// must agree, on seeded random stimulus, with the name-keyed semantics
// (eval_combinational, or seq_outputs/seq_step clock by clock) applied to
// the values the bindings deliver; output bits outside an output's slice
// must stay zero.
#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <string>
#include <vector>

#include "base/diag.h"
#include "genus/kind.h"
#include "genus/spec.h"
#include "netlist/netlist.h"
#include "sim/semantics.h"
#include "sim/simulator.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Kind;
using genus::Op;
using genus::OpSet;
using genus::PortDir;
using genus::PortRole;
using genus::PortSpec;

/// A representative specification of `kind` at data width `w`. Kinds whose
/// port widths grow exponentially (decoder, encoder) cap the width at 6.
ComponentSpec spec_for(Kind kind, int w) {
  ComponentSpec s;
  s.kind = kind;
  s.width = w;
  switch (kind) {
    case Kind::kGate: {
      static const Op kFns[] = {Op::kAnd, Op::kOr,   Op::kNand, Op::kNor,
                                Op::kXor, Op::kXnor, Op::kLnot, Op::kBuf};
      return genus::make_gate_spec(kFns[w % 8], w, 3);
    }
    case Kind::kLogicUnit:
      return genus::make_logic_unit_spec(
          w, OpSet{Op::kAnd, Op::kOr, Op::kXor, Op::kLnot, Op::kLimpl});
    case Kind::kMux:
      return genus::make_mux_spec(w, 5);
    case Kind::kSelector:
    case Kind::kWiredOr:
    case Kind::kBus:
      s.size = 3;
      return s;
    case Kind::kDecoder:
      s = genus::make_decoder_spec(std::min(w, 6));
      s.enable = w % 2 == 1;
      return s;
    case Kind::kEncoder:
      return genus::make_encoder_spec(std::min(w, 6));
    case Kind::kComparator:
      return genus::make_comparator_spec(
          w, OpSet{Op::kEq, Op::kNe, Op::kLt, Op::kGt, Op::kLe, Op::kGe,
                   Op::kZerop});
    case Kind::kAlu:
      return genus::make_alu_spec(w, genus::alu16_ops());
    case Kind::kShifter:
      return genus::make_shifter_spec(
          w, OpSet{Op::kShl, Op::kShr, Op::kAshr, Op::kRotl, Op::kRotr});
    case Kind::kBarrelShifter:
      return genus::make_barrel_shifter_spec(
          w, OpSet{Op::kShl, Op::kShr, Op::kAshr, Op::kRotl, Op::kRotr});
    case Kind::kMultiplier:
      return genus::make_multiplier_spec(w, 5);
    case Kind::kDivider:
      s.size = 1 + w % 9;
      s.ops = OpSet{Op::kDiv, Op::kRem};
      return s;
    case Kind::kAdder:
      return genus::make_adder_spec(w);
    case Kind::kSubtractor:
      s = genus::make_subtractor_spec(w);
      s.carry_in = s.carry_out = true;
      return s;
    case Kind::kAddSub:
      return genus::make_addsub_spec(w);
    case Kind::kCarryLookahead:
      s.size = w;
      return s;
    case Kind::kRegister:
    case Kind::kFlipFlop:
      s.ops = OpSet{Op::kLoad};
      s.enable = s.async_set = s.async_reset = true;
      return s;
    case Kind::kCounter:
      s = genus::make_counter_spec(
          w, OpSet{Op::kCountUp, Op::kCountDown, Op::kLoad});
      s.enable = s.async_set = s.async_reset = true;
      return s;
    case Kind::kRegisterFile:
    case Kind::kMemory:
      s.size = 4;
      return s;
    case Kind::kStack:
    case Kind::kFifo:
      s.size = 3;
      s.ops = OpSet{Op::kPush, Op::kPop};
      return s;
    case Kind::kConcat:
      s.size = 1 + w % 5;
      return s;
    case Kind::kExtract:
      s.size = std::max(1, w / 2);
      return s;
    case Kind::kPort:
    case Kind::kBuffer:
    case Kind::kClockDriver:
    case Kind::kSchmittTrigger:
    case Kind::kTristate:
    case Kind::kDelay:
    case Kind::kClockGenerator:
      return s;
  }
  ADD_FAILURE() << "no test specification for kind " << genus::kind_name(kind);
  return s;
}

BitVec random_vec(std::mt19937_64& rng, int width) {
  BitVec v(width);
  for (int b = 0; b < width; b += 64) {
    v.set_field(b, std::min(64, width - b), rng());
  }
  return v;
}

enum class Bind { kSlice, kReplicate, kConst, kOpen };

/// One port of the component and how the harness binds it.
struct Bound {
  PortSpec port;
  Bind bind = Bind::kSlice;
  std::string top;           // top-level port (slice / replicate)
  int lo = 0;                // slice offset in `top`
  std::uint64_t constant = 0;
};

/// The one-instance module and its binding plan. Variant v rotates the
/// binding of port i through slice / replicate / constant / open by
/// (i + v) % 4 (outputs: open or slice) and picks the slice offset.
struct Harness {
  netlist::Module module{"harness"};
  std::vector<Bound> bound;

  Harness(const ComponentSpec& spec, int variant, std::mt19937_64& rng) {
    static const int kOffsets[] = {0, 61, 63, 1};
    const int offset = kOffsets[variant % 4];
    auto& inst = module.add_spec_instance("dut", spec);
    const auto& ports = genus::spec_ports(spec);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      const PortSpec& p = ports[i];
      Bound b;
      b.port = p;
      b.top = "p_" + p.name.str();
      const int rotation = static_cast<int>((i + variant) % 4);
      if (p.role == PortRole::kClock && p.dir == PortDir::kIn) {
        module.connect(inst, p.name, module.add_port("CLK", PortDir::kIn, 1));
        b.bind = Bind::kOpen;  // never read by the semantics
      } else if (p.dir == PortDir::kOut) {
        b.bind = rotation == 3 ? Bind::kOpen : Bind::kSlice;
      } else {
        b.bind = static_cast<Bind>(rotation);
        if (b.bind == Bind::kConst && p.width > 64) b.bind = Bind::kSlice;
      }
      switch (b.bind) {
        case Bind::kSlice: {
          // Spare bits on both sides of the slice.
          b.lo = offset;
          const auto net =
              module.add_port(b.top, p.dir, offset + p.width + 3);
          module.connect(inst, p.name, net, offset);
          break;
        }
        case Bind::kReplicate:
          module.connect_replicated(
              inst, p.name, module.add_port(b.top, PortDir::kIn, 3), 2);
          break;
        case Bind::kConst:
          // Asynchronous set/reset tied low, or the state never moves.
          b.constant = p.role == PortRole::kAsync ? 0 : rng();
          module.connect_const(inst, p.name, b.constant);
          break;
        case Bind::kOpen:
          break;
      }
      bound.push_back(b);
    }
  }

  /// Drive every driven input with fresh random values; returns what the
  /// component sees on each input port (absent: open, i.e. zero).
  sim::PortValues drive(sim::Simulator& s, std::mt19937_64& rng) const {
    sim::PortValues seen;
    for (const Bound& b : bound) {
      if (b.port.dir != PortDir::kIn) continue;
      const int w = b.port.width;
      switch (b.bind) {
        case Bind::kSlice: {
          BitVec v = random_vec(rng, b.lo + w + 3);
          // Asynchronous inputs mostly low, so state actually evolves.
          if (b.port.role == PortRole::kAsync && rng() % 8 != 0) {
            v = BitVec(v.width());
          }
          s.set_input(b.top, v);
          seen[b.port.name] = v.slice(b.lo, w);
          break;
        }
        case Bind::kReplicate: {
          BitVec v = random_vec(rng, 3);
          if (b.port.role == PortRole::kAsync && rng() % 8 != 0) {
            v = BitVec(3);
          }
          s.set_input(b.top, v);
          seen[b.port.name] = v.bit(2) ? BitVec::ones(w) : BitVec(w);
          break;
        }
        case Bind::kConst:
          seen[b.port.name] = BitVec(w, b.constant);
          break;
        case Bind::kOpen:
          break;
      }
    }
    return seen;
  }

  /// Compare every bound output against `want`; bits around the slice
  /// must be zero.
  void check(sim::Simulator& s, const sim::PortValues& want,
             const std::string& context) const {
    for (const Bound& b : bound) {
      if (b.port.dir != PortDir::kOut || b.bind != Bind::kSlice) continue;
      const BitVec got = s.get(b.top);
      const int w = b.port.width;
      ASSERT_EQ(got.slice(b.lo, w), want.at(b.port.name))
          << context << " output " << b.port.name;
      if (b.lo > 0) {
        ASSERT_TRUE(got.slice(0, b.lo).is_zero())
            << context << " output " << b.port.name << " clobbered low bits";
      }
      ASSERT_TRUE(got.slice(b.lo + w, 3).is_zero())
          << context << " output " << b.port.name << " clobbered high bits";
    }
  }
};

constexpr int kTrials = 12;

void check_kind(Kind kind) {
  for (int w : {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100}) {
    const ComponentSpec spec = spec_for(kind, w);
    for (int variant = 0; variant < 4; ++variant) {
      const std::string context =
          spec.key() + " variant " + std::to_string(variant);
      std::mt19937_64 rng(static_cast<unsigned>(w * 8 + variant));
      const Harness h(spec, variant, rng);
      sim::Simulator s(h.module);
      if (!genus::kind_is_sequential(kind)) {
        for (int trial = 0; trial < kTrials; ++trial) {
          const sim::PortValues seen = h.drive(s, rng);
          s.eval();
          h.check(s, sim::eval_combinational(spec, seen),
                  context + " trial " + std::to_string(trial));
          if (testing::Test::HasFatalFailure()) return;
        }
        continue;
      }
      sim::SeqState ref = sim::init_state(spec);
      for (int cycle = 0; cycle < kTrials; ++cycle) {
        const sim::PortValues seen = h.drive(s, rng);
        s.eval();
        h.check(s, sim::seq_outputs(spec, ref, seen),
                context + " cycle " + std::to_string(cycle));
        if (testing::Test::HasFatalFailure()) return;
        s.step();
        sim::seq_step(spec, ref, seen);
      }
    }
  }
}

class SimPacking : public testing::TestWithParam<Kind> {};

TEST_P(SimPacking, SimulatorMatchesSemanticsUnderEveryBinding) {
  check_kind(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    EveryKind, SimPacking, testing::ValuesIn(genus::all_kinds()),
    [](const testing::TestParamInfo<Kind>& info) {
      std::string name = genus::kind_name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SimPackingField, FieldsStraddleWordBoundaries) {
  BitVec v(130);
  v.set_field(60, 10, 0x3ff);
  EXPECT_EQ(v.field(59, 12), 0x7feu);
  v.set_field(64, 64, ~0ULL);
  EXPECT_EQ(v.field(0, 64), 0xf000000000000000ULL);
  EXPECT_EQ(v.field(66, 64), 0x3fffffffffffffffULL);
  v.set_field(100, 30, 0);
  EXPECT_EQ(v.field(70, 60), 0x3fffffffULL);
  EXPECT_THROW(v.field(100, 31), Error);
}

}  // namespace
}  // namespace bridge
