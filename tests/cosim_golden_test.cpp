// Golden co-simulation: byte-exact records of what the bit-true simulator
// computes today, so any change to its internals must reproduce them.
//
// Two parts, one fixture (tests/golden/cosim.txt):
//   * hls::run_fsmd on seeded behavioral programs (gcd, counted loops,
//     nested loops, shifts, if/else) at widths 4, 8, 16, 33, 63, 64 and
//     65: the outputs, `cycles` and `halted` of every run. Width 65 is
//     recorded as unsupported (the FSMD's constant operands cannot drive a
//     port wider than 64 bits).
//   * sim::Simulator on DTAS fronts under seeded stimulus: the fig3 ALU64
//     front and one sequential front from each registry library. Every
//     cycle, every top-level port is read after eval() and folded into one
//     FNV-1a digest per cycle; the fixture lists the per-cycle digests of
//     each alternative.
//
// The fixture was recorded from the implementation and is compared
// verbatim; re-record it only with a change that is meant to alter
// simulation results, and say so.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/diag.h"
#include "base/fingerprint.h"
#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "genus/library.h"
#include "genus/spec.h"
#include "golden_programs.h"
#include "hls/ast.h"
#include "hls/fsmd.h"
#include "sim/simulator.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;
using genus::PortDir;
using golden::hex64;
using golden::Program;
using golden::programs;
using golden::read_file;
using golden::with_width;

BitVec random_vec(std::mt19937_64& rng, int width) {
  BitVec v(width);
  for (int b = 0; b < width; b += 64) {
    const std::uint64_t word = rng();
    for (int i = b; i < std::min(width, b + 64); ++i) {
      v.set_bit(i, ((word >> (i - b)) & 1) != 0);
    }
  }
  return v;
}

constexpr int kVectorsPerProgram = 3;

/// Part 1: run_fsmd records.
std::string render_fsmd_runs() {
  std::ostringstream out;
  std::mt19937_64 rng(20260117);
  for (const Program& prog : programs()) {
    for (int width : {4, 8, 16, 33, 63, 64, 65}) {
      const hls::BehavioralDesign design =
          hls::parse_behavior(with_width(prog.text, width));
      hls::Fsmd fsmd;
      try {
        fsmd = hls::synthesize_behavior(design);
      } catch (const Error&) {
        out << "fsmd " << prog.name << " w" << width << " unsupported\n";
        continue;
      }
      for (int v = 0; v < kVectorsPerProgram; ++v) {
        std::map<std::string, BitVec> inputs;
        for (const auto& decl : design.inputs) {
          const bool small =
              std::find(prog.small_inputs.begin(), prog.small_inputs.end(),
                        decl.name) != prog.small_inputs.end();
          inputs[decl.name] =
              small ? BitVec(width, 1 + rng() % static_cast<std::uint64_t>(
                                                    prog.small))
                    : random_vec(rng, width);
        }
        const hls::FsmdRun run = hls::run_fsmd(fsmd, inputs, 2000);
        out << "fsmd " << prog.name << " w" << width << " v" << v;
        for (const auto& [name, value] : inputs) {
          out << " " << name << "=" << value.to_hex();
        }
        out << " cycles " << run.cycles << " halted " << run.halted;
        for (const auto& [name, value] : run.outputs) {
          out << " " << name << "=" << value.to_hex();
        }
        out << "\n";
      }
    }
  }
  return out.str();
}

const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

/// Per-cycle digests of every top-level port of one alternative under
/// seeded stimulus. Sequential fronts step the clock after each read and
/// keep their async inputs mostly low, so state actually evolves.
std::string render_cycles(const netlist::Module& top, int cycles,
                          unsigned seed) {
  sim::Simulator s(top);
  std::mt19937_64 rng(seed);
  std::ostringstream out;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& p : top.module_ports()) {
      if (p.dir != PortDir::kIn || p.name.str() == "CLK") continue;
      BitVec v = random_vec(rng, p.width);
      const bool async = p.name.str() == "ARST" || p.name.str() == "ASET" ||
                         p.name.str() == "ARESET";
      if (async && rng() % 8 != 0) v = BitVec(p.width);
      s.set_input(p.name, v);
    }
    s.eval();
    base::Fingerprint h = base::kFingerprintSeed;
    for (const auto& p : top.module_ports()) {
      h = base::fp_str(h, p.name.str());
      h = base::fp_str(h, s.get(p.name).to_hex());
    }
    out << " " << hex64(h);
    s.step();
  }
  return out.str();
}

struct FrontCase {
  const char* library;
  const char* name;
  ComponentSpec spec;
  int cycles;
};

std::vector<FrontCase> front_cases() {
  const ComponentSpec counter8 =
      genus::make_counter_spec(8, OpSet{Op::kCountUp, Op::kLoad});
  return {
      {"LSI_LGC15", "alu64_fig3", genus::make_alu_spec(64, genus::alu16_ops()),
       24},
      {"LSI_LGC15", "counter8", counter8, 40},
      {"TTL74", "counter8", counter8, 40},
      {"sample_sky130_subset", "counter8", counter8, 40},
  };
}

/// Part 2: Simulator digests on DTAS fronts.
std::string render_fronts() {
  std::ostringstream out;
  unsigned seed = 1;
  for (const FrontCase& c : front_cases()) {
    dtas::Synthesizer session(registry().at(c.library));
    const auto front = session.synthesize(c.spec);
    out << "front " << c.library << " " << c.name << " alternatives "
        << front.size() << "\n";
    for (std::size_t i = 0; i < front.size(); ++i) {
      out << "alt " << i << " cycles " << c.cycles << ":"
          << render_cycles(*front[i].design->top(), c.cycles, seed++)
          << "\n";
    }
  }
  return out.str();
}

std::string fixture_path() {
  return std::string(BRIDGE_TESTS_DIR) + "/golden/cosim.txt";
}

/// The fixture's two parts: the run_fsmd records, then (from the first
/// "front " line on) the Simulator digests.
std::pair<std::string, std::string> split_fixture(const std::string& text) {
  const std::size_t fronts = text.find("\nfront ");
  if (fronts == std::string::npos) return {text, ""};
  return {text.substr(0, fronts + 1), text.substr(fronts + 1)};
}

TEST(CosimGolden, FsmdRunsMatchTheFixture) {
  const std::string want = read_file(fixture_path());
  ASSERT_FALSE(want.empty()) << "missing fixture " << fixture_path();
  EXPECT_EQ(split_fixture(want).first, render_fsmd_runs());
}

TEST(CosimGolden, FrontPortDigestsMatchTheFixture) {
  const std::string want = read_file(fixture_path());
  ASSERT_FALSE(want.empty()) << "missing fixture " << fixture_path();
  EXPECT_EQ(split_fixture(want).second, render_fronts());
}

TEST(CosimGolden, Width65FsmdIsRejected) {
  // The unsupported records above must stay a deliberate rejection, not a
  // silent skip of a width that would otherwise run.
  const auto design = hls::parse_behavior(
      "design t; input a : 65; output r : 65; begin r = a; end");
  EXPECT_THROW(hls::synthesize_behavior(design), Error);
}

}  // namespace
}  // namespace bridge
