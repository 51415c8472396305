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

#include <cstdio>
#include <fstream>
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
#include "hls/ast.h"
#include "hls/fsmd.h"
#include "sim/simulator.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;
using genus::PortDir;

/// A behavioral program template: `@` stands for the datapath width.
struct Program {
  const char* name;
  const char* text;
  /// Inputs drawn small (1..small) instead of full-width random.
  std::vector<std::string> small_inputs;
  int small = 0;
};

std::vector<Program> programs() {
  return {
      {"gcd",
       R"(design gcd;
input a : @; input b : @; output r : @; var x : @; var y : @;
begin
  x = a; y = b;
  while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
  r = x;
end)",
       {"a", "b"},
       15},
      {"count_down",
       R"(design count_down;
input a : @; input n : @; output r : @; var i : @; var acc : @;
begin
  acc = 0; i = n;
  while (i != 0) { acc = acc + a; i = i - 1; }
  r = acc;
end)",
       {"n"},
       9},
      {"count_up",
       R"(design count_up;
input a : @; input n : @; output r : @; var i : @; var acc : @;
begin
  acc = a; i = 0;
  while (i < n) { acc = acc ^ (a + i); i = i + 1; }
  r = acc;
end)",
       {"n"},
       7},
      {"nested",
       R"(design nested;
input a : @; input n : @; input m : @; output r : @; output s : @;
var i : @; var j : @; var acc : @;
begin
  acc = a; i = n;
  while (i != 0) {
    j = m;
    while (j != 0) { acc = acc + i; j = j - 1; }
    i = i - 1;
  }
  r = acc; s = acc & a;
end)",
       {"n", "m"},
       4},
      {"shifts",
       R"(design shifts;
input a : @; input b : @; output r : @; output s : @; var x : @; var k : @;
begin
  x = a; k = 0;
  while (x != 0) { x = x >> 1; k = k + 1; }
  r = (b << 3) ^ k;
  s = (a >> 2) | (b << 1);
end)",
       {},
       0},
      {"if_else",
       R"(design if_else;
input a : @; input b : @; output r : @; output s : @; var x : @;
begin
  if (a < b) { x = b - a; } else { x = a - b; }
  if (x == 0) { x = 1; }
  if (a >= b) { r = x | a; } else { r = x & b; }
  if (a <= b) { s = ~a; } else { if (a != b) { s = a ^ b; } }
end)",
       {},
       0},
  };
}

std::string with_width(const char* text, int width) {
  std::string out;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '@') {
      out += std::to_string(width);
    } else {
      out += *c;
    }
  }
  return out;
}

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

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
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
