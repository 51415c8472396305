// Golden controllers: byte-exact records of what the control compiler
// produces today, so any change to the minimizer or the netlist builder
// must reproduce them.
//
// One fixture (tests/golden/ctrl.txt), two kinds of state tables:
//   * the controllers of seeded behavioral programs (gcd, counted loops,
//     nested loops, shifts, if/else) at widths 4, 8, 16, 33, 63 and 64;
//   * seeded random state tables with 3 to 10 controller input variables
//     (state bits plus status inputs), random control words and random
//     status-dependent successors.
// For each controller the fixture lists state_bits, minterm_count,
// implicant_count, literal_count, the FNV-1a digest and length of its
// structural VHDL, and every output function's sum of products.
//
// The fixture was recorded from the implementation and is compared
// verbatim; re-record it only with a change that is meant to alter the
// controllers, and say so.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>

#include "base/fingerprint.h"
#include "ctrl/control_compiler.h"
#include "golden_programs.h"
#include "hls/ast.h"
#include "hls/fsmd.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using golden::hex64;
using golden::Program;
using golden::programs;
using golden::read_file;
using golden::with_width;

/// A random state table whose controller has exactly `nvars` input
/// variables: up to four status inputs, the rest state bits, and a state
/// count that needs every state bit. Rows assert random values on up to
/// three control signals (1 to 6 bits wide) and take one to three
/// transitions, the last one the default.
hls::StateTable random_table(std::mt19937_64& rng, int nvars) {
  auto pick = [&rng](int n) {  // uniform in [0, n)
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  hls::StateTable t;
  const int nstatus = pick(std::min(nvars - 1, 4) + 1);
  const int sbits = nvars - nstatus;
  const int lo = sbits == 1 ? 2 : (1 << (sbits - 1)) + 1;
  const int nstates = lo + pick((1 << sbits) - lo + 1);
  auto state = [](int s) { return "S" + std::to_string(s); };
  for (int s = 0; s < nstatus; ++s) {
    t.status_inputs.push_back("st" + std::to_string(s));
  }
  const int nsignals = 1 + pick(3);
  for (int c = 0; c < nsignals; ++c) {
    t.control_signals.emplace_back("c" + std::to_string(c), 1 + pick(6));
  }
  for (int s = 0; s < nstates; ++s) {
    hls::StateRow row;
    row.name = state(s);
    for (const auto& [signal, width] : t.control_signals) {
      if (pick(3) == 0) continue;
      row.asserts[signal] = rng() & ((std::uint64_t{1} << width) - 1);
    }
    const int nconds = nstatus == 0 ? 0 : pick(3);
    for (int k = 0; k < nconds; ++k) {
      hls::Transition tr;
      tr.status = t.status_inputs[static_cast<std::size_t>(pick(nstatus))];
      tr.negate = (rng() & 1) != 0;
      tr.next = state(pick(nstates));
      row.transitions.push_back(tr);
    }
    row.transitions.push_back({"", false, state(pick(nstates))});
    t.rows.push_back(row);
  }
  t.initial = state(pick(nstates));
  return t;
}

/// One controller's record: its counts, VHDL digest, and every output
/// function's sum of products.
std::string render(const std::string& label, const hls::StateTable& table) {
  const ctrl::ControllerResult ctl = ctrl::compile_control(table);
  const int nvars =
      ctl.state_bits + static_cast<int>(table.status_inputs.size());
  const std::string vhdl = vhdl::emit_structural(ctl.design);
  std::ostringstream out;
  out << "ctrl " << label << " nvars " << nvars << " state_bits "
      << ctl.state_bits << " minterm_count " << ctl.minterm_count
      << " implicant_count " << ctl.implicant_count << " literal_count "
      << ctl.literal_count << " vhdl " << vhdl.size() << " "
      << hex64(base::fp_bytes(base::kFingerprintSeed, vhdl.data(),
                              vhdl.size()))
      << "\n";
  for (const ctrl::ControlFunction& fn : ctl.functions) {
    out << "  " << (fn.port.empty() ? "next" : fn.port) << "[" << fn.bit
        << "] =";
    if (fn.sop.empty()) out << " 0";
    for (std::size_t i = 0; i < fn.sop.size(); ++i) {
      out << (i == 0 ? " " : " | ") << fn.sop[i].to_string(nvars);
    }
    out << "\n";
  }
  return out.str();
}

constexpr int kRandomTablesPerSize = 3;

std::string render_all() {
  std::string out;
  for (const Program& prog : programs()) {
    for (int width : {4, 8, 16, 33, 63, 64}) {
      const hls::Fsmd fsmd = hls::synthesize_behavior(
          hls::parse_behavior(with_width(prog.text, width)));
      out += render(std::string(prog.name) + " w" + std::to_string(width),
                    fsmd.control);
    }
  }
  std::mt19937_64 rng(20261018);
  for (int nvars = 3; nvars <= 10; ++nvars) {
    for (int k = 0; k < kRandomTablesPerSize; ++k) {
      out += render("random n" + std::to_string(nvars) + " k" +
                        std::to_string(k),
                    random_table(rng, nvars));
    }
  }
  return out;
}

std::string fixture_path() {
  return std::string(BRIDGE_TESTS_DIR) + "/golden/ctrl.txt";
}

TEST(CtrlGolden, ControllersMatchTheFixture) {
  const std::string want = read_file(fixture_path());
  ASSERT_FALSE(want.empty()) << "missing fixture " << fixture_path();
  EXPECT_EQ(want, render_all());
}

}  // namespace
}  // namespace bridge
