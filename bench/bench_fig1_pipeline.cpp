// Figure 1 reproduction: the full system flow on a behavioral GCD.
//
//   behavioral spec -> [HLS: schedule/allocate/bind] -> GENUS netlist +
//   state table -> [control compiler] -> gate-level controller
//                -> [DTAS] -> hierarchical library-specific netlists
//                -> structural VHDL.
//
// The co-simulation layer also gets an absolute budget: the bench times
// run_fsmd on gcd(84, 36) (simulator build included) and writes a
// "fig1/cosim" entry with the cycle count, the microseconds per simulated
// cycle and whether the outputs matched, into BENCH_synthesis.json
// (tools/check_bench_regression.py holds it to a ceiling). It exits
// nonzero when the co-simulated gcd is wrong.
//
// The control compiler gets one too: a "fig1/ctrl" entry with the
// microseconds per compile_control on the gcd's state table and on one
// seeded 8-variable table (3 status inputs, 20 states), each with its
// implicant_count.
#include <cstdio>
#include <numeric>
#include <random>

#include "bench_json.h"
#include "cells/cell.h"
#include "ctrl/control_compiler.h"
#include "dtas/synthesizer.h"
#include "hls/fsmd.h"
#include "vhdl/vhdl.h"

using namespace bridge;

namespace {

/// A seeded controller-shaped state table: 20 states (5 state bits) and 3
/// status inputs, so the control compiler minimizes over 8 variables.
/// Each state asserts random values on HLS-like control signals and takes
/// up to two status-dependent transitions before its default one.
hls::StateTable seeded_table() {
  std::mt19937_64 rng(8);
  auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  auto state = [](int s) { return "S" + std::to_string(s); };
  constexpr int kStates = 20;
  hls::StateTable t;
  t.status_inputs = {"EQ", "GT", "LT"};
  t.control_signals = {{"amux_sel", 2}, {"bmux_sel", 2}, {"alu_f", 3},
                       {"alu_ci", 1},   {"en_x", 1},     {"en_y", 1},
                       {"en_i", 1},     {"en_acc", 1},   {"rsel", 1}};
  for (int s = 0; s < kStates; ++s) {
    hls::StateRow row;
    row.name = state(s);
    for (const auto& [signal, width] : t.control_signals) {
      if (pick(2) == 0) continue;
      row.asserts[signal] = rng() & ((std::uint64_t{1} << width) - 1);
    }
    for (int k = pick(3); k > 0; --k) {
      row.transitions.push_back(
          {t.status_inputs[static_cast<std::size_t>(pick(3))], pick(2) == 0,
           state(pick(kStates))});
    }
    row.transitions.push_back({"", false, state((s + 1) % kStates)});
    t.rows.push_back(row);
  }
  t.initial = state(0);
  return t;
}

/// Microseconds per compile_control on `table`: the median of five
/// batches of `runs` calls.
double compile_us(const hls::StateTable& table, int runs) {
  const double ms = benchjson::time_ms(
      [&] {
        for (int i = 0; i < runs; ++i) ctrl::compile_control(table);
      },
      5);
  return ms * 1000.0 / runs;
}

}  // namespace

int main() {
  const char* text = R"(
design gcd;
input a : 8;
input b : 8;
output r : 8;
var x : 8;
var y : 8;
begin
  x = a;
  y = b;
  while (x != y) {
    if (x > y) { x = x - y; } else { y = y - x; }
  }
  r = x;
end
)";
  std::printf("Figure 1: end-to-end flow on behavioral GCD\n\n");
  auto design = hls::parse_behavior(text);
  auto fsmd = hls::synthesize_behavior(design);
  std::printf("[HLS] datapath: %zu GENUS instances, %d states, %zu control "
              "signals, %zu status signals\n",
              fsmd.design.top()->instances().size(),
              fsmd.control.state_count(), fsmd.control.control_signals.size(),
              fsmd.control.status_inputs.size());
  const std::map<std::string, BitVec> operands = {{"a", BitVec(8, 84)},
                                                   {"b", BitVec(8, 36)}};
  auto run = hls::run_fsmd(fsmd, operands);
  const bool outputs_match =
      run.halted && run.outputs.at("r").to_uint64() == std::gcd(84u, 36u);
  std::printf("[HLS] co-simulation: gcd(84, 36) = %llu in %d cycles\n",
              static_cast<unsigned long long>(run.outputs.at("r").to_uint64()),
              run.cycles);
  constexpr int kCosimRuns = 200;
  const double batch_ms = benchjson::time_ms(
      [&] {
        for (int i = 0; i < kCosimRuns; ++i) hls::run_fsmd(fsmd, operands);
      },
      5);
  const double us_per_cycle = batch_ms * 1000.0 / kCosimRuns / run.cycles;
  std::printf("[SIM] co-simulation: %.2f us per cycle (%s)\n", us_per_cycle,
              outputs_match ? "outputs match" : "OUTPUTS DIFFER");
  benchjson::Entry cosim;
  cosim.name = "fig1/cosim";
  cosim.num("cycles", run.cycles)
      .num("us_per_cycle", us_per_cycle)
      .num("outputs_match", outputs_match ? 1 : 0);

  auto ctl = ctrl::compile_control(fsmd.control);
  std::printf("[CTRL] controller: %d state bits, %d minterms -> %d "
              "implicants (%d literals), %zu gate instances\n",
              ctl.state_bits, ctl.minterm_count, ctl.implicant_count,
              ctl.literal_count, ctl.design.top()->instances().size());
  const hls::StateTable table = seeded_table();
  const auto seeded = ctrl::compile_control(table);
  const double gcd_us = compile_us(fsmd.control, 200);
  const double seeded_us = compile_us(table, 20);
  std::printf("[CTRL] compile_control: %.1f us on the gcd table, %.1f us on "
              "a seeded %d-variable table (%d implicants)\n",
              gcd_us, seeded_us,
              seeded.state_bits + static_cast<int>(table.status_inputs.size()),
              seeded.implicant_count);
  benchjson::Entry ctrl_entry;
  ctrl_entry.name = "fig1/ctrl";
  ctrl_entry.num("gcd_us", gcd_us)
      .num("gcd_implicant_count", ctl.implicant_count)
      .num("seeded_us", seeded_us)
      .num("seeded_implicant_count", seeded.implicant_count);
  benchjson::write({cosim, ctrl_entry});

  // DTAS maps the datapath netlist (uniform choice per spec across it).
  dtas::Synthesizer synth(cells::lsi_library());
  auto alts = synth.synthesize_netlist(*fsmd.design.top());
  std::printf("[DTAS] datapath alternatives (LSI library):\n");
  for (size_t i = 0; i < alts.size(); ++i) {
    std::printf("  alt %zu: area %.1f, delay %.1f ns, %d leaf cells\n", i,
                alts[i].metric.area, alts[i].metric.delay,
                netlist::Design::count_leaf_instances(*alts[i].design->top()));
  }

  // Controller netlist through DTAS too.
  dtas::Synthesizer csynth(cells::lsi_library());
  auto calts = csynth.synthesize_netlist(*ctl.design.top());
  if (!calts.empty()) {
    std::printf("[DTAS] controller mapped: area %.1f, delay %.1f ns\n",
                calts.front().metric.area, calts.front().metric.delay);
  }

  if (!alts.empty()) {
    // Emit the whole front through one EmissionCache: the alternatives
    // share their subtree modules, so each distinct module is rendered
    // exactly once across the set.
    vhdl::EmissionCache emission;
    std::size_t total_chars = 0;
    for (const auto& alt : alts) {
      total_chars += vhdl::emit_structural(*alt.design, emission).size();
    }
    std::printf("[VHDL] structural output for %zu alternatives: %zu "
                "characters, %zu entities in alt 0, %zu distinct modules "
                "rendered across the front\n",
                alts.size(), total_chars,
                alts.front().design->module_order().size(),
                emission.size());
  }
  std::printf("\nflow complete: behavior -> GENUS netlist + state table -> "
              "controller + mapped datapath -> VHDL\n");
  return outputs_match ? 0 : 1;
}
