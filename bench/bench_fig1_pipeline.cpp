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
#include <cstdio>
#include <numeric>

#include "bench_json.h"
#include "cells/cell.h"
#include "ctrl/control_compiler.h"
#include "dtas/synthesizer.h"
#include "hls/fsmd.h"
#include "vhdl/vhdl.h"

using namespace bridge;

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
  benchjson::write({cosim});

  auto ctl = ctrl::compile_control(fsmd.control);
  std::printf("[CTRL] controller: %d state bits, %d minterms -> %d "
              "implicants (%d literals), %zu gate instances\n",
              ctl.state_bits, ctl.minterm_count, ctl.implicant_count,
              ctl.literal_count, ctl.design.top()->instances().size());

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
