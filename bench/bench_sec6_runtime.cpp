// §6 runtime claim: "DTAS generated this design space in less than 15
// minutes of real time on a SUN-3 workstation."
//
// This bench records the repo's synthesis-runtime trajectory. Every
// workload runs twice — once on the library's compiled TimingPlan
// evaluator with bound-and-prune, and once on the reference functional
// evaluator (the pre-compiled-plan, unpruned evaluator, kept as the test
// oracle in tests/eval_reference.h) — and both wall times land in
// BENCH_synthesis.json, together with odometer statistics (combinations
// evaluated / pruned, the part of the pruned ones ruled out as whole
// blocks, and the combinations the reference enumerated, which must equal
// evaluated + pruned) and design-space sizes. A spec workload's
// reference arm is a whole synthesis (expand, reference evaluate, extract
// from the reference alternatives); a netlist workload's stops at the
// netlist-level reference front and does not extract. On top of that,
// every workload is re-run on the sharded parallel odometer at threads ∈
// {2, 4, 8}, recording one <workload>/t<N> entry each plus suite-level
// sec6_runtime/suite_t<N> entries whose speedup_vs_1thread is the
// threads-vs-speedup headline. All runs must agree: spec workloads
// produce identical fronts (same metrics, same descriptions) on both
// evaluators; netlist workloads produce exactly the same netlist-level
// alternatives (implementation, child choices, metrics) on the compiled
// and the reference odometer, and the extracted front carries their
// metrics; every thread count reproduces the serial front. Any divergence
// fails the bench.
//
// Workloads:
//  - spec synthesis of the Figure-3 ALU family and wide adders (these are
//    expansion-dominated: the odometer is small once the Pareto filter
//    has trimmed every child, so neither the plan nor threads matter
//    much);
//  - whole-netlist synthesis of a 16-bit datapath under a dense
//    design-space sweep (min_delay_gain = 0), where the odometer explores
//    the §5 "several hundred thousand" combination regime and the
//    per-combination evaluator dominates everything else;
//  - the same sweep with the combination cap lifted to one million — the
//    top of the §5 "several hundred thousand to several million" range —
//    which is where the sharded odometer earns its keep.
//
// BRIDGE_BENCH_QUICK=1 drops the repeat count to one (sanitizer CI runs).
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "cells/cell.h"
#include "dtas/synthesizer.h"
#include "eval_reference.h"
#include "sweep_datapath.h"
#include "netlist/netlist.h"

using namespace bridge;

namespace {

struct RunResult {
  double wall_ms = 0.0;
  long evaluated = 0;
  long pruned = 0;
  long skipped = 0;  // the part of `pruned` ruled out as whole blocks
  long parallel_odometers = 0;
  long odometer_shards = 0;
  int spec_nodes = 0;
  int impl_nodes = 0;
  long template_cache_hits = 0;    // this run's lookups only
  long template_cache_misses = 0;
  std::vector<dtas::AlternativeDesign> alts;
  // Reference arm of a netlist workload: the netlist-level front (no
  // extraction).
  std::vector<dtas::Alternative> netlist_alts;
  double prune_ratio() const {
    const long total = evaluated + pruned;
    return total > 0 ? static_cast<double>(pruned) / total : 0.0;
  }
};

/// One workload: a single spec (spec synthesis) or, when `spec` is empty,
/// the 16-bit datapath (whole-netlist synthesis).
struct Workload {
  std::string name;
  dtas::SpaceOptions options;
  std::optional<genus::ComponentSpec> spec;
};

dtas::SpaceOptions with_threads(dtas::SpaceOptions opt, int threads = 1) {
  opt.threads = threads;  // 1 = the serial baseline path
  return opt;
}

/// The compiled arm: one synthesis, extraction included.
RunResult run(const Workload& w, int threads, int repeats) {
  const dtas::SpaceOptions opt = with_threads(w.options, threads);
  RunResult r;
  r.wall_ms = benchjson::time_ms(
      [&] {
        dtas::Synthesizer synth(cells::lsi_library(), opt);
        if (w.spec) {
          r.alts = synth.synthesize(*w.spec);
        } else {
          const netlist::Module input = testdata::make_sweep_datapath(16);
          r.alts = synth.synthesize_netlist(input);
        }
        r.evaluated = synth.space().stats().combinations_evaluated;
        r.pruned = synth.space().stats().combinations_pruned;
        r.skipped = synth.space().stats().combinations_skipped;
        r.parallel_odometers = synth.space().stats().parallel_odometers;
        r.odometer_shards = synth.space().stats().odometer_shards;
        r.spec_nodes = synth.space().stats().spec_nodes;
        r.impl_nodes = synth.space().stats().impl_nodes;
        r.template_cache_hits = synth.space().stats().template_cache_hits;
        r.template_cache_misses = synth.space().stats().template_cache_misses;
      },
      repeats);
  return r;
}

/// The reference arm at one thread: a spec workload expands, evaluates on
/// the reference evaluator, and extracts from the reference alternatives;
/// a netlist workload computes the reference netlist-level front.
/// `evaluated` counts every combination the unpruned reference enumerated.
RunResult run_reference(const Workload& w, int repeats) {
  const dtas::SpaceOptions opt = with_threads(w.options);
  RunResult r;
  r.wall_ms = benchjson::time_ms(
      [&] {
        dtas::Synthesizer synth(cells::lsi_library(), opt);
        if (w.spec) {
          r.evaluated = dtas::reference::evaluate(
              synth.space(), synth.space().expand(*w.spec));
          r.alts = synth.synthesize(*w.spec);
        } else {
          const netlist::Module input = testdata::make_sweep_datapath(16);
          dtas::reference::NetlistFront front =
              dtas::reference::netlist_front(synth.space(), input);
          r.evaluated = front.combinations;
          r.netlist_alts = std::move(front.alts);
        }
      },
      repeats);
  return r;
}

/// Whether the compiled arm agrees with the reference arm. Spec workloads
/// compare whole fronts. Netlist workloads compare the compiled
/// netlist-level alternatives — the plan odometer re-run, untimed, on a
/// fresh serial space's evaluated children — with the reference
/// odometer's exactly, and the compiled front's metrics with theirs.
bool matches_reference(const Workload& w, const RunResult& compiled,
                       const RunResult& reference) {
  if (w.spec) return benchjson::identical_fronts(compiled.alts, reference.alts);
  dtas::Synthesizer synth(cells::lsi_library(), with_threads(w.options));
  const netlist::Module input = testdata::make_sweep_datapath(16);
  for (dtas::SpecNode* root :
       dtas::reference::netlist_roots(synth.space(), input)) {
    synth.space().evaluate(root);
  }
  if (!dtas::reference::identical(
          dtas::reference::compiled_netlist_alternatives(synth.space(),
                                                         input),
          reference.netlist_alts) ||
      compiled.alts.size() != reference.netlist_alts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < compiled.alts.size(); ++i) {
    if (compiled.alts[i].metric.area != reference.netlist_alts[i].metric.area ||
        compiled.alts[i].metric.delay !=
            reference.netlist_alts[i].metric.delay) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  std::vector<Workload> workloads;

  for (int width : {16, 32, 64}) {
    workloads.push_back({"sec6_runtime/alu" + std::to_string(width) + "_lsi",
                         dtas::SpaceOptions{},
                         genus::make_alu_spec(width, genus::alu16_ops())});
  }
  workloads.push_back({"sec6_runtime/adder128_lsi", dtas::SpaceOptions{},
                       genus::make_adder_spec(128)});
  // The dense sweep: strict Pareto (no favorable-tradeoff threshold) keeps
  // every non-dominated child alternative, so the whole-netlist odometer
  // runs against max_combinations_per_impl — the "several hundred thousand
  // ... alternative designs" regime §5 describes.
  {
    dtas::SpaceOptions sweep;
    sweep.min_delay_gain = 0.0;
    sweep.max_combinations_per_impl = 200000;
    workloads.push_back({"sec6_runtime/datapath16_sweep", sweep, {}});
  }
  // The same sweep at the top of the §5 range ("to several million"):
  // a deeper alternative cap and a one-million combination budget. This
  // is the workload the sharded parallel odometer is for.
  {
    dtas::SpaceOptions sweep1m;
    sweep1m.min_delay_gain = 0.0;
    sweep1m.max_alternatives_per_node = 48;
    sweep1m.max_combinations_per_impl = 1000000;
    workloads.push_back({"sec6_runtime/datapath16_sweep1m", sweep1m, {}});
  }
  workloads.push_back(
      {"sec6_runtime/datapath16_default", dtas::SpaceOptions{}, {}});

  const char* quick_env = std::getenv("BRIDGE_BENCH_QUICK");
  const bool quick = quick_env != nullptr && quick_env[0] != '\0' &&
                     quick_env[0] != '0';
  const int repeats = quick ? 1 : 3;
  const std::vector<int> kThreadCounts = {2, 4, 8};
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::printf("%-34s %12s %12s %8s %10s %9s %5s\n", "workload", "compiled(ms)",
              "reference(ms)", "speedup", "evaluated", "pruned", "alts");
  std::vector<benchjson::Entry> entries;
  double total_compiled = 0.0, total_reference = 0.0;
  std::vector<double> total_threaded(kThreadCounts.size(), 0.0);
  bool all_identical = true;
  for (const Workload& w : workloads) {
    // Serial baseline (threads = 1) vs the reference functional
    // evaluator.
    const RunResult compiled = run(w, 1, repeats);
    const RunResult reference = run_reference(w, repeats);
    const bool same = matches_reference(w, compiled, reference);
    all_identical = all_identical && same;
    total_compiled += compiled.wall_ms;
    total_reference += reference.wall_ms;
    const double speedup = compiled.wall_ms > 0.0
                               ? reference.wall_ms / compiled.wall_ms
                               : 0.0;
    std::printf("%-34s %12.2f %12.2f %7.2fx %10ld %9ld %5zu%s\n",
                w.name.c_str(), compiled.wall_ms, reference.wall_ms, speedup,
                compiled.evaluated, compiled.pruned, compiled.alts.size(),
                same ? "" : "  FRONT MISMATCH");
    benchjson::Entry e;
    e.name = w.name;
    e.num("wall_ms_compiled", compiled.wall_ms)
        .num("wall_ms_reference", reference.wall_ms)
        .num("speedup", speedup)
        .num("combinations_evaluated", static_cast<double>(compiled.evaluated))
        .num("combinations_pruned", static_cast<double>(compiled.pruned))
        .num("combinations_skipped", static_cast<double>(compiled.skipped))
        .num("combinations_reference",
             static_cast<double>(reference.evaluated))
        .num("spec_nodes", compiled.spec_nodes)
        .num("impl_nodes", compiled.impl_nodes)
        .num("alternatives", static_cast<double>(compiled.alts.size()))
        // Cache / prune effectiveness: structural properties of the
        // search, so the regression gate can catch a cache that quietly
        // stopped working even when wall time looks fine.
        .num("template_cache_hits",
             static_cast<double>(compiled.template_cache_hits))
        .num("template_cache_misses",
             static_cast<double>(compiled.template_cache_misses))
        .num("prune_ratio", compiled.prune_ratio())
        .str("fronts_identical", same ? "yes" : "NO");
    entries.push_back(std::move(e));

    // The sharded parallel odometer at each thread count. Fronts must be
    // bit-identical to the serial baseline — that is the determinism
    // contract, enforced here on every bench run.
    for (size_t t = 0; t < kThreadCounts.size(); ++t) {
      const int threads = kThreadCounts[t];
      const RunResult threaded = run(w, threads, repeats);
      const bool tsame =
          benchjson::identical_fronts(threaded.alts, compiled.alts);
      all_identical = all_identical && tsame;
      total_threaded[t] += threaded.wall_ms;
      const double tspeedup = threaded.wall_ms > 0.0
                                  ? compiled.wall_ms / threaded.wall_ms
                                  : 0.0;
      std::printf("%-34s %12.2f %12s %7.2fx %10ld %9ld %5zu%s\n",
                  (w.name + "/t" + std::to_string(threads)).c_str(),
                  threaded.wall_ms, "", tspeedup, threaded.evaluated,
                  threaded.pruned, threaded.alts.size(),
                  tsame ? "" : "  FRONT MISMATCH vs 1 thread");
      benchjson::Entry te;
      te.name = w.name + "/t" + std::to_string(threads);
      te.num("wall_ms_compiled", threaded.wall_ms)
          .num("threads", threads)
          .num("speedup_vs_1thread", tspeedup)
          .num("parallel_odometers",
               static_cast<double>(threaded.parallel_odometers))
          .num("odometer_shards",
               static_cast<double>(threaded.odometer_shards))
          .num("combinations_evaluated",
               static_cast<double>(threaded.evaluated))
          .num("combinations_pruned", static_cast<double>(threaded.pruned))
          .num("combinations_skipped", static_cast<double>(threaded.skipped))
          .str("fronts_identical", tsame ? "yes" : "NO");
      entries.push_back(std::move(te));
    }
  }
  const double total_speedup =
      total_compiled > 0.0 ? total_reference / total_compiled : 0.0;
  std::printf("%-34s %12.2f %12.2f %7.2fx\n", "TOTAL", total_compiled,
              total_reference, total_speedup);
  benchjson::Entry total;
  total.name = "sec6_runtime/total";
  total.num("wall_ms_compiled", total_compiled)
      .num("wall_ms_reference", total_reference)
      .num("speedup", total_speedup)
      .str("fronts_identical", all_identical ? "yes" : "NO");
  entries.push_back(std::move(total));
  // Suite-level threads-vs-speedup trajectory: the whole suite re-run on
  // N threads against the 1-thread compiled baseline. Interpret against
  // hardware_concurrency — on fewer physical cores than threads, the
  // extra threads time-slice and the speedup tops out at the core count.
  for (size_t t = 0; t < kThreadCounts.size(); ++t) {
    const double suite_speedup = total_threaded[t] > 0.0
                                     ? total_compiled / total_threaded[t]
                                     : 0.0;
    std::printf("%-34s %12.2f %12s %7.2fx (vs 1 thread, %d cores)\n",
                ("TOTAL/t" + std::to_string(kThreadCounts[t])).c_str(),
                total_threaded[t], "", suite_speedup, hw_threads);
    benchjson::Entry st;
    st.name = "sec6_runtime/suite_t" + std::to_string(kThreadCounts[t]);
    st.num("wall_ms_compiled", total_threaded[t])
        .num("threads", kThreadCounts[t])
        .num("speedup_vs_1thread", suite_speedup)
        .num("hardware_concurrency", hw_threads)
        .str("fronts_identical", all_identical ? "yes" : "NO");
    entries.push_back(std::move(st));
  }
  benchjson::write(entries);
  return all_identical ? 0 : 1;
}
