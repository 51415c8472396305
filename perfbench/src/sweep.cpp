// sweep_dense: a closed loop with one client running seeded GENUS datapath
// netlists through synthesize_netlist under the paper's §5 dense sweep.
#include <optional>

#include "bench.h"
#include "cells/cell.h"
#include "gen.h"

namespace perfbench {

namespace {

constexpr long kDigestJobs = 8;
/// The job set every pass runs: four cycles of the netlist widths.
constexpr long kSetSize = 100;

/// The §5 dense sweep (bench_sec6_runtime's datapath16_sweep1m settings):
/// no favorable-tradeoff threshold, a deeper alternative cap and a
/// one-million combination budget, default threads.
bridge::dtas::SpaceOptions dense_options() {
  bridge::dtas::SpaceOptions o;
  o.min_delay_gain = 0.0;
  o.max_alternatives_per_node = 48;
  o.max_combinations_per_impl = 1000000;
  return o;
}

}  // namespace

void run_sweep_dense(const Options& o, Report& r) {
  SetupTimer setup = library_setup(o);
  const bridge::cells::CellLibrary& lib = bridge::cells::lsi_library();
  const bridge::dtas::SpaceOptions options = dense_options();
  Digest digest;
  DtasCounters plain, traced_counters;

  const auto job = [&](long index, bool check, Tracer& t, bool traced) -> JobRun {
    DtasCounters& c = traced ? traced_counters : plain;
    const bridge::netlist::Module input = sweep_netlist(o.seed, index);
    std::vector<bridge::dtas::AlternativeDesign> front;
    bool threw = false;
    const Clock::time_point start = Clock::now();
    Span job_span(t, "job", index);
    try {
      bridge::dtas::RuleBase rules;
      {
        Span s(t, "lola.rules", index);
        rules = bridge::dtas::default_rules_for(lib);
      }
      std::optional<bridge::dtas::Synthesizer> session;
      {
        Span s(t, "dtas.session", index);
        session.emplace(std::move(rules), lib, options);
      }
      {
        Span s(t, "dtas.synth", index);
        front = session->synthesize_netlist(input);
      }
      c.add_profile(session->last_profile());
      c.node_parallel_levels += session->space().stats().node_parallel_levels;
    } catch (const std::exception& e) {
      threw = true;
      ++r.errors;
      r.fail(index, std::string("threw: ") + e.what());
    }
    job_span.end();
    const double ms = ms_between(start, Clock::now());

    // --- checks, outside the timed region ---
    if (threw) return {ms, ""};
    Digest outputs;
    digest_front(outputs, front);
    if (!check) return {ms, outputs.hex()};
    bool unexplained = false;
    if (!check_front(r, index, "datapath", front, input, lib, options, unexplained)) {
      ++r.bad_outputs;
    }
    if (unexplained) ++r.unexplained;
    if (index < kDigestJobs) digest_front(digest, front);
    return {ms, outputs.hex()};
  };
  const auto layers = [&](const LayerTimes& lt, double jobs) {
    r.layer("lola.rules_ms", per_job_self(lt, "lola.rules", jobs), "ms");
    r.layer("dtas.session_ms", per_job_self(lt, "dtas.session", jobs), "ms");
    r.layer("dtas.synth_ms", per_job_self(lt, "dtas.synth", jobs), "ms");
    dtas_layers(r, traced_counters, jobs, jobs);
  };
  run_closed_loop(o, r, setup, kSetSize, job, layers);
  r.digest = digest.hex();
}

}  // namespace perfbench
