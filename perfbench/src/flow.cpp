// flow_fig1: a closed loop with one client pushing seeded behavioral
// programs through the whole Figure-1 flow, one cold session per job, and
// then serving the job's datapath through the in-process server.
#include <optional>

#include "bench.h"
#include "cells/cell.h"
#include "cells/registry.h"
#include "ctrl/control_compiler.h"
#include "gen.h"
#include "hls/fsmd.h"
#include "liberty/liberty.h"
#include "rig.h"
#include "server/protocol.h"
#include "vhdl/vhdl.h"

namespace perfbench {

namespace {

using bridge::dtas::AlternativeDesign;
using Front = std::vector<AlternativeDesign>;

/// Jobs whose fronts feed the recorded digest.
constexpr long kDigestJobs = 32;
/// The job set every pass runs: three cycles of the program widths.
constexpr long kSetSize = 183;

/// Per-layer counters summed over the jobs of one phase.
struct FlowCounters {
  DtasCounters dtas;
  long implicants = 0;
  double vhdl_bytes = 0;
  double server_ms = 0, wire_ms = 0;  // served datapath requests
};

class FlowRunner {
 public:
  FlowRunner(const Options& o, Report& r, const ServerRig& rig)
      : o_(o), r_(r), rig_(rig), fd_(bridge::server::connect_tcp(rig.server->port())) {
    sky_path_ = o.libs_dir + "/sample_sky130_subset.lib";
    bridge::server::set_tcp_nodelay(fd_);
  }
  ~FlowRunner() { bridge::server::close_socket(fd_); }
  FlowRunner(const FlowRunner&) = delete;
  FlowRunner& operator=(const FlowRunner&) = delete;

  /// One job: the timed Figure-1 flow, then (with `check`) its output
  /// checks.
  JobRun job(long index, bool check, Tracer& t, FlowCounters& c, Digest* digest) {
    const Program p = gen_program(o_.seed, index);
    const std::string text = p.text();
    std::vector<std::map<std::string, bridge::BitVec>> vectors;
    for (const auto& v : p.vectors) {
      std::map<std::string, bridge::BitVec> in;
      for (const auto& [name, value] : v) in.emplace(name, bridge::BitVec(p.width, value));
      vectors.push_back(std::move(in));
    }

    std::vector<bridge::hls::FsmdRun> runs;
    std::optional<bridge::hls::Fsmd> fsmd;
    std::optional<bridge::ctrl::ControllerResult> ctl;
    std::optional<bridge::cells::CellLibrary> loaded;
    const bridge::cells::CellLibrary* lib = nullptr;
    Front dp, cp;
    std::vector<std::string> vhdl;
    bridge::api::SynthesisRequest served_req;
    RoundTrip served;
    bool threw = false;

    const Clock::time_point start = Clock::now();
    Span job_span(t, "job", index);
    try {
      bridge::hls::BehavioralDesign design;
      {
        Span s(t, "hls.parse", index);
        design = bridge::hls::parse_behavior(text);
      }
      {
        Span s(t, "hls.fsmd", index);
        fsmd.emplace(bridge::hls::synthesize_behavior(design));
      }
      {
        Span s(t, "sim.cosim", index);
        for (const auto& in : vectors) runs.push_back(bridge::hls::run_fsmd(*fsmd, in));
      }
      {
        Span s(t, "ctrl.compile", index);
        ctl.emplace(bridge::ctrl::compile_control(fsmd->control));
      }
      if (p.library == 2) {
        Span s(t, "liberty.load", index);
        loaded.emplace(bridge::liberty::load_liberty_file(sky_path_));
        lib = &*loaded;
      } else {
        lib = p.library == 0 ? &bridge::cells::lsi_library()
                             : &bridge::cells::ttl_library();
      }
      bridge::dtas::RuleBase rules;
      {
        Span s(t, "lola.rules", index);
        rules = bridge::dtas::default_rules_for(*lib);
      }
      std::optional<bridge::dtas::Synthesizer> session;
      {
        Span s(t, "dtas.session", index);
        session.emplace(std::move(rules), *lib);
      }
      {
        Span s(t, "dtas.synth", index);
        dp = session->synthesize_netlist(*fsmd->design.top());
      }
      c.dtas.add_profile(session->last_profile());
      {
        Span s(t, "dtas.synth", index);
        cp = session->synthesize_netlist(*ctl->design.top());
      }
      c.dtas.add_profile(session->last_profile());
      c.dtas.node_parallel_levels += session->space().stats().node_parallel_levels;
      {
        Span s(t, "vhdl.emit", index);
        bridge::vhdl::EmissionCache emission;
        for (const Front* f : {&dp, &cp}) {
          for (const AlternativeDesign& alt : *f) {
            vhdl.push_back(bridge::vhdl::emit_structural(*alt.design, emission));
          }
        }
      }
      // The same datapath as a served request (the server's copy of the
      // library, VHDL included): api codec, framing, queueing, session.
      served_req.library = mix_libraries()[static_cast<std::size_t>(p.library)];
      served_req.input_netlist = *fsmd->design.top();
      served_req.options.emit_vhdl = true;
      served = round_trip(fd_, served_req, t, index);
      c.server_ms += served.result.server_ms;
      c.wire_ms += served.roundtrip_ms - served.result.server_ms;
    } catch (const std::exception& e) {
      threw = true;
      ++r_.errors;
      r_.fail(index, std::string("threw: ") + e.what());
    }
    job_span.end();
    const double ms = ms_between(start, Clock::now());

    // --- checks, outside the timed region ---
    if (threw) return {ms, ""};
    c.implicants += ctl->implicant_count;
    for (const std::string& v : vhdl) c.vhdl_bytes += static_cast<double>(v.size());
    Digest outputs;
    for (const auto& run : runs) {
      for (const auto& [name, value] : run.outputs) {
        outputs.add(name + "=" + std::to_string(value.to_uint64()));
      }
    }
    digest_front(outputs, dp);
    digest_front(outputs, cp);
    for (const std::string& v : vhdl) outputs.add(v);
    outputs.add(served.result.status);
    for (const auto& alt : served.result.alternatives) {
      outputs.add(alt.area);
      outputs.add(alt.delay);
      outputs.add(alt.description);
      outputs.add(alt.vhdl);
    }
    if (!check) return {ms, outputs.hex()};
    bool ok = true, unexplained = false;
    for (std::size_t v = 0; v < runs.size(); ++v) {
      std::map<std::string, std::uint64_t> want;
      try {
        want = p.eval(p.vectors[v]);
      } catch (const std::exception& e) {
        r_.fail(index, std::string("reference evaluator: ") + e.what());
        ok = false;
        unexplained = true;
      }
      for (const auto& [name, value] : want) {
        const auto got = runs[v].outputs.find(name);
        if (!runs[v].halted || got == runs[v].outputs.end() ||
            got->second.to_uint64() != value) {
          r_.fail(index, "cosim: output " + name + " expected " + std::to_string(value) +
                             (runs[v].halted ? "" : " (did not halt)"));
          ok = false;
          unexplained = true;
        }
      }
    }
    const bridge::dtas::SpaceOptions defaults;
    ok &= check_front(r_, index, "datapath", dp, *fsmd->design.top(), *lib, defaults,
                      unexplained);
    ok &= check_front(r_, index, "controller", cp, *ctl->design.top(), *lib, defaults,
                      unexplained);
    // The served front must equal the in-process front of the request the
    // server decoded (the codec declares ports first, so it is lint-clean).
    if (!served.result.ok()) {
      ++r_.errors;
      r_.fail(index, "served: status " + served.result.status + ": " + served.result.error);
    } else {
      const auto want = in_process_front(served_req, *rig_.registry);
      std::string failure;
      if (!bridge::api::front_matches(served.result, want, /*with_vhdl=*/true)) {
        failure = "served front differs from the in-process front (with VHDL)";
      } else if (const auto errors = lint_front(want); !errors.empty()) {
        failure = "served front: " + std::to_string(errors.size()) + " lint errors, first: " +
                  errors.front();
      }
      if (!failure.empty()) {
        r_.fail(index, failure);
        ok = false;
        unexplained = true;
      }
    }
    if (!ok) ++r_.bad_outputs;
    if (unexplained) ++r_.unexplained;
    if (digest != nullptr) {
      digest_front(*digest, dp);
      digest_front(*digest, cp);
      for (const std::string& v : vhdl) digest->add(v);
    }
    return {ms, outputs.hex()};
  }

 private:
  const Options& o_;
  Report& r_;
  const ServerRig& rig_;
  int fd_;
  std::string sky_path_;
};

}  // namespace

void run_flow_fig1(const Options& o, Report& r) {
  // Set-up: the library registry and the server the jobs' datapaths are
  // sent to. The jobs use one rig; the timed repeats build and stop others.
  std::unique_ptr<ServerRig> spare;
  SetupTimer setup([&] { spare = std::make_unique<ServerRig>(o); },
                   [&] { teardown(std::move(spare), r); });
  auto rig = std::make_unique<ServerRig>(o);
  {
    FlowRunner runner(o, r, *rig);
    Digest digest;
    FlowCounters plain, traced_counters;
    const auto job = [&](long index, bool check, Tracer& t, bool traced) {
      return runner.job(index, check, t, traced ? traced_counters : plain,
                        check && index < kDigestJobs ? &digest : nullptr);
    };
    const auto layers = [&](const LayerTimes& lt, double jobs) {
      const FlowCounters& c = traced_counters;
      r.layer("liberty.load_ms", per_job_self(lt, "liberty.load", jobs), "ms");
      r.layer("lola.rules_ms", per_job_self(lt, "lola.rules", jobs), "ms");
      r.layer("hls.parse_ms", per_job_self(lt, "hls.parse", jobs), "ms");
      r.layer("hls.fsmd_ms", per_job_self(lt, "hls.fsmd", jobs), "ms");
      r.layer("sim.cosim_ms", per_job_self(lt, "sim.cosim", jobs), "ms");
      r.layer("ctrl.compile_ms", per_job_self(lt, "ctrl.compile", jobs), "ms");
      r.layer("ctrl.implicants", static_cast<double>(c.implicants) / jobs, "count");
      r.layer("dtas.session_ms", per_job_self(lt, "dtas.session", jobs), "ms");
      r.layer("dtas.synth_ms", per_job_self(lt, "dtas.synth", jobs), "ms");
      dtas_layers(r, c.dtas, jobs, jobs);
      r.layer("vhdl.emit_ms", per_job_self(lt, "vhdl.emit", jobs), "ms");
      r.layer("vhdl.bytes", c.vhdl_bytes / jobs, "B");
      r.layer("api.encode_ms", per_job_self(lt, "api.encode", jobs), "ms");
      r.layer("api.decode_ms", per_job_self(lt, "api.decode", jobs), "ms");
      r.layer("server.server_ms", c.server_ms / jobs, "ms");
      r.layer("server.wire_ms", c.wire_ms / jobs, "ms");
    };
    run_closed_loop(o, r, setup, kSetSize, job, layers);
    r.digest = digest.hex();
  }
  teardown(std::move(rig), r);
}

}  // namespace perfbench
