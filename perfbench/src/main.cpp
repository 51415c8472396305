// The repository benchmark executable: one workload, one seed, one run.
//
//   perfbench --workload flow_fig1|sweep_dense|serve_mix --seed N
//             --seconds S --trace 0|1 [--out DIR] [--libs DIR]
//             [--digests FILE]
//
// Prints every metric as "metric <name> <value> <unit>", notes as "# ..."
// lines, and as its last line one JSON object with the verdicts and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "gen.h"

namespace {

using perfbench::Report;

/// Every per-layer metric of BENCHMARK.json; a layer a workload does not
/// exercise reads 0. serve_mix's open-loop checks (client.lag_ms,
/// client.backlog_max) are printed as metric lines only.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"liberty.load_ms", "ms"},   {"lola.rules_ms", "ms"},
    {"hls.parse_ms", "ms"},      {"hls.fsmd_ms", "ms"},
    {"sim.cosim_ms", "ms"},      {"ctrl.compile_ms", "ms"},
    {"ctrl.implicants", "count"}, {"dtas.session_ms", "ms"},
    {"dtas.synth_ms", "ms"},     {"dtas.expand_ms", "ms"},
    {"dtas.evaluate_ms", "ms"},  {"dtas.extract_ms", "ms"},
    {"dtas.template_hit_rate", "ratio"}, {"dtas.extract_hit_rate", "ratio"},
    {"dtas.combinations_evaluated", "count"}, {"dtas.prune_ratio", "ratio"},
    {"dtas.node_parallel_levels", "count"}, {"vhdl.emit_ms", "ms"},
    {"vhdl.bytes", "B"},         {"api.encode_ms", "ms"},
    {"api.decode_ms", "ms"},     {"server.server_ms", "ms"},
    {"server.wire_ms", "ms"},    {"job.self_ms", "ms"},
    {"trace.child_share", "ratio"}, {"trace.overhead_ms", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload flow_fig1|sweep_dense|serve_mix "
               "--seed N --seconds S --trace 0|1 [--out DIR] [--libs DIR] "
               "[--digests FILE]\n",
               why);
  return 2;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Report::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.out_dir = ".bench_build/out";
  o.libs_dir = "libs";
  o.digests = "perfbench/digests.txt";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(v.c_str());
      have_seconds = o.seconds > 0;
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out_dir = v;
    } else if (a == "--libs") {
      o.libs_dir = v;
    } else if (a == "--digests") {
      o.digests = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds) return usage("--seed and --seconds are required");

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);

  Report r;
  // Self-check: one seed gives byte-identical inputs every time they are
  // generated (`run.py --report` compares the printed digest across runs).
  const std::string inputs = perfbench::input_bytes(o.workload, o.seed, 16);
  if (inputs != perfbench::input_bytes(o.workload, o.seed, 16)) {
    r.self_checks_ok = false;
    r.note("SELF-CHECK FAILED: regenerated inputs differ");
  }
  perfbench::Digest inputs_digest;
  inputs_digest.add(inputs);
  r.note("inputs digest " + inputs_digest.hex());

  try {
    if (o.workload == "flow_fig1") {
      perfbench::run_flow_fig1(o, r);
    } else if (o.workload == "sweep_dense") {
      perfbench::run_sweep_dense(o, r);
    } else if (o.workload == "serve_mix") {
      perfbench::run_serve_mix(o, r);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  if (r.attempted < 1) {
    std::fprintf(stderr, "perfbench: no job ran\n");
    return 1;
  }
  if (r.rss_mb <= 0) r.rss_mb = perfbench::peak_rss_mb();
  r.set("peak_rss_mb", r.rss_mb, "MB");
  const double n = static_cast<double>(r.attempted);
  r.set("error_rate", static_cast<double>(r.errors) / n, "ratio");
  r.set("bad_output_rate", static_cast<double>(r.bad_outputs) / n, "ratio");

  if (!r.digest.empty()) {
    r.note("fronts digest " + r.digest);
    if (o.seed == perfbench::kDefaultSeed) {
      const std::string want = perfbench::recorded_digest(o.digests, o.workload);
      if (want.empty()) {
        r.note("no digest recorded for the default seed in " + o.digests);
      } else if (want != r.digest) {
        r.self_checks_ok = false;
        r.note("DIGEST MISMATCH: recorded " + want + " for the default seed");
      } else {
        r.note("fronts digest matches the recorded default-seed digest");
      }
    }
  }

  std::printf("# workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const auto& m : r.printed) {
    std::printf("metric %s %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  if (!r.failures.empty()) {
    const std::string path = o.out_dir + "/failures-" + o.workload + "-" +
                             std::to_string(o.seed) + (o.trace ? "-trace" : "") + ".txt";
    std::ofstream f(path);
    for (const std::string& line : r.failures) f << line << "\n";
    std::printf("# %zu failed checks in %ld bad jobs (%ld not attributed to a known defect); "
                "full list in %s\n",
                r.failures.size(), r.bad_outputs + r.errors, r.unexplained, path.c_str());
    for (std::size_t i = 0; i < r.failures.size() && i < 5; ++i) {
      std::printf("#   %s\n", r.failures[i].c_str());
    }
  }

  std::vector<Report::Metric> out = r.end_to_end;
  if (o.trace) {
    out.clear();
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0.0;
      for (const auto& m : r.per_layer) {
        if (m.name == name) value = m.value;
      }
      out.push_back({name, value, unit});
    }
  }
  const bool correct = r.unexplained == 0 && r.self_checks_ok;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              correct ? "true" : "false", r.attempted, r.errors, json_metrics(out).c_str());
  return 0;
}
