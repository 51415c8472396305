#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "api/api.h"
#include "bench.h"
#include "cells/registry.h"
#include "lint/lint.h"

namespace perfbench {

using bridge::dtas::AlternativeDesign;

void Digest::add(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  add(std::string(buf));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// --- tracing -------------------------------------------------------------------

int Tracer::open(const char* name, long job, Clock::time_point start) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back(Record{name, start, {}, parent, job});
  const int id = static_cast<int>(records_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  records_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::record(const char* name, long job, Clock::time_point start,
                    Clock::time_point end) {
  if (!on_) return;
  const int parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back(Record{name, start, end, parent, job});
}

void Tracer::merge(const Tracer& other) {
  const int base = static_cast<int>(records_.size());
  for (Record r : other.records_) {
    if (r.parent >= 0) r.parent += base;
    records_.push_back(r);
  }
}

LayerTimes layer_times(const Tracer& t) {
  const auto& recs = t.records();
  std::vector<double> child_ms(recs.size(), 0.0);
  for (const auto& r : recs) {
    if (r.parent >= 0) {
      child_ms[static_cast<std::size_t>(r.parent)] += ms_between(r.start, r.end);
    }
  }
  LayerTimes out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const double d = ms_between(recs[i].start, recs[i].end);
    out.total_ms[recs[i].name] += d;
    out.self_ms[recs[i].name] += d - child_ms[i];
  }
  return out;
}

void write_trace(const Tracer& t, const std::string& path) {
  std::ofstream f(path);
  if (!f) return;
  const auto& recs = t.records();
  const Clock::time_point t0 = recs.empty() ? Clock::now() : recs.front().start;
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"job\": %ld}}%s\n",
                  r.name, 1000.0 * ms_between(t0, r.start),
                  1000.0 * ms_between(r.start, r.end), i, r.parent, r.job,
                  i + 1 < recs.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
}

// --- statistics ----------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double block_percentile(const std::vector<double>& v, double q, std::size_t blocks) {
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto lo = v.begin() + static_cast<long>(b * v.size() / blocks);
    const auto hi = v.begin() + static_cast<long>((b + 1) * v.size() / blocks);
    if (lo != hi) per_block.push_back(percentile(std::vector<double>(lo, hi), q));
  }
  return median(per_block);
}


long beyond(std::size_t n, double q) {
  return static_cast<long>(n) - static_cast<long>(std::ceil(q * static_cast<double>(n)));
}

std::size_t tail_blocks(std::size_t n, double q) {
  std::size_t b = kBlocks;
  while (b > 1 && beyond(n / b, q) < 10) --b;
  return b;
}

namespace {

/// The jobs' best wall times over the timed passes (`ms[pass][job]`).
std::vector<double> best_times(const std::vector<std::vector<double>>& ms) {
  std::vector<double> best = ms.front();
  for (const auto& pass : ms) {
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], pass[i]);
  }
  return best;
}

/// Throughput, median and p90 of the jobs' best wall times.
void closed_loop_metrics(Report& r, const std::vector<std::vector<double>>& ms) {
  const std::vector<double> best = best_times(ms);
  const std::size_t n = best.size();
  double total = 0;
  for (const double b : best) total += b;
  r.e2e("jobs_per_s", 1000.0 * static_cast<double>(n) / total, "1/s");
  r.e2e("job_ms_p50", percentile(best, 0.50), "ms");
  r.e2e("job_ms_p90", percentile(best, 0.90), "ms");
  if (beyond(n, 0.95) >= 10) r.set("job_ms_p95", percentile(best, 0.95), "ms");
  std::string passes;
  for (const auto& pass : ms) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.3f", median(pass));
    passes += buf;
  }
  r.note("job sample: " + std::to_string(n) + " jobs, each at its best of " +
         std::to_string(ms.size()) + " timed passes; " + std::to_string(beyond(n, 0.90)) +
         " beyond the p90, " + std::to_string(beyond(n, 0.95)) +
         " beyond the p95 (printed when at least 10); pass medians (ms):" + passes);
}

}  // namespace

void trace_summary(Report& r, const LayerTimes& lt, const char* root, double roots,
                   double overhead_ms) {
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double total = get(lt.total_ms, root);
  const double self = get(lt.self_ms, root);
  r.layer("job.self_ms", roots > 0 ? self / roots : 0.0, "ms");
  r.layer("trace.child_share", total > 0 ? (total - self) / total : 0.0, "ratio");
  r.layer("trace.overhead_ms", overhead_ms, "ms");
}

void DtasCounters::add_phases(const bridge::obs::Profile& p) {
  expand_ms += p.phase_ms("expand");
  evaluate_ms += p.phase_ms("evaluate");
  extract_ms += p.phase_ms("extract");
}

void DtasCounters::add_profile(const bridge::obs::Profile& p) {
  add_phases(p);
  template_hits += p.counter("expand.template_cache.hits");
  template_misses += p.counter("expand.template_cache.misses");
  extract_hits += p.counter("extract.extraction_cache.hits");
  extract_misses += p.counter("extract.extraction_cache.misses");
  evaluated += p.counter("evaluate.combinations.evaluated");
  pruned += p.counter("evaluate.combinations.pruned");
}

void dtas_layers(Report& r, const DtasCounters& c, double timed_jobs, double jobs) {
  const auto rate = [](long hit, long miss) {
    return hit + miss > 0 ? static_cast<double>(hit) / static_cast<double>(hit + miss) : 0.0;
  };
  const double t = timed_jobs > 0 ? timed_jobs : 1.0;
  const double n = jobs > 0 ? jobs : 1.0;
  r.layer("dtas.expand_ms", c.expand_ms / t, "ms");
  r.layer("dtas.evaluate_ms", c.evaluate_ms / t, "ms");
  r.layer("dtas.extract_ms", c.extract_ms / t, "ms");
  r.layer("dtas.template_hit_rate", rate(c.template_hits, c.template_misses), "ratio");
  r.layer("dtas.extract_hit_rate", rate(c.extract_hits, c.extract_misses), "ratio");
  r.layer("dtas.combinations_evaluated", static_cast<double>(c.evaluated) / n, "count");
  r.layer("dtas.prune_ratio", rate(c.pruned, c.evaluated), "ratio");
  r.layer("dtas.node_parallel_levels", static_cast<double>(c.node_parallel_levels) / n,
          "count");
}

double per_job_self(const LayerTimes& lt, const char* name, double jobs) {
  const auto it = lt.self_ms.find(name);
  return it == lt.self_ms.end() || jobs <= 0 ? 0.0 : it->second / jobs;
}

void SetupTimer::round() {
  if (round_ms_.empty()) {
    for (const Clock::time_point w0 = Clock::now(); ms_between(w0, Clock::now()) < 50.0;) {
      teardown_();
      setup_();
    }
  }
  std::vector<double> ms;
  double total = 0;
  while (ms.size() < 5 || total < 25.0) {
    teardown_();
    const Clock::time_point t0 = Clock::now();
    setup_();
    ms.push_back(ms_between(t0, Clock::now()));
    total += ms.back();
  }
  teardown_();
  round_ms_.push_back(median(std::move(ms)));
}

std::string SetupTimer::describe() const {
  std::string out;
  for (const double ms : round_ms_) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", ms);
    out += buf;
  }
  return out;
}

SetupTimer library_setup(const Options& o) {
  return SetupTimer(
      [path = o.libs_dir + "/sample_sky130_subset.lib"] {
        auto registry = bridge::cells::LibraryRegistry::with_builtins();
        registry.load_liberty_file(path);
      },
      [] {});
}

void run_closed_loop(const Options& o, Report& r, SetupTimer& setup, long set_size,
                     const ClosedLoopJob& job, const ClosedLoopLayers& layers) {
  Tracer off(false), t(true);
  const auto n = static_cast<std::size_t>(set_size);
  // Pass 0: warm-up and full checks.
  std::vector<std::string> want(n);
  std::vector<bool> bad(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const long bad_before = r.bad_outputs;
    want[i] = job(static_cast<long>(i), true, off, false).outputs;
    bad[i] = r.bad_outputs != bad_before;
  }
  r.attempted = set_size;

  std::vector<std::vector<double>> plain, traced;
  const double budget_ms = 1000.0 * o.seconds;
  double timed = 0.0;
  const Clock::time_point wall0 = Clock::now();
  setup.round();
  for (int pass = 1; pass <= kMinPasses || timed < budget_ms; ++pass) {
    // The cap never cuts a pass short, nor the first untraced and traced pass.
    if (pass > 2 && ms_between(wall0, Clock::now()) > 120000.0) break;
    const bool trace = o.trace && pass % 2 == 0;
    std::vector<double> times;
    for (std::size_t i = 0; i < n; ++i) {
      if (setup.rounds() < kSetupRounds && timed >= budget_ms * setup.rounds() / kSetupRounds) {
        setup.round();
      }
      const JobRun run = job(static_cast<long>(i), false, trace ? t : off, trace);
      ++r.attempted;
      if (!run.outputs.empty() && run.outputs != want[i]) {
        r.fail(static_cast<long>(i), "pass " + std::to_string(pass) +
                                         ": outputs differ from the first pass");
        ++r.bad_outputs;
        ++r.unexplained;
      } else if (bad[i]) {
        ++r.bad_outputs;
      }
      times.push_back(run.ms);
      timed += run.ms;
    }
    (trace ? traced : plain).push_back(std::move(times));
  }
  while (setup.rounds() < kSetupRounds) setup.round();  // rounds the jobs did not reach
  r.e2e("setup_s", setup.seconds(), "s");
  r.note("setup_s rounds (ms): " + setup.describe());
  if (!o.trace) {
    closed_loop_metrics(r, plain);
    return;
  }
  const LayerTimes lt = layer_times(t);
  const double jobs = static_cast<double>(traced.size() * n);
  layers(lt, jobs);
  trace_summary(r, lt, "job", jobs, median(best_times(traced)) - median(best_times(plain)));
  write_trace(t, o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json");
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- checks ---------------------------------------------------------------------

std::vector<std::string> lint_front(const std::vector<AlternativeDesign>& front) {
  std::vector<std::string> errors;
  bridge::lint::Cache cache;
  for (const AlternativeDesign& alt : front) {
    for (const auto& d : bridge::lint::lint_design(*alt.design, cache)) {
      if (d.severity == bridge::lint::Severity::kError) {
        errors.push_back(d.to_string());
      }
    }
  }
  return errors;
}

bool declares_net_before_port(const bridge::netlist::Module& m) {
  std::vector<bool> is_port(m.nets().size(), false);
  for (const auto& p : m.module_ports()) {
    if (p.net >= 0) is_port[static_cast<std::size_t>(p.net)] = true;
  }
  bool seen_net = false;
  for (std::size_t i = 0; i < is_port.size(); ++i) {
    if (!is_port[i]) {
      seen_net = true;
    } else if (seen_net) {
      return true;
    }
  }
  return false;
}

bool ports_first_copy_is_clean(const bridge::netlist::Module& m,
                               const bridge::cells::CellLibrary& lib,
                               const bridge::dtas::SpaceOptions& options) {
  const bridge::netlist::Module copy =
      bridge::api::decode_netlist(bridge::api::encode_netlist(m));
  bridge::dtas::Synthesizer session(lib, options);
  const auto front = session.synthesize_netlist(copy);
  return !front.empty() && lint_front(front).empty();
}

bool check_front(Report& r, long job, const char* what,
                 const std::vector<AlternativeDesign>& front,
                 const bridge::netlist::Module& input,
                 const bridge::cells::CellLibrary& lib,
                 const bridge::dtas::SpaceOptions& options, bool& unexplained) {
  if (front.empty()) {
    r.fail(job, std::string(what) + ": empty front");
    unexplained = true;
    return false;
  }
  const std::vector<std::string> errors = lint_front(front);
  if (errors.empty()) return true;
  const bool known = declares_net_before_port(input) &&
                     ports_first_copy_is_clean(input, lib, options);
  r.fail(job, std::string(what) + ": " + std::to_string(errors.size()) + " lint errors (" +
                  (known ? kMisbindingDefect : "UNEXPLAINED") + "), first: " + errors.front());
  unexplained = unexplained || !known;
  return false;
}

void digest_front(Digest& d, const std::vector<AlternativeDesign>& front) {
  d.add(std::to_string(front.size()));
  for (const AlternativeDesign& alt : front) {
    d.add(alt.metric.area);
    d.add(alt.metric.delay);
    d.add(alt.description);
  }
}

std::string recorded_digest(const std::string& path, const std::string& workload) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream in(line);
    std::string name, seed, hex;
    if (in >> name >> seed >> hex && name == workload &&
        seed == std::to_string(kDefaultSeed)) {
      return hex;
    }
  }
  return "";
}

}  // namespace perfbench
