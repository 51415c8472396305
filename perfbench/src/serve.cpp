// serve_mix: an open loop into an in-process server::SynthesisServer over
// TCP loopback, at two fixed offered rates plus a search for the highest
// rate that meets the p99 limit without a growing backlog.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "api/api.h"
#include "bench.h"
#include "cells/registry.h"
#include "gen.h"
#include "server/protocol.h"
#include "rig.h"
#include "server/server.h"

namespace perfbench {

namespace {

using bridge::api::SynthesisRequest;
using bridge::api::SynthesisResult;

constexpr int kConnections = 4;        // client threads, one connection each
constexpr double kLowRate = 300.0;     // offered req/s
constexpr double kHighRate = 1000.0;   // offered req/s
constexpr double kP99LimitMs = 25.0;   // rate-search latency limit
constexpr double kSearchStart = 4000.0;  // first offered rate of the search
constexpr double kSearchGrowth = 1.25;
constexpr double kSearchStepS = 0.8;   // length of one rate-search step

/// One request as the client saw it.
struct Sample {
  double latency_ms = 0;  // due -> response decoded
  double lag_ms = 0;      // due -> send started
  double encode_ms = 0, roundtrip_ms = 0, decode_ms = 0, server_ms = 0;
  double done_ms = 0;     // phase start -> response decoded
  long backlog = 0;       // requests due but not yet sent, at send time
  bool ok = false;
};

std::string front_fingerprint(const SynthesisResult& res) {
  Digest d;
  for (const auto& alt : res.alternatives) {
    d.add(alt.area);
    d.add(alt.delay);
    d.add(alt.description);
    d.add(alt.vhdl);
  }
  return d.hex();
}

/// Responses kept for the output checks: the first response per
/// (request, emit_vhdl), and a fingerprint every later one must match.
/// Also sums the DTAS counters every response carries. Callers serialize.
struct Responses {
  struct Kept {
    long index;
    MixRequest request;
    SynthesisResult result;
    std::string fingerprint;
  };
  std::map<std::string, Kept> kept;
  long mismatched = 0;
  long count = 0, profiled = 0;
  DtasCounters dtas;

  /// False when the front differs from an earlier response's.
  bool add(long index, const MixRequest& m, SynthesisResult res, std::string fingerprint) {
    ++count;
    dtas.template_hits += res.stats.template_cache_hits;
    dtas.template_misses += res.stats.template_cache_misses;
    dtas.extract_hits += res.stats.extraction_cache_hits;
    dtas.extract_misses += res.stats.extraction_cache_misses;
    dtas.evaluated += res.stats.combinations_evaluated;
    dtas.pruned += res.stats.combinations_pruned;
    if (res.has_profile) {
      dtas.add_phases(res.profile);
      ++profiled;
    }
    const std::string key = m.key + (m.req.options.emit_vhdl ? "|vhdl" : "");
    const auto it = kept.find(key);
    if (it == kept.end()) {
      kept.emplace(key, Kept{index, m, std::move(res), std::move(fingerprint)});
      return true;
    }
    if (it->second.fingerprint == fingerprint) return true;
    ++mismatched;
    return false;
  }
};

/// One open-loop phase: Poisson arrivals at `rate` for `seconds`.
struct PhaseResult {
  std::vector<Sample> samples;
  double elapsed_s = 0;  // first due time to last completion
  double offered = 0;
  long backlog_max = 0;
  bool backlog_growing = false;

  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.ok ? s.latency_ms : INFINITY);
    return v;
  }
  bool meets_limit() const {
    return !backlog_growing && percentile(latencies(), 0.99) <= kP99LimitMs;
  }
  double achieved_rps() const {
    return elapsed_s > 0 ? static_cast<double>(samples.size()) / elapsed_s : 0.0;
  }
  /// Completion rate, median over consecutive blocks of completions.
  double block_rps() const {
    std::vector<double> done;
    for (const Sample& s : samples) done.push_back(s.done_ms);
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    double prev = 0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const std::size_t lo = b * done.size() / kBlocks, hi = (b + 1) * done.size() / kBlocks;
      if (hi > lo && done[hi - 1] > prev) {
        rates.push_back(1000.0 * static_cast<double>(hi - lo) / (done[hi - 1] - prev));
        prev = done[hi - 1];
      }
    }
    return median(rates);
  }
};

class LoadGenerator {
 public:
  LoadGenerator(const Options& o, Report& r, int port, RequestMix& mix, Responses& responses)
      : o_(o), r_(r), mix_(mix), responses_(responses) {
    for (int c = 0; c < kConnections; ++c) {
      fds_.push_back(bridge::server::connect_tcp(port));
      bridge::server::set_tcp_nodelay(fds_.back());
    }
  }
  ~LoadGenerator() {
    for (int fd : fds_) bridge::server::close_socket(fd);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: Poisson arrivals at `rate` for `seconds`.
  PhaseResult open_phase(double rate, double seconds, Tracer* trace) {
    Rng arrivals(o_.seed, 100 + phase_count_, 0);
    std::vector<double> offsets;
    for (double t = 0;;) {
      t += -std::log(1.0 - arrivals.unit()) / rate;
      if (t > seconds) break;
      offsets.push_back(t);
    }
    PhaseResult out = run(offsets, trace);
    out.offered = rate;
    out.elapsed_s = std::max(out.elapsed_s, seconds);
    return out;
  }

  /// Closed loop: `count` requests all due at once, so each connection
  /// sends its next request as soon as the previous one is answered.
  PhaseResult closed_phase(long count) {
    return run(std::vector<double>(static_cast<std::size_t>(count), 0.0), nullptr);
  }

 private:
  PhaseResult run(const std::vector<double>& offsets, Tracer* trace) {
    // Inputs first, outside the timed region: due times and requests.
    ++phase_count_;
    std::vector<MixRequest> reqs;
    std::vector<long> ids;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      ids.push_back(next_);
      reqs.push_back(mix_.next(next_++));
    }
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<Clock::time_point> due;
    for (double t : offsets) {
      due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(t)));
    }

    PhaseResult out;
    out.samples.resize(reqs.size());
    std::atomic<std::size_t> claim{0};
    std::vector<Tracer> tracers(kConnections, Tracer(trace != nullptr));
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        Tracer& t = tracers[static_cast<std::size_t>(c)];
        for (;;) {
          const std::size_t i = claim.fetch_add(1);
          if (i >= reqs.size()) break;
          std::this_thread::sleep_until(due[i]);
          Sample& s = out.samples[i];
          const Clock::time_point t0 = Clock::now();
          s.backlog = static_cast<long>(std::upper_bound(due.begin(), due.end(), t0) -
                                        due.begin()) -
                      static_cast<long>(i);
          // The request span starts when the request was due.
          const int id = t.on() ? t.open("request", ids[i], due[i]) : -1;
          t.record("client.lag", ids[i], due[i], t0);
          try {
            RoundTrip rt = round_trip(fds_[static_cast<std::size_t>(c)], reqs[i].req, t, ids[i]);
            const Clock::time_point t3 = Clock::now();
            if (id >= 0) t.close(id);
            SynthesisResult& res = rt.result;
            s.latency_ms = ms_between(due[i], t3);
            s.done_ms = ms_between(start, t3);
            s.lag_ms = ms_between(due[i], t0);
            s.encode_ms = rt.encode_ms;
            s.roundtrip_ms = rt.roundtrip_ms;
            s.decode_ms = rt.decode_ms;
            s.server_ms = res.server_ms;
            s.ok = res.ok();
            std::string fingerprint = s.ok ? front_fingerprint(res) : "";
            std::lock_guard<std::mutex> lock(mu_);
            if (!s.ok) {
              ++r_.errors;
              r_.fail(ids[i], "status " + res.status + ": " + res.error);
            } else if (!responses_.add(ids[i], reqs[i], std::move(res), std::move(fingerprint))) {
              r_.fail(ids[i], "served front differs from an earlier response to the same request");
            }
          } catch (const std::exception& e) {
            if (id >= 0) t.close(id);
            std::lock_guard<std::mutex> lock(mu_);
            ++r_.errors;
            r_.fail(ids[i], std::string("threw: ") + e.what());
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const Clock::time_point end = Clock::now();
    out.elapsed_s = ms_between(start, end) / 1000.0;
    for (const Sample& s : out.samples) out.backlog_max = std::max(out.backlog_max, s.backlog);
    // Growing backlog: the last third of the phase waits for a send slot
    // markedly longer than the first third did.
    const std::size_t third = out.samples.size() / 3;
    if (third > 0) {
      double first = 0, last = 0;
      for (std::size_t i = 0; i < third; ++i) {
        first += static_cast<double>(out.samples[i].backlog);
        last += static_cast<double>(out.samples[out.samples.size() - 1 - i].backlog);
      }
      out.backlog_growing = last / static_cast<double>(third) >
                            first / static_cast<double>(third) + kConnections;
    }
    r_.attempted += static_cast<long>(reqs.size());
    if (trace != nullptr) {
      for (const Tracer& t : tracers) trace->merge(t);
    }
    return out;
  }

  const Options& o_;
  Report& r_;
  RequestMix& mix_;
  std::mutex mu_;  // guards r_ and responses_ across client threads
  Responses& responses_;
  std::vector<int> fds_;
  long next_ = 0;
  std::uint64_t phase_count_ = 0;
};

/// A server rig warmed with the hot set: every hot request, on every
/// connection, twice — enough to reach each worker slot's session for
/// each library.
std::unique_ptr<ServerRig> warm_rig(const Options& o, const RequestMix& mix) {
  auto rig = std::make_unique<ServerRig>(o);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      const int fd = bridge::server::connect_tcp(rig->server->port());
      for (int pass = 0; pass < 2; ++pass) {
        for (const MixRequest& m : mix.hot_set()) {
          bridge::api::Json j = m.req.encode();
          j.set("method", "synthesize");
          bridge::server::write_frame(fd, j.dump());
          std::string payload;
          bridge::server::read_frame(fd, payload);
        }
      }
      bridge::server::close_socket(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  return rig;
}

/// Median and p99 latency of a fixed-rate phase, each the median over
/// consecutive blocks of requests (as many, up to kBlocks, as leave ten
/// samples beyond each block's p99).
void latency_metrics(Report& r, const PhaseResult& p, const std::string& tag) {
  const std::vector<double> lat = p.latencies();
  const std::size_t blocks = tail_blocks(lat.size(), 0.99);
  const long per_block = beyond(lat.size() / blocks, 0.99);
  r.e2e("req_ms_p50." + tag, block_percentile(lat, 0.50), "ms");
  r.e2e("req_ms_p99." + tag, block_percentile(lat, 0.99, blocks), "ms");
  r.note(tag + " rate: offered " + std::to_string(static_cast<int>(p.offered)) +
         " req/s, " + std::to_string(lat.size()) + " requests, p99 over " +
         std::to_string(blocks) + " blocks with " + std::to_string(per_block) +
         " beyond it in each" + (per_block < 10 ? " (UNSUPPORTED: < 10)" : "") +
         ", backlog max " + std::to_string(p.backlog_max));
}

}  // namespace

void run_serve_mix(const Options& o, Report& r) {
  RequestMix mix(o.seed, kMix);
  std::unique_ptr<ServerRig> setup;
  SetupTimer timer([&] { setup = warm_rig(o, mix); }, [&] { teardown(std::move(setup), r); });
  timer.round();
  r.e2e("setup_s", timer.seconds(), "s");
  setup = warm_rig(o, mix);  // round() tears its last rig down

  Responses responses;
  {
    LoadGenerator load(o, r, setup->server->port(), mix, responses);
    if (!o.trace) {
      const PhaseResult low = load.open_phase(kLowRate, 0.2 * o.seconds, nullptr);
      const PhaseResult high = load.open_phase(kHighRate, 0.3 * o.seconds, nullptr);
      latency_metrics(r, low, "low");
      latency_metrics(r, high, "high");
      const PhaseResult saturated = load.closed_phase(static_cast<long>(1000 * o.seconds));
      // Memory after the fixed phases, whose requests depend on the seed
      // only (the search below sends more the faster the server is).
      r.rss_mb = peak_rss_mb();

      // Rate search: step by kSearchGrowth from kSearchStart up (or down)
      // until a pass and a fail bracket the limit, then bisect the bracket
      // geometrically. A failing step is re-run once, so one transient
      // stall of the machine does not decide the search.
      const Clock::time_point search0 = Clock::now();
      const auto budget_left = [&] {
        return ms_between(search0, Clock::now()) < 400.0 * o.seconds;
      };
      const auto passes = [&](double rate) {
        for (int attempt = 0; attempt < 2; ++attempt) {
          const PhaseResult p = load.open_phase(rate, kSearchStepS, nullptr);
          char line[160];
          std::snprintf(line, sizeof line,
                        "rate step: offered %.0f req/s, achieved %.0f, p99 %.2f ms, "
                        "backlog max %ld%s",
                        rate, p.achieved_rps(), percentile(p.latencies(), 0.99), p.backlog_max,
                        p.backlog_growing ? " (growing)" : "");
          r.note(line);
          if (p.meets_limit()) return p.achieved_rps();
        }
        return 0.0;
      };
      double pass = 0, fail = 0, pass_rps = 0;
      const auto probe = [&](double rate) {
        const double got = passes(rate);
        if (got > 0) {
          pass = rate;
          pass_rps = got;
        } else {
          fail = rate;
        }
      };
      for (double rate = kSearchStart; (pass == 0 || fail == 0) && budget_left();) {
        probe(rate);
        rate = pass == rate ? rate * kSearchGrowth : rate / kSearchGrowth;
      }
      for (int i = 0; i < 3 && pass > 0 && fail > 0 && budget_left(); ++i) {
        probe(std::sqrt(pass * fail));
      }
      r.note("rate search: highest passing offered rate " + std::to_string(pass) +
             " req/s, first failing " + std::to_string(fail) + " req/s (p99 limit " +
             std::to_string(kP99LimitMs) + " ms)");
      r.set("max_rate_rps", pass_rps, "1/s");
      r.e2e("saturated_rps", saturated.block_rps(), "1/s");
      r.note("saturation: " + std::to_string(saturated.samples.size()) + " requests, " +
             std::to_string(kConnections) + " connections in a closed loop");
    } else {
      const PhaseResult base = load.open_phase(kLowRate, 0.5 * o.seconds, nullptr);
      Tracer t(true);
      const PhaseResult traced = load.open_phase(kLowRate, 0.5 * o.seconds, &t);
      const LayerTimes lt = layer_times(t);
      const double n = static_cast<double>(traced.samples.size());
      double server = 0, wire = 0, lag = 0;
      for (const Sample& s : traced.samples) {
        server += s.server_ms;
        wire += s.roundtrip_ms - s.server_ms;
        lag += s.lag_ms;
      }
      r.layer("api.encode_ms", per_job_self(lt, "api.encode", n), "ms");
      r.layer("api.decode_ms", per_job_self(lt, "api.decode", n), "ms");
      r.layer("server.server_ms", server / n, "ms");
      r.layer("server.wire_ms", wire / n, "ms");
      r.layer("client.lag_ms", lag / n, "ms");
      r.layer("client.backlog_max", static_cast<double>(traced.backlog_max), "count");
      trace_summary(r, lt, "request", n,
                    percentile(traced.latencies(), 0.5) - percentile(base.latencies(), 0.5));
      write_trace(t, o.out_dir + "/trace-serve_mix-" + std::to_string(o.seed) + ".json");
    }
  }

  // --- checks, outside the timed region ---
  std::map<std::string, std::vector<bridge::dtas::AlternativeDesign>> fronts;
  const auto front_for = [&](const MixRequest& m) -> const auto& {
    auto it = fronts.find(m.key);
    if (it == fronts.end()) it = fronts.emplace(m.key, in_process_front(m.req, *setup->registry)).first;
    return it->second;
  };
  for (const auto& [key, kept] : responses.kept) {
    const auto& front = front_for(kept.request);
    const bool with_vhdl = kept.request.req.options.emit_vhdl;
    std::string failure;
    if (front.empty()) {
      failure = "empty front";
    } else if (!bridge::api::front_matches(kept.result, front, with_vhdl)) {
      failure = std::string("served front differs from the in-process front") +
                (with_vhdl ? " (with VHDL)" : "");
    } else if (const auto errors = lint_front(front); !errors.empty()) {
      failure = std::to_string(errors.size()) + " lint errors, first: " + errors.front();
    }
    if (!failure.empty()) {
      r.fail(kept.index, failure);
      ++r.bad_outputs;
      ++r.unexplained;
    }
  }
  r.bad_outputs += responses.mismatched;
  r.unexplained += responses.mismatched;
  Digest digest;
  for (const MixRequest& m : mix.hot_set()) digest_front(digest, front_for(m));
  r.digest = digest.hex();
  teardown(std::move(setup), r);
  if (o.trace) {
    const auto& c = responses.dtas;
    r.layer("dtas.synth_ms",
            responses.profiled > 0
                ? (c.expand_ms + c.evaluate_ms + c.extract_ms) / static_cast<double>(responses.profiled)
                : 0.0,
            "ms");
    // Phase times are per include_profile response; counters per response.
    dtas_layers(r, c, static_cast<double>(responses.profiled), static_cast<double>(responses.count));
  }
}

}  // namespace perfbench
