// Telemetry-layer contracts.
//
// The registry must count exactly under contention (relaxed atomics, no
// lost updates), histogram percentiles must land inside the bucket the
// known distribution puts them in, snapshot diffs must attribute work to
// one window, and a disabled tracer must cost a branch — those are the
// properties that make it safe to leave the instrumentation compiled into
// the hot paths. On top of the primitives, the acceptance tests pin the
// integration contract: tracing on vs off changes no synthesis output
// byte at any thread count, registry deltas reconcile with SpaceStats,
// per-space TemplateCache deltas sum to the global snapshot diff even
// when spaces interleave, Synthesizer::last_profile() reports the call it
// just finished, and the co-simulation and control-compiler layers emit
// their spans when tracing is on and nothing when it is off.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells/cell.h"
#include "ctrl/control_compiler.h"
#include "dtas/design_space.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "hls/ast.h"
#include "hls/fsmd.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sweep_datapath.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using dtas::SpaceOptions;
using genus::ComponentSpec;

TEST(MetricsTest, ConcurrentCounterIncrementsSumExactly) {
  obs::Counter& c =
      obs::Registry::global().counter("test.concurrent.counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr long kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (long i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugePeakIsHighWaterMark) {
  obs::Gauge g;
  g.set(3);
  g.set(10);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 10);

  // Under contention the peak can only be a value some thread actually
  // held, and at least the largest single contribution.
  obs::Gauge shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&shared] {
      for (int i = 0; i < 10000; ++i) {
        shared.add(1);
        shared.add(-1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.value(), 0);
  EXPECT_GE(shared.peak(), 1);
  EXPECT_LE(shared.peak(), 8);
}

TEST(MetricsTest, HistogramPercentilesOnKnownDistribution) {
  obs::Histogram h;
  for (int v = 0; v < 1024; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1024);
  EXPECT_DOUBLE_EQ(h.sum(), 1023.0 * 1024.0 / 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 1023.0);

  // Bucket layout: 0 -> [0,1], i -> (2^(i-1), 2^i]. Cumulative count
  // through bucket 9 (values <= 512) is 513 of 1024, so the median rank
  // lands in bucket 9 and p99 in bucket 10 — percentile() interpolates
  // within a bucket, so the answers must stay inside those bounds.
  const double p50 = h.percentile(0.50);
  EXPECT_GT(p50, obs::Histogram::bucket_lower(9));  // 256
  EXPECT_LE(p50, obs::Histogram::bucket_upper(9));  // 512
  const double p99 = h.percentile(0.99);
  EXPECT_GT(p99, obs::Histogram::bucket_lower(10));  // 512
  EXPECT_LE(p99, obs::Histogram::bucket_upper(10));  // 1024

  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(MetricsTest, ConcurrentHistogramRecordsCountExactly) {
  obs::Histogram& h =
      obs::Registry::global().histogram("test.concurrent.histogram");
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<long>(kThreads) * kPerThread);
  // Sum is CAS-folded: no lost updates. Every sample is an integer, so
  // exact double equality holds (values well inside the 53-bit mantissa).
  double expected = 0.0;
  for (int t = 0; t < kThreads; ++t) expected += (t + 1) * double(kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), expected);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(MetricsTest, SnapshotDiffAttributesOneWindow) {
  obs::Counter& c = obs::Registry::global().counter("test.window.counter");
  obs::Histogram& h =
      obs::Registry::global().histogram("test.window.histogram");
  c.add(5);
  h.record(3.0);
  const obs::Snapshot before = obs::Registry::global().snapshot();
  c.add(7);
  h.record(5.0);
  h.record(6.0);
  const obs::Snapshot after = obs::Registry::global().snapshot();
  const obs::Snapshot d = obs::diff(after, before);
  EXPECT_EQ(d.counters.at("test.window.counter"), 7);
  EXPECT_EQ(d.histograms.at("test.window.histogram").count, 2);
  EXPECT_DOUBLE_EQ(d.histograms.at("test.window.histogram").sum, 11.0);

  // JSON serialization covers every registered metric.
  const std::string json = after.to_json();
  EXPECT_NE(json.find("\"test.window.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.window.histogram\""), std::string::npos);
}

TEST(TraceTest, DisabledSpanIsBranchOnly) {
  ASSERT_FALSE(obs::Tracer::enabled());
  const std::size_t events_before = obs::Tracer::global().event_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    obs::Span span("never.recorded", "test");
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(obs::Tracer::global().event_count(), events_before);
  // A branch-only span is single-digit nanoseconds; anything near the
  // bound below means a clock read or lock crept into the disabled path.
  // (Generous so sanitizer builds pass comfortably.)
  EXPECT_LT(ms, 2000.0);
}

TEST(TraceTest, TracerWritesLoadableChromeJson) {
  const std::string path = "obs_test_trace.json";
  obs::Tracer::global().start(path);
  ASSERT_TRUE(obs::Tracer::enabled());
  {
    obs::Span outer("outer.phase", "test");
    obs::Span inner("inner.phase", "test");
  }
  EXPECT_GE(obs::Tracer::global().event_count(), 2u);
  EXPECT_EQ(obs::Tracer::global().stop(), path);
  EXPECT_FALSE(obs::Tracer::enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"outer.phase\""), std::string::npos);
  EXPECT_NE(text.find("\"inner.phase\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());

  // stop() cleared the buffer and disabled collection.
  EXPECT_EQ(obs::Tracer::global().event_count(), 0u);
  { obs::Span span("after.stop", "test"); }
  EXPECT_EQ(obs::Tracer::global().event_count(), 0u);
}

/// The Figure-1 front half on a small gcd: HLS, co-simulation, control
/// compilation.
void run_gcd_flow() {
  const auto fsmd = hls::synthesize_behavior(hls::parse_behavior(R"(
design gcd;
input a : 8; input b : 8; output r : 8; var x : 8; var y : 8;
begin
  x = a; y = b;
  while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } }
  r = x;
end)"));
  const auto run =
      hls::run_fsmd(fsmd, {{"a", BitVec(8, 12)}, {"b", BitVec(8, 18)}});
  EXPECT_TRUE(run.halted);
  EXPECT_EQ(run.outputs.at("r").to_uint64(), 6u);
  EXPECT_GT(ctrl::compile_control(fsmd.control).implicant_count, 0);
}

TEST(TraceTest, CosimAndControlCompilerAreSpanned) {
  const std::string path = "obs_test_flow_trace.json";
  obs::Tracer::global().start(path);
  run_gcd_flow();
  ASSERT_EQ(obs::Tracer::global().stop(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());
  EXPECT_NE(text.find("{\"name\": \"cosim\", \"cat\": \"sim\""),
            std::string::npos);
  EXPECT_NE(text.find("{\"name\": \"compile\", \"cat\": \"ctrl\""),
            std::string::npos);

  // Tracing off: the same flow records nothing.
  ASSERT_FALSE(obs::Tracer::enabled());
  const std::size_t events_before = obs::Tracer::global().event_count();
  run_gcd_flow();
  EXPECT_EQ(obs::Tracer::global().event_count(), events_before);
}

/// Everything the acceptance criterion compares byte-for-byte.
struct SynthesisRecord {
  std::vector<double> areas, delays;
  std::vector<std::string> descriptions;
  std::vector<std::string> vhdl;
  dtas::SpaceStats stats;
};

SynthesisRecord synthesize_record(const ComponentSpec& spec, int threads) {
  SpaceOptions opt;
  opt.threads = threads;
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  SynthesisRecord rec;
  for (const auto& a : synth.synthesize(spec)) {
    rec.areas.push_back(a.metric.area);
    rec.delays.push_back(a.metric.delay);
    rec.descriptions.push_back(a.description);
    rec.vhdl.push_back(vhdl::emit_structural(*a.design));
  }
  rec.stats = synth.space().stats();
  return rec;
}

TEST(ObsAcceptanceTest, TracingOnOffByteIdenticalAtEveryThreadCount) {
  const ComponentSpec alu = genus::make_alu_spec(16, genus::alu16_ops());
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SynthesisRecord off = synthesize_record(alu, threads);

    const std::string path = "obs_test_accept_trace.json";
    obs::Tracer::global().start(path);
    const SynthesisRecord on = synthesize_record(alu, threads);
    obs::Tracer::global().stop();
    std::remove(path.c_str());

    EXPECT_EQ(off.areas, on.areas);    // exact double equality
    EXPECT_EQ(off.delays, on.delays);  // exact double equality
    EXPECT_EQ(off.descriptions, on.descriptions);
    EXPECT_EQ(off.vhdl, on.vhdl);
    EXPECT_EQ(off.stats.combinations_evaluated,
              on.stats.combinations_evaluated);
    EXPECT_EQ(off.stats.combinations_pruned, on.stats.combinations_pruned);
  }
}

TEST(ObsAcceptanceTest, RegistryDeltasReconcileWithSpaceStats) {
  const ComponentSpec spec = genus::make_adder_spec(32);
  const obs::Snapshot before = obs::Registry::global().snapshot();
  SpaceOptions opt;
  opt.threads = 1;
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  auto alts = synth.synthesize(spec);
  ASSERT_FALSE(alts.empty());
  const obs::Snapshot d =
      obs::diff(obs::Registry::global().snapshot(), before);
  const dtas::SpaceStats& s = synth.space().stats();

  auto counter = [&d](const std::string& name) -> long {
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("dtas.expand.spec_nodes"), s.spec_nodes);
  EXPECT_EQ(counter("dtas.expand.impl_nodes"), s.impl_nodes);
  EXPECT_EQ(counter("dtas.expand.rule_applications"), s.rule_applications);
  EXPECT_EQ(counter("dtas.expand.template_cache.hits"),
            s.template_cache_hits);
  EXPECT_EQ(counter("dtas.expand.template_cache.misses"),
            s.template_cache_misses);
  EXPECT_EQ(counter("dtas.evaluate.combinations.evaluated"),
            s.combinations_evaluated);
  EXPECT_EQ(counter("dtas.evaluate.combinations.pruned"),
            s.combinations_pruned);
  EXPECT_EQ(counter("dtas.evaluate.combinations.skipped"),
            s.combinations_skipped);
  EXPECT_EQ(counter("dtas.evaluate.block_tests"), s.block_tests);
  EXPECT_EQ(counter("dtas.evaluate.odometer.parallel_runs"),
            s.parallel_odometers);
  EXPECT_EQ(counter("dtas.evaluate.odometer.shards"), s.odometer_shards);

  // The extraction cache of this synthesizer accounts for the whole
  // process delta (no other synthesizer ran inside the window).
  const dtas::ExtractionCache::Stats& ec = synth.extraction_cache().stats();
  EXPECT_EQ(counter("dtas.extract.extraction_cache.hits"), ec.hits);
  EXPECT_EQ(counter("dtas.extract.extraction_cache.misses"), ec.misses);
}

TEST(ObsAcceptanceTest, SkippedBlocksReconcileAcrossRegistryStatsAndProfile) {
  // The §5 dense sweep, where most pruning happens a block at a time: the
  // registry mirrors, SpaceStats and last_profile() all tell where.
  const netlist::Module input = testdata::make_sweep_datapath(16);
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SpaceOptions opt;
    opt.min_delay_gain = 0.0;
    opt.max_combinations_per_impl = 200000;
    opt.threads = threads;
    const obs::Snapshot before = obs::Registry::global().snapshot();
    dtas::Synthesizer synth(cells::lsi_library(), opt);
    ASSERT_FALSE(synth.synthesize_netlist(input).empty());
    const obs::Snapshot d =
        obs::diff(obs::Registry::global().snapshot(), before);
    const dtas::SpaceStats& s = synth.space().stats();
    const obs::Profile& p = synth.last_profile();
    for (const auto& [name, value] :
         {std::pair<std::string, long>{"combinations.evaluated",
                                       s.combinations_evaluated},
          {"combinations.pruned", s.combinations_pruned},
          {"combinations.skipped", s.combinations_skipped},
          {"block_tests", s.block_tests}}) {
      const auto it = d.counters.find("dtas.evaluate." + name);
      EXPECT_EQ(it == d.counters.end() ? 0 : it->second, value) << name;
      EXPECT_EQ(p.counter("evaluate." + name), value) << name;
    }
    EXPECT_GT(s.combinations_skipped, s.combinations_pruned / 2);
    EXPECT_LE(s.combinations_skipped, s.combinations_pruned);
    EXPECT_GT(s.block_tests, 0);
  }
}

TEST(ObsAcceptanceTest, InterleavedSpacesSplitTheGlobalTemplateCacheDelta) {
  const dtas::TemplateCache::Stats global_before =
      dtas::TemplateCache::global().snapshot();

  // Two spaces interleaving lookups on the shared process-wide cache;
  // each SpaceStats counts only its own, and the two sum to the global
  // snapshot delta.
  dtas::Synthesizer a(cells::lsi_library());
  dtas::Synthesizer b(cells::lsi_library());
  a.space().expand(genus::make_adder_spec(16));
  b.space().expand(genus::make_adder_spec(16));
  a.space().expand(genus::make_mux_spec(8, 4));
  b.space().expand(genus::make_mux_spec(8, 4));

  const dtas::TemplateCache::Stats global_after =
      dtas::TemplateCache::global().snapshot();
  const dtas::SpaceStats& sa = a.space().stats();
  const dtas::SpaceStats& sb = b.space().stats();
  EXPECT_EQ(sa.template_cache_hits + sb.template_cache_hits,
            global_after.hits - global_before.hits);
  EXPECT_EQ(sa.template_cache_misses + sb.template_cache_misses,
            global_after.misses - global_before.misses);
  // b ran strictly after a on identical specs, so every one of b's
  // cacheable lookups was served from the cache.
  EXPECT_EQ(sb.template_cache_misses, 0);
  EXPECT_GT(sb.template_cache_hits, 0);
}

TEST(ObsAcceptanceTest, LastProfileDescribesTheCall) {
  dtas::Synthesizer synth(cells::lsi_library());
  const ComponentSpec spec = genus::make_adder_spec(32);
  auto alts = synth.synthesize(spec);
  ASSERT_FALSE(alts.empty());
  const obs::Profile& p = synth.last_profile();
  EXPECT_EQ(p.name, "synthesize:" + spec.key());
  // Debug builds default SpaceOptions::verify_designs on, appending a
  // "verify" (lint) phase after the pipeline's three.
  ASSERT_GE(p.phases_ms.size(), 3u);
  ASSERT_LE(p.phases_ms.size(), 4u);
  EXPECT_EQ(p.phases_ms[0].first, "expand");
  EXPECT_EQ(p.phases_ms[1].first, "evaluate");
  EXPECT_EQ(p.phases_ms[2].first, "extract");
  if (p.phases_ms.size() == 4u) {
    EXPECT_EQ(p.phases_ms[3].first, "verify");
  }
  for (const auto& [phase, ms] : p.phases_ms) EXPECT_GE(ms, 0.0) << phase;
  EXPECT_GE(p.total_ms(),
            p.phase_ms("expand") + p.phase_ms("evaluate") - 1e-9);

  const dtas::SpaceStats& s = synth.space().stats();
  EXPECT_EQ(p.counter("expand.spec_nodes"), s.spec_nodes);
  EXPECT_EQ(p.counter("evaluate.combinations.evaluated"),
            s.combinations_evaluated);
  EXPECT_EQ(p.counter("evaluate.combinations.skipped"),
            s.combinations_skipped);
  EXPECT_EQ(p.counter("extract.extraction_cache.misses"),
            synth.extraction_cache().stats().misses);

  // A second call overwrites the profile with its own (all-hit) deltas.
  synth.synthesize(spec);
  const obs::Profile& p2 = synth.last_profile();
  EXPECT_EQ(p2.counter("expand.spec_nodes"), 0);
  EXPECT_EQ(p2.counter("extract.extraction_cache.misses"), 0);
  EXPECT_GT(p2.counter("extract.extraction_cache.hits"), 0);

  const std::string json = p2.to_json();
  EXPECT_NE(json.find("\"name\""), std::string::npos);
  EXPECT_NE(json.find("\"phases_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"expand\""), std::string::npos);
}

}  // namespace
}  // namespace bridge
