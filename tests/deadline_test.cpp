// Deadlines and cooperative cancellation.
//
// The contract under test: a deadline that never fires is bit-identical
// to an unbounded run (polling only reads a clock); an expired deadline
// either throws bridge::Cancelled with strong exception safety (the
// Synthesizer stays usable and a re-armed retry is byte-identical) or,
// in best-effort mode, returns the best-so-far front and sets
// SpaceStats::deadline_hit. The odometer checkpoints (deadline poll and
// fault probe) run on its work counter, so they keep their cadence when
// whole blocks of combinations are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/cancel.h"
#include "base/diag.h"
#include "base/fault.h"
#include "cells/cell.h"
#include "dtas/design_space.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "netlist/netlist.h"
#include "sweep_datapath.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using base::CancelToken;
using base::Deadline;
using dtas::AlternativeDesign;
using dtas::SpaceOptions;
using genus::ComponentSpec;

struct FrontRecord {
  std::vector<double> areas, delays;
  std::vector<std::string> descriptions;
  std::vector<std::string> vhdl;

  bool operator==(const FrontRecord&) const = default;
};

FrontRecord record_front(const std::vector<AlternativeDesign>& alts) {
  FrontRecord rec;
  for (const auto& a : alts) {
    rec.areas.push_back(a.metric.area);
    rec.delays.push_back(a.metric.delay);
    rec.descriptions.push_back(a.description);
    rec.vhdl.push_back(vhdl::emit_structural(*a.design));
  }
  return rec;
}

netlist::Module make_input_netlist() {
  netlist::Module input("dp8");
  netlist::NetIndex a = input.add_port("A", genus::PortDir::kIn, 8);
  netlist::NetIndex b = input.add_port("B", genus::PortDir::kIn, 8);
  netlist::NetIndex sel = input.add_port("SEL", genus::PortDir::kIn, 1);
  netlist::NetIndex out = input.add_port("OUT", genus::PortDir::kOut, 8);
  netlist::NetIndex sum = input.add_net("sum", 8);
  auto& add = input.add_spec_instance(
      "add0", genus::make_adder_spec(8, /*carry_in=*/false,
                                     /*carry_out=*/false));
  input.connect(add, "A", a);
  input.connect(add, "B", b);
  input.connect(add, "S", sum);
  auto& mux = input.add_spec_instance("mux0", genus::make_mux_spec(8, 2));
  input.connect(mux, "I0", a);
  input.connect(mux, "I1", sum);
  input.connect(mux, "SEL", sel);
  input.connect(mux, "OUT", out);
  return input;
}

TEST(DeadlineTest, PrimitiveSemantics) {
  Deadline inactive;
  EXPECT_FALSE(inactive.active());
  EXPECT_FALSE(inactive.expired());

  Deadline past = Deadline::after_ms(0);
  EXPECT_TRUE(past.active());
  EXPECT_TRUE(past.expired());

  Deadline future = Deadline::after_ms(600000);
  EXPECT_TRUE(future.active());
  EXPECT_FALSE(future.expired());

  auto token = std::make_shared<CancelToken>();
  Deadline cancellable = Deadline::cancel_only(token);
  EXPECT_TRUE(cancellable.active());
  EXPECT_FALSE(cancellable.expired());
  token->request_cancel();
  EXPECT_TRUE(cancellable.expired());
  EXPECT_TRUE(token->cancelled());

  // A cancelled token also fires a timed deadline early.
  Deadline combined = Deadline::after_ms(600000, token);
  EXPECT_TRUE(combined.expired());
}

TEST(DeadlineTest, UnhitDeadlineIsByteIdenticalToUnbounded) {
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  dtas::Synthesizer unbounded(cells::lsi_library());
  const FrontRecord expect = record_front(unbounded.synthesize(spec));
  ASSERT_FALSE(expect.areas.empty());

  for (bool best_effort : {false, true}) {
    SCOPED_TRACE(best_effort ? "best-effort" : "throw mode");
    SpaceOptions opt;
    opt.deadline_ms = 600000;  // ten minutes: never fires here
    opt.deadline_best_effort = best_effort;
    opt.cancel = std::make_shared<CancelToken>();  // never cancelled
    dtas::Synthesizer bounded(cells::lsi_library(), opt);
    EXPECT_EQ(record_front(bounded.synthesize(spec)), expect);
    EXPECT_FALSE(bounded.space().stats().deadline_hit);
  }
}

TEST(DeadlineTest, CancelledTokenThrowsAndSynthesizerStaysUsable) {
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  dtas::Synthesizer baseline(cells::lsi_library());
  const FrontRecord expect = record_front(baseline.synthesize(spec));

  auto token = std::make_shared<CancelToken>();
  SpaceOptions opt;
  opt.cancel = token;
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  token->request_cancel();
  EXPECT_THROW(synth.synthesize(spec), Cancelled);

  // Strong exception safety: clear the policy, retry on the same
  // synthesizer, get the byte-identical front.
  synth.space().set_deadline_policy(/*deadline_ms=*/0, /*best_effort=*/false,
                                    /*cancel=*/nullptr);
  EXPECT_EQ(record_front(synth.synthesize(spec)), expect);
  EXPECT_FALSE(synth.space().stats().deadline_hit);
}

TEST(DeadlineTest, BestEffortReturnsTruncatedFrontAndSetsFlag) {
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  dtas::Synthesizer baseline(cells::lsi_library());
  const std::size_t full_size = baseline.synthesize(spec).size();

  auto token = std::make_shared<CancelToken>();
  SpaceOptions opt;
  opt.cancel = token;
  opt.deadline_best_effort = true;
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  token->request_cancel();
  std::vector<AlternativeDesign> truncated;
  EXPECT_NO_THROW(truncated = synth.synthesize(spec));
  EXPECT_TRUE(synth.space().stats().deadline_hit);
  EXPECT_LE(truncated.size(), full_size);

  // Re-arming with no deadline resets the flag; note the truncated
  // best-effort state persists in the space (documented), so this is a
  // usability check, not a byte-identity one.
  synth.space().set_deadline_policy(0, false, nullptr);
  const auto again = synth.synthesize(spec);
  EXPECT_GE(again.size(), truncated.size());
  EXPECT_FALSE(synth.space().stats().deadline_hit);
}

TEST(DeadlineTest, NetlistSynthesisHonorsCancellation) {
  const netlist::Module input = make_input_netlist();
  dtas::Synthesizer baseline(cells::lsi_library());
  const FrontRecord expect = record_front(baseline.synthesize_netlist(input));
  ASSERT_FALSE(expect.areas.empty());

  auto token = std::make_shared<CancelToken>();
  SpaceOptions opt;
  opt.cancel = token;
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  token->request_cancel();
  EXPECT_THROW(synth.synthesize_netlist(input), Cancelled);
  synth.space().set_deadline_policy(0, false, nullptr);
  EXPECT_EQ(record_front(synth.synthesize_netlist(input)), expect);
}

TEST(DeadlineTest, DeadlinePolicyCanBeSwappedPerRequest) {
  // One synthesizer, three requests with different budgets — the
  // long-lived-service pattern set_deadline_policy exists for.
  const ComponentSpec spec = genus::make_adder_spec(32);
  dtas::Synthesizer synth(cells::lsi_library());
  const FrontRecord expect = record_front(synth.synthesize(spec));

  auto token = std::make_shared<CancelToken>();
  token->request_cancel();
  synth.space().set_deadline_policy(0, false, token);
  EXPECT_THROW(synth.synthesize(spec), Cancelled);

  synth.space().set_deadline_policy(600000, false, nullptr);
  EXPECT_EQ(record_front(synth.synthesize(spec)), expect);
}

/// The §5 dense sweep (bench_sec6_runtime's datapath16_sweep settings):
/// the netlist-level odometer rules out most of its ~180k combinations
/// as whole blocks.
SpaceOptions dense_sweep(int threads) {
  SpaceOptions opt;
  opt.min_delay_gain = 0.0;
  opt.max_combinations_per_impl = 200000;
  opt.threads = threads;
  return opt;
}

TEST(DeadlineTest, OdometerCheckpointsRunOnTheWorkCounter) {
  const netlist::Module input = testdata::make_sweep_datapath(16);
  base::FaultInjector& inj = base::FaultInjector::global();
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    dtas::Synthesizer synth(cells::lsi_library(), dense_sweep(threads));
    const FrontRecord expect = record_front(synth.synthesize_netlist(input));

    // Every spec is now expanded and evaluated, so a repeat call runs the
    // netlist-level odometer and nothing else that evaluates. Counting
    // mode tallies one "dtas.evaluate.plan" probe per checkpoint: one at
    // the start of each shard (or of the serial range), then one every
    // 1024 units of work (combination tests plus block tests), however
    // far the index jumps over skipped blocks.
    const dtas::SpaceStats before = synth.space().stats();
    inj.arm(/*seed=*/1, /*period=*/0);
    EXPECT_EQ(record_front(synth.synthesize_netlist(input)), expect);
    const long probes = inj.probes("dtas.evaluate.plan");
    inj.disarm();
    const dtas::SpaceStats& after = synth.space().stats();
    const long pruned = after.combinations_pruned - before.combinations_pruned;
    const long skipped =
        after.combinations_skipped - before.combinations_skipped;
    ASSERT_GT(skipped, pruned / 2) << "the sweep must be skip-heavy";
    const long work = after.combinations_evaluated -
                      before.combinations_evaluated + pruned - skipped +
                      after.block_tests - before.block_tests;
    const long ranges = std::max(
        1L, after.odometer_shards - before.odometer_shards);
    EXPECT_GE(probes * 1024, work) << probes << " probes, " << work
                                   << " units of work";
    EXPECT_LE(probes, work / 1024 + ranges) << probes << " probes, " << work
                                            << " units of work";

    // An expired deadline fires at the odometer's first checkpoint.
    auto token = std::make_shared<CancelToken>();
    token->request_cancel();
    synth.space().set_deadline_policy(0, /*best_effort=*/false, token);
    EXPECT_THROW(synth.synthesize_netlist(input), Cancelled);
    synth.space().set_deadline_policy(0, /*best_effort=*/true, token);
    EXPECT_NO_THROW(synth.synthesize_netlist(input));
    EXPECT_TRUE(synth.space().stats().deadline_hit);
    synth.space().set_deadline_policy(0, false, nullptr);
    EXPECT_EQ(record_front(synth.synthesize_netlist(input)), expect);
  }
}

}  // namespace
}  // namespace bridge
