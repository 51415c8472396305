// Parallel-vs-serial equivalence for the sharded design-space odometer.
//
// SpaceOptions::threads shards the plan odometer across worker threads;
// the contract (design_space.h) is that the result is *bit-identical* to
// the serial evaluator at every thread count: same alternative fronts,
// exactly equal metric doubles, same descriptions — across all three
// registry libraries, for spec-level synthesis and whole-netlist
// synthesis alike. Prune statistics are the one thing allowed to move:
// shards see different bound fronts, so combinations_pruned (and its
// complement combinations_evaluated) may differ between thread counts,
// but their sum — the enumerated combination count — may not, and the
// filtered fronts never may.
//
// These tests force small shard sizes so modest workloads genuinely
// exercise the parallel path (asserted via SpaceStats::parallel_odometers)
// even though their combination counts sit below the production shard
// threshold. Under -fsanitize=thread this file is the primary race
// exercise for the pool, the bound exchange, and the shard merge.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "base/thread_pool.h"
#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "eval_reference.h"
#include "liberty/liberty.h"
#include "netlist/netlist.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;

/// All three registry libraries: both built-ins plus the bundled Liberty
/// import.
const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

/// Dense-sweep options with a shard size small enough that test-sized
/// odometers run parallel at the requested thread count.
dtas::SpaceOptions sweep_options(int threads) {
  dtas::SpaceOptions opt;
  opt.min_delay_gain = 0.0;
  opt.threads = threads;
  opt.min_combinations_per_shard = 16;
  return opt;
}

using Front = std::vector<dtas::AlternativeDesign>;

void expect_identical(const Front& a, const Front& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric.area, b[i].metric.area) << context << " alt " << i;
    EXPECT_EQ(a[i].metric.delay, b[i].metric.delay)
        << context << " alt " << i;
    EXPECT_EQ(a[i].description, b[i].description) << context << " alt " << i;
  }
}

/// An eight-spec datapath whose whole-netlist odometer is large enough to
/// shard: registered operand -> ALU -> adder -> subtractor -> comparator
/// -> mux -> xor merge -> output register.
netlist::Module make_datapath() {
  netlist::Module m("pardp");
  const auto A = m.add_port("A", genus::PortDir::kIn, 8);
  const auto B = m.add_port("B", genus::PortDir::kIn, 8);
  const auto C = m.add_port("C", genus::PortDir::kIn, 8);
  const auto F = m.add_port("F", genus::PortDir::kIn, 4);
  const auto CI = m.add_port("CI", genus::PortDir::kIn, 1);
  const auto SEL = m.add_port("SEL", genus::PortDir::kIn, 1);
  const auto CLK = m.add_port("CLK", genus::PortDir::kIn, 1);
  const auto EN = m.add_port("EN", genus::PortDir::kIn, 1);
  const auto ARST = m.add_port("ARST", genus::PortDir::kIn, 1);
  const auto OUT = m.add_port("OUT", genus::PortDir::kOut, 8);
  const auto EQ = m.add_port("EQ", genus::PortDir::kOut, 1);
  const auto ra = m.add_net("ra", 8);
  const auto alu_out = m.add_net("alu_out", 8);
  const auto sum = m.add_net("sum", 8);
  const auto diff = m.add_net("diff", 8);
  const auto muxed = m.add_net("muxed", 8);
  const auto xr = m.add_net("xr", 8);

  auto& rin = m.add_spec_instance("rin", genus::make_register_spec(8));
  m.connect(rin, "D", A);
  m.connect(rin, "CLK", CLK);
  m.connect(rin, "EN", EN);
  m.connect(rin, "ARST", ARST);
  m.connect(rin, "Q", ra);
  auto& alu =
      m.add_spec_instance("alu0", genus::make_alu_spec(8, genus::alu16_ops()));
  m.connect(alu, "A", ra);
  m.connect(alu, "B", B);
  m.connect(alu, "CI", CI);
  m.connect(alu, "F", F);
  m.connect(alu, "OUT", alu_out);
  auto& add =
      m.add_spec_instance("add0", genus::make_adder_spec(8, false, false));
  m.connect(add, "A", alu_out);
  m.connect(add, "B", C);
  m.connect(add, "S", sum);
  auto& sub = m.add_spec_instance("sub0", genus::make_subtractor_spec(8));
  m.connect(sub, "A", sum);
  m.connect(sub, "B", C);
  m.connect(sub, "S", diff);
  auto& cmp = m.add_spec_instance(
      "cmp0", genus::make_comparator_spec(8, OpSet{Op::kEq}));
  m.connect(cmp, "A", sum);
  m.connect(cmp, "B", C);
  m.connect(cmp, "EQ", EQ);
  auto& mux = m.add_spec_instance("mux0", genus::make_mux_spec(8, 2));
  m.connect(mux, "I0", alu_out);
  m.connect(mux, "I1", diff);
  m.connect(mux, "SEL", SEL);
  m.connect(mux, "OUT", muxed);
  auto& xg = m.add_spec_instance("xor0", genus::make_gate_spec(Op::kXor, 8, 2));
  m.connect(xg, "I0", muxed);
  m.connect(xg, "I1", sum);
  m.connect(xg, "OUT", xr);
  auto& rout =
      m.add_spec_instance("rout", genus::make_register_spec(8, false, true));
  m.connect(rout, "D", xr);
  m.connect(rout, "CLK", CLK);
  m.connect(rout, "ARST", ARST);
  m.connect(rout, "Q", OUT);
  return m;
}

TEST(ParallelEvaluation, SpecFrontsIdenticalAcrossThreadCounts) {
  const std::vector<std::pair<std::string, ComponentSpec>> specs = {
      {"Alu16", genus::make_alu_spec(16, genus::alu16_ops())},
      {"Adder32", genus::make_adder_spec(32)},
      {"Mul8x8", genus::make_multiplier_spec(8, 8)},
  };
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const auto& [label, spec] : specs) {
      dtas::Synthesizer serial(*lib, sweep_options(1));
      const Front base = serial.synthesize(spec);
      EXPECT_EQ(serial.space().stats().parallel_odometers, 0)
          << lib->name() << "/" << label;
      for (int threads : {2, 8}) {
        dtas::Synthesizer parallel(*lib, sweep_options(threads));
        expect_identical(parallel.synthesize(spec), base,
                         lib->name() + "/" + label + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

TEST(ParallelEvaluation, NetlistFrontsIdenticalAcrossThreadCounts) {
  const netlist::Module input = make_datapath();
  ASSERT_TRUE(netlist::check_module(input).empty());
  for (const cells::CellLibrary* lib : registry().all()) {
    dtas::Synthesizer serial(*lib, sweep_options(1));
    const Front base = serial.synthesize_netlist(input);
    for (int threads : {2, 8}) {
      dtas::Synthesizer parallel(*lib, sweep_options(threads));
      expect_identical(parallel.synthesize_netlist(input), base,
                       lib->name() + " netlist threads " +
                           std::to_string(threads));
      // The point of the test: the parallel path must actually run. Only
      // the LSI book yields an odometer big enough to shard here; the
      // other libraries' sweeps stay under two shards and (correctly)
      // take the serial path.
      if (lib->name() == "LSI_LGC15") {
        EXPECT_GT(parallel.space().stats().parallel_odometers, 0)
            << lib->name() << " threads " << threads;
      }
    }
  }
}

TEST(ParallelEvaluation, MatchesReferenceEvaluatorAtEightThreads) {
  // Ties the parallel compiled evaluator all the way back to the original
  // functional evaluator (tests/eval_reference.h) in one step: the
  // netlist-level alternatives of the sharded plan odometer, run on the
  // 8-thread space's own evaluated children, must equal the serial
  // unpruned reference odometer's exactly, and so must the metrics of the
  // front synthesize_netlist extracted at 8 threads.
  const netlist::Module input = make_datapath();
  dtas::Synthesizer a(cells::lsi_library(), sweep_options(8));
  const Front front = a.synthesize_netlist(input);
  const std::vector<dtas::Alternative> compiled =
      dtas::reference::compiled_netlist_alternatives(a.space(), input);
  EXPECT_GT(a.space().stats().parallel_odometers, 0)
      << "the 8-thread side must actually shard";

  dtas::Synthesizer b(cells::lsi_library(), sweep_options(1));
  const dtas::reference::NetlistFront reference =
      dtas::reference::netlist_front(b.space(), input);
  ASSERT_FALSE(reference.alts.empty());
  EXPECT_TRUE(dtas::reference::identical(compiled, reference.alts))
      << "8-thread plan odometer vs serial reference odometer";
  ASSERT_EQ(front.size(), reference.alts.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ(front[i].metric.area, reference.alts[i].metric.area)
        << "alt " << i;
    EXPECT_EQ(front[i].metric.delay, reference.alts[i].metric.delay)
        << "alt " << i;
  }
}

TEST(ParallelEvaluation, EnumerationAccountingInvariant) {
  // Shards prune against different bound fronts, so the evaluated/pruned
  // split may shift with the thread count — but every enumerated
  // combination lands in exactly one bucket, so the sum may not, and the
  // fronts may not (checked above).
  const netlist::Module input = make_datapath();
  long expected_sum = -1;
  for (int threads : {1, 2, 8}) {
    dtas::Synthesizer synth(cells::lsi_library(), sweep_options(threads));
    ASSERT_FALSE(synth.synthesize_netlist(input).empty());
    const dtas::SpaceStats& stats = synth.space().stats();
    const long sum =
        stats.combinations_evaluated + stats.combinations_pruned;
    if (expected_sum < 0) {
      expected_sum = sum;
    } else {
      EXPECT_EQ(sum, expected_sum) << "threads " << threads;
    }
  }
  EXPECT_GT(expected_sum, 0);
}

TEST(ParallelEvaluation, SerialAtOneThreadNeverCreatesAPool) {
  dtas::SpaceOptions opt = sweep_options(1);
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  synth.synthesize_netlist(make_datapath());
  EXPECT_EQ(synth.space().stats().parallel_odometers, 0);
  EXPECT_EQ(synth.space().stats().odometer_shards, 0);
}

TEST(ParallelEvaluation, NodeParallelEngagesAndMatchesSerial) {
  // The antichain fan-out is the second parallel axis (see
  // SpaceOptions::threads): independent SpecNodes of one expansion DAG
  // evaluated as pool batches. Contract: it actually engages on a real
  // workload at threads > 1, and the front is bit-identical to the serial
  // run.
  const ComponentSpec alu = genus::make_alu_spec(16, genus::alu16_ops());
  for (const cells::CellLibrary* lib : registry().all()) {
    dtas::Synthesizer serial(*lib, sweep_options(1));
    const Front base = serial.synthesize(alu);
    EXPECT_EQ(serial.space().stats().node_parallel_nodes, 0)
        << lib->name() << ": serial must never take the node-parallel path";

    dtas::Synthesizer node_par(*lib, sweep_options(8));
    expect_identical(node_par.synthesize(alu), base,
                     lib->name() + " node-parallel vs serial");
    EXPECT_GT(node_par.space().stats().node_parallel_nodes, 0)
        << lib->name() << ": a 16-bit ALU expansion has multi-node "
                          "antichains, so the fan-out must engage";
    EXPECT_GT(node_par.space().stats().node_parallel_levels, 0)
        << lib->name();
  }
}

TEST(ParallelEvaluation, NodeParallelNetlistFrontsIdentical) {
  // Whole-netlist synthesis drives evaluate() once per instance spec;
  // each entry levelizes and fans out independently. Same bit-identity
  // bar as the spec-level test, plus the enumeration accounting
  // invariant: the evaluated+pruned sum is thread-count independent.
  const netlist::Module input = make_datapath();
  dtas::Synthesizer serial(cells::lsi_library(), sweep_options(1));
  const Front base = serial.synthesize_netlist(input);
  const dtas::SpaceStats& serial_stats = serial.space().stats();
  for (int threads : {2, 8}) {
    dtas::Synthesizer parallel(cells::lsi_library(), sweep_options(threads));
    expect_identical(parallel.synthesize_netlist(input), base,
                     "node-parallel netlist threads " +
                         std::to_string(threads));
    const dtas::SpaceStats& stats = parallel.space().stats();
    EXPECT_GT(stats.node_parallel_nodes, 0) << "threads " << threads;
    EXPECT_EQ(stats.combinations_evaluated + stats.combinations_pruned,
              serial_stats.combinations_evaluated +
                  serial_stats.combinations_pruned)
        << "threads " << threads;
  }
}

TEST(ThreadPool, RunsEveryTaskExactlyOnceAcrossReuse) {
  base::ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  for (int round = 0; round < 3; ++round) {
    const int n = 100 + round;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.run(n, [&](int task) { hits[task].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " task " << i;
    }
  }
  // Introspection: three rounds of 100/101/102 tasks ran to completion.
  EXPECT_EQ(pool.runs(), 3);
  EXPECT_EQ(pool.tasks_executed(), 100 + 101 + 102);
  EXPECT_EQ(pool.peak_queue_depth(), 102);
  // Degenerate cases: no tasks, and a pool with no workers (caller-only).
  pool.run(0, [&](int) { FAIL() << "no task should run"; });
  EXPECT_EQ(pool.runs(), 3);  // an empty run is not a round
  base::ThreadPool empty(0);
  std::atomic<int> count{0};
  empty.run(7, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 7);
  EXPECT_EQ(empty.runs(), 1);
  EXPECT_EQ(empty.tasks_executed(), 7);
  EXPECT_EQ(empty.peak_queue_depth(), 7);
}

TEST(ThreadPool, LeasesReuseIdlePoolsButNeverShareOne) {
  const base::ThreadPool* parked[2] = {nullptr, nullptr};
  {
    base::ThreadPool::Lease a = base::ThreadPool::lease(3);
    base::ThreadPool::Lease b = base::ThreadPool::lease(3);
    EXPECT_NE(a.get(), b.get()) << "two live leases share a pool";
    EXPECT_EQ(a->workers(), 3);
    std::atomic<int> ran{0};
    a->run(8, [&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
    parked[0] = a.get();
    parked[1] = b.get();
  }
  // Both pools are parked now; a lease of the same size takes one back,
  // a lease of another size does not.
  base::ThreadPool::Lease again = base::ThreadPool::lease(3);
  base::ThreadPool::Lease other = base::ThreadPool::lease(2);
  EXPECT_TRUE(again.get() == parked[0] || again.get() == parked[1]);
  EXPECT_EQ(other->workers(), 2);
  std::atomic<int> ran{0};
  again->run(8, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SlotIdsStayInRangeAndExceptionsPropagate) {
  base::ThreadPool pool(2);
  // Slots identify the executing thread: 0 = caller, 1..workers().
  std::atomic<bool> slot_out_of_range{false};
  pool.run(64, [&](int, int slot) {
    if (slot < 0 || slot > 2) slot_out_of_range.store(true);
  });
  EXPECT_FALSE(slot_out_of_range.load());
  // An exception from one task is rethrown from run() after every task
  // has finished, and the pool stays usable afterwards.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(10,
                        [&](int task) {
                          ran.fetch_add(1);
                          if (task == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
  std::atomic<int> after{0};
  pool.run(5, [&](int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 5);
}

TEST(ThreadPool, NestedRunOnSamePoolExecutesInline) {
  // Node-parallel evaluation nests odometer sharding inside antichain
  // batches on one pool; the contract (thread_pool.h) is that a task
  // calling run() on its own pool executes the nested batch inline —
  // every task still runs, no deadlock even when the outer batch
  // saturates all workers.
  base::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<bool> inner_slot_bad{false};
  const int kOuter = 8;   // > workers+1: every thread carries outer tasks
  const int kInner = 13;
  pool.run(kOuter, [&](int) {
    pool.run(kInner, [&](int, int slot) {
      // Inline execution reports the caller slot as 0.
      if (slot != 0) inner_slot_bad.store(true);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), kOuter * kInner);
  EXPECT_FALSE(inner_slot_bad.load());
  // The pool survives nesting and still fork-joins normally.
  std::atomic<int> after{0};
  pool.run(5, [&](int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 5);
}

TEST(ThreadPool, NestedRunPropagatesExceptionsAndCrossPoolNestingParks) {
  base::ThreadPool pool(2);
  // Inline nested run: an exception aborts the nested batch immediately
  // and propagates out through the outer run()'s late rethrow.
  std::atomic<int> nested_ran{0};
  EXPECT_THROW(
      pool.run(4,
               [&](int) {
                 pool.run(6, [&](int task) {
                   nested_ran.fetch_add(1);
                   if (task == 2) throw std::runtime_error("nested boom");
                 });
               }),
      std::runtime_error);
  // Each outer task's nested batch stopped at its throwing task (3 of 6).
  EXPECT_EQ(nested_ran.load() % 3, 0);
  EXPECT_GE(nested_ran.load(), 3);
  // Cross-pool nesting is not the inline path: a task on pool A doing a
  // fork-join on pool B gets B's real parallelism, and both pools stay
  // usable afterwards.
  // (one outer task: run() is single-entry per pool, so only one task may
  // drive `other` at a time)
  base::ThreadPool other(2);
  std::atomic<int> cross{0};
  pool.run(1, [&](int) {
    other.run(10, [&](int) { cross.fetch_add(1); });
  });
  EXPECT_EQ(cross.load(), 10);
  std::atomic<int> check{0};
  pool.run(4, [&](int) { check.fetch_add(1); });
  other.run(4, [&](int) { check.fetch_add(1); });
  EXPECT_EQ(check.load(), 8);
}

}  // namespace
}  // namespace bridge
