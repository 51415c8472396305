// Compiled-evaluator equivalence and bound-and-prune invariance.
//
// The TimingPlan evaluator with bound-and-prune (the library's only
// evaluation path) must reproduce the reference functional evaluator
// (tests/eval_reference.h: serial, unpruned) bit-for-bit at every node of
// the design space: same alternatives in the same order — implementation,
// child choices, exactly equal metric doubles — for every evaluated
// SpecNode, and the same extracted fronts and descriptions, across every
// component family DTAS synthesizes, all three registry libraries (the LSI
// and TTL built-ins plus the bundled Liberty import), serial and parallel
// evaluation, and both the favorable-tradeoff and the dense-sweep filter.
// Pruning must never change the filtered front under any
// dominance-respecting filter, and must stay off under FilterKind::kNone.
#include <gtest/gtest.h>

#include <set>

#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "eval_reference.h"
#include "liberty/liberty.h"
#include "netlist/netlist.h"
#include "sweep_datapath.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;

std::vector<std::pair<std::string, ComponentSpec>> test_specs() {
  std::vector<std::pair<std::string, ComponentSpec>> specs;
  auto add = [&](const std::string& label, ComponentSpec s) {
    specs.emplace_back(label, std::move(s));
  };
  for (Op fn : {Op::kAnd, Op::kNand, Op::kXor}) {
    add(genus::op_name(fn) + "8", genus::make_gate_spec(fn, 8, 2));
  }
  add("AndFanin7", genus::make_gate_spec(Op::kAnd, 1, 7));
  add("Not8", genus::make_gate_spec(Op::kLnot, 8));
  for (int inputs : {2, 4, 8, 11}) {
    add("Mux" + std::to_string(inputs) + "x8",
        genus::make_mux_spec(8, inputs));
  }
  for (int width : {1, 6, 8, 16, 32}) {
    add("Adder" + std::to_string(width), genus::make_adder_spec(width));
  }
  add("AdderNoCarries", genus::make_adder_spec(8, false, false));
  add("Subtractor8", genus::make_subtractor_spec(8));
  add("AddSub16", genus::make_addsub_spec(16));
  add("Mul8x8", genus::make_multiplier_spec(8, 8));
  add("Mul3x5", genus::make_multiplier_spec(3, 5));
  add("Cmp8", genus::make_comparator_spec(8, OpSet{Op::kEq, Op::kLt, Op::kGt}));
  add("Decoder4", genus::make_decoder_spec(4));
  add("Encoder3", genus::make_encoder_spec(3));
  add("Shifter8", genus::make_shifter_spec(8, OpSet{Op::kShl, Op::kShr}));
  add("Barrel16", genus::make_barrel_shifter_spec(16, OpSet{Op::kRotl}));
  add("Lu8", genus::make_logic_unit_spec(8, genus::alu16_logic_ops()));
  add("Alu8", genus::make_alu_spec(8, genus::alu16_ops()));
  add("Alu16", genus::make_alu_spec(16, genus::alu16_ops()));
  add("Alu32ArithOnly", genus::make_alu_spec(32, genus::alu16_arith_ops()));
  add("Register16", genus::make_register_spec(16));
  add("Counter8", genus::make_counter_spec(
                      8, OpSet{Op::kCountUp, Op::kLoad}));
  return specs;
}

/// The registry the satellite task names: both built-ins plus the bundled
/// Liberty import.
const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

using Front = std::vector<dtas::AlternativeDesign>;

Front synthesize_with(const cells::CellLibrary& lib,
                      const ComponentSpec& spec,
                      const dtas::SpaceOptions& opt,
                      dtas::SpaceStats* stats = nullptr) {
  dtas::Synthesizer synth(lib, opt);
  Front front = synth.synthesize(spec);
  if (stats != nullptr) *stats = synth.space().stats();
  return front;
}

/// Bit-for-bit front equality: exact double comparison on both metric
/// axes plus the human-readable implementation trace.
void expect_identical(const Front& a, const Front& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric.area, b[i].metric.area)
        << context << " alt " << i;
    EXPECT_EQ(a[i].metric.delay, b[i].metric.delay)
        << context << " alt " << i;
    EXPECT_EQ(a[i].description, b[i].description) << context << " alt " << i;
  }
}

/// Exact alternative-list equality: implementation index, child choices,
/// and both metric doubles.
void expect_identical(const std::vector<dtas::Alternative>& a,
                      const std::vector<dtas::Alternative>& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].impl_index, b[i].impl_index) << context << " alt " << i;
    EXPECT_EQ(a[i].child_alt, b[i].child_alt) << context << " alt " << i;
    EXPECT_EQ(a[i].metric.area, b[i].metric.area) << context << " alt " << i;
    EXPECT_EQ(a[i].metric.delay, b[i].metric.delay)
        << context << " alt " << i;
  }
}

/// Compare every SpecNode the compiled evaluation reached with the same
/// spec in the reference space: alternatives and dead-implementation
/// flags. Node-parallel evaluation (threads > 1) may evaluate nodes the
/// serial recursion skips (children of an implementation behind a dead
/// sibling); those are evaluated on the reference side on demand, so no
/// compiled node goes unchecked. Returns the number of nodes compared.
int expect_graphs_identical(dtas::DesignSpace& reference,
                            const dtas::SpecNode* compiled,
                            std::set<const dtas::SpecNode*>& visited,
                            const std::string& context) {
  if (!compiled->evaluated || !visited.insert(compiled).second) return 0;
  dtas::SpecNode* ref = reference.expand(compiled->spec);
  dtas::reference::evaluate(reference, ref);
  const std::string where = context + " @" + compiled->spec.key();
  expect_identical(compiled->alts, ref->alts, where);
  int compared = 1;
  EXPECT_EQ(compiled->impls.size(), ref->impls.size()) << where;
  for (size_t i = 0; i < compiled->impls.size() && i < ref->impls.size();
       ++i) {
    EXPECT_EQ(compiled->impls[i]->dead, ref->impls[i]->dead)
        << where << " impl " << i;
    for (const dtas::SpecNode* child : compiled->impls[i]->children) {
      compared += expect_graphs_identical(reference, child, visited, context);
    }
  }
  return compared;
}

/// Synthesize `spec` on the compiled evaluator, then on the reference
/// evaluator (a threads = 1 space with the same filter options), and
/// require identical alternatives at every evaluated node and identical
/// extracted fronts. The reference front is extracted by synthesize() from
/// the reference alternatives.
void expect_matches_reference(const cells::CellLibrary& lib,
                              const ComponentSpec& spec,
                              const dtas::SpaceOptions& compiled_options,
                              const std::string& context) {
  dtas::Synthesizer compiled(lib, compiled_options);
  const Front front = compiled.synthesize(spec);

  dtas::SpaceOptions reference_options = compiled_options;
  reference_options.threads = 1;
  dtas::Synthesizer reference(lib, reference_options);
  dtas::reference::evaluate(reference.space(),
                            reference.space().expand(spec));
  const Front reference_front = reference.synthesize(spec);
  EXPECT_EQ(reference.space().stats().combinations_evaluated, 0)
      << context << ": synthesize must extract the reference alternatives, "
                    "not re-evaluate them";
  expect_identical(front, reference_front, context);

  std::set<const dtas::SpecNode*> visited;
  const int compared = expect_graphs_identical(
      reference.space(), compiled.space().expand(spec), visited, context);
  EXPECT_GT(compared, 0) << context;
}

/// The same comparison for whole-netlist synthesis: per-spec alternatives
/// at every evaluated node, the netlist-level alternatives of the compiled
/// plan odometer against the reference odometer, and the extracted
/// front's metrics against the reference front.
void expect_netlist_matches_reference(const cells::CellLibrary& lib,
                                      const netlist::Module& input,
                                      const dtas::SpaceOptions& options,
                                      const std::string& context) {
  dtas::Synthesizer compiled(lib, options);
  const Front front = compiled.synthesize_netlist(input);
  const std::vector<dtas::Alternative> compiled_alts =
      dtas::reference::compiled_netlist_alternatives(compiled.space(), input);

  dtas::SpaceOptions reference_options = options;
  reference_options.threads = 1;
  dtas::Synthesizer reference(lib, reference_options);
  const dtas::reference::NetlistFront ref =
      dtas::reference::netlist_front(reference.space(), input);
  ASSERT_FALSE(ref.alts.empty()) << context;
  expect_identical(compiled_alts, ref.alts, context + " netlist odometer");
  ASSERT_EQ(front.size(), ref.alts.size()) << context;
  for (size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ(front[i].metric.area, ref.alts[i].metric.area)
        << context << " alt " << i;
    EXPECT_EQ(front[i].metric.delay, ref.alts[i].metric.delay)
        << context << " alt " << i;
  }
  std::set<const dtas::SpecNode*> visited;
  for (const dtas::SpecNode* root :
       dtas::reference::netlist_roots(compiled.space(), input)) {
    expect_graphs_identical(reference.space(), root, visited, context);
  }
}

TEST(TimingPlanEquivalence, MatchesReferenceEvaluatorAcrossLibraries) {
  ASSERT_EQ(registry().size(), 3);
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const auto& [label, spec] : test_specs()) {
      for (int threads : {1, 8}) {
        // The default favorable-tradeoff filter, and min_delay_gain = 0,
        // which keeps every non-dominated candidate — the regime where the
        // odometer (and the pruner) does real work.
        for (double gain : {dtas::SpaceOptions{}.min_delay_gain, 0.0}) {
          dtas::SpaceOptions compiled;
          compiled.threads = threads;
          compiled.min_delay_gain = gain;
          expect_matches_reference(
              *lib, spec, compiled,
              lib->name() + "/" + label + " t" + std::to_string(threads) +
                  " gain " + std::to_string(gain));
        }
      }
    }
  }
}

TEST(PruneInvariance, PruningNeverChangesTheFront) {
  long pruned = 0;
  for (const auto& [label, spec] : test_specs()) {
    expect_matches_reference(cells::lsi_library(), spec, {}, label);
    dtas::Synthesizer synth(cells::lsi_library());
    synth.synthesize(spec);
    pruned += synth.space().stats().combinations_pruned;
  }
  // The comparison above only means something if pruning engaged.
  EXPECT_GT(pruned, 0);
}

TEST(PruneInvariance, HoldsUnderEveryFilterKind) {
  const ComponentSpec alu = genus::make_alu_spec(16, genus::alu16_ops());
  for (dtas::FilterKind filter :
       {dtas::FilterKind::kPareto, dtas::FilterKind::kAreaOnly,
        dtas::FilterKind::kDelayOnly, dtas::FilterKind::kNone}) {
    dtas::SpaceOptions pruned;
    pruned.filter = filter;
    pruned.min_delay_gain = 0.0;
    const std::string context =
        "filter " + std::to_string(static_cast<int>(filter));
    if (filter != dtas::FilterKind::kNone) {
      expect_matches_reference(cells::lsi_library(), alu, pruned, context);
      continue;
    }
    // kNone keeps dominated candidates, so pruning must not engage. Every
    // candidate survives, so the unpruned reference walks ~200k
    // combinations of the ALU's space (seconds, minutes under the thread
    // sanitizer); the reference comparison uses an adder, whose kNone
    // space still fills every node's 24-alternative cap.
    dtas::SpaceStats pruned_stats;
    synthesize_with(cells::lsi_library(), alu, pruned, &pruned_stats);
    EXPECT_EQ(pruned_stats.combinations_pruned, 0) << context;
    expect_matches_reference(cells::lsi_library(), genus::make_adder_spec(16),
                             pruned, context + " adder16");
  }
}

TEST(PruneInvariance, StatsAccountForEveryCombination) {
  dtas::SpaceStats with_prune;
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  synthesize_with(cells::lsi_library(), spec, {}, &with_prune);
  dtas::Synthesizer reference(cells::lsi_library());
  const long enumerated = dtas::reference::evaluate(
      reference.space(), reference.space().expand(spec));
  EXPECT_GT(with_prune.combinations_pruned, 0);
  // Pruned or not, the odometer enumerates the same combinations.
  EXPECT_EQ(with_prune.combinations_evaluated + with_prune.combinations_pruned,
            enumerated);
}

netlist::Module make_test_datapath() {
  netlist::Module m("dp");
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
  const auto alu_out = m.add_net("alu_out", 8);
  const auto sum = m.add_net("sum", 8);
  const auto muxed = m.add_net("muxed", 8);

  auto& alu =
      m.add_spec_instance("alu0", genus::make_alu_spec(8, genus::alu16_ops()));
  m.connect(alu, "A", A);
  m.connect(alu, "B", B);
  m.connect(alu, "CI", CI);
  m.connect(alu, "F", F);
  m.connect(alu, "OUT", alu_out);
  auto& add =
      m.add_spec_instance("add0", genus::make_adder_spec(8, false, false));
  m.connect(add, "A", alu_out);
  m.connect(add, "B", C);
  m.connect(add, "S", sum);
  auto& cmp = m.add_spec_instance(
      "cmp0", genus::make_comparator_spec(8, OpSet{Op::kEq}));
  m.connect(cmp, "A", sum);
  m.connect(cmp, "B", C);
  m.connect(cmp, "EQ", EQ);
  auto& mux = m.add_spec_instance("mux0", genus::make_mux_spec(8, 2));
  m.connect(mux, "I0", alu_out);
  m.connect(mux, "I1", sum);
  m.connect(mux, "SEL", SEL);
  m.connect(mux, "OUT", muxed);
  auto& reg = m.add_spec_instance("reg0", genus::make_register_spec(8));
  m.connect(reg, "D", muxed);
  m.connect(reg, "CLK", CLK);
  m.connect(reg, "EN", EN);
  m.connect(reg, "ARST", ARST);
  m.connect(reg, "Q", OUT);
  return m;
}

TEST(TimingPlanEquivalence, NetlistSynthesisMatchesReference) {
  const netlist::Module input = make_test_datapath();
  EXPECT_TRUE(netlist::check_module(input).empty());
  for (const cells::CellLibrary* lib : registry().all()) {
    for (int threads : {1, 8}) {
      for (double gain : {0.10, 0.0}) {
        dtas::SpaceOptions compiled;
        compiled.min_delay_gain = gain;
        compiled.threads = threads;
        expect_netlist_matches_reference(
            *lib, input, compiled,
            lib->name() + " datapath t" + std::to_string(threads) +
                " gain " + std::to_string(gain));
      }
    }
  }
}

TEST(TimingPlanEquivalence, NetlistPruningNeverChangesTheFront) {
  const netlist::Module input = make_test_datapath();
  dtas::SpaceOptions pruned;
  pruned.min_delay_gain = 0.0;
  pruned.threads = 1;
  expect_netlist_matches_reference(cells::lsi_library(), input, pruned,
                                   "datapath prune invariance");
  dtas::Synthesizer a(cells::lsi_library(), pruned);
  a.synthesize_netlist(input);
  EXPECT_GT(a.space().stats().combinations_pruned, 0);
  // Every combination the reference enumerates, the pruned odometers
  // either evaluated or pruned.
  dtas::Synthesizer b(cells::lsi_library(), pruned);
  EXPECT_EQ(a.space().stats().combinations_evaluated +
                a.space().stats().combinations_pruned,
            dtas::reference::netlist_front(b.space(), input).combinations);
}

/// Whether trim_limits cut some child to a prefix of at least two
/// alternatives whose minimum delay is not alts[0]'s: a block bound that
/// read alts[0] instead of the prefix minimum would overestimate it.
bool trims_a_tradeoff(const std::vector<dtas::SpecNode*>& children,
                      const std::vector<int>& limit) {
  for (size_t c = 0; c < children.size(); ++c) {
    const auto& alts = children[c]->alts;
    if (limit[c] >= static_cast<int>(alts.size())) continue;
    for (int a = 1; a < limit[c]; ++a) {
      if (alts[a].metric.delay < alts[0].metric.delay) return true;
    }
  }
  return false;
}

TEST(TimingPlanEquivalence, BlockBoundsHoldOnTrimmedLimits) {
  // Caps small enough that trim_limits cuts the netlist-level odometer's
  // children below their alternative counts, so its block bounds take
  // minima over a strict prefix of each child's alternatives. The TTL and
  // Liberty books keep at most three alternatives per spec here, so only
  // the smallest cap trims them; the LSI book is trimmed at every cap.
  const std::vector<netlist::Module> inputs = {
      make_test_datapath(), testdata::make_sweep_datapath(16)};
  const std::vector<long> caps = {8, 64, 4096};
  std::set<std::string> libraries_trimmed;
  std::set<long> caps_trimmed;
  long skipped = 0;
  for (const cells::CellLibrary* lib : registry().all()) {
    for (long cap : caps) {
      for (int threads : {1, 8}) {
        dtas::SpaceOptions options;
        options.min_delay_gain = 0.0;
        options.max_combinations_per_impl = cap;
        options.threads = threads;
        for (const netlist::Module& input : inputs) {
          const std::string context = lib->name() + " cap " +
                                      std::to_string(cap) + " t" +
                                      std::to_string(threads) + " " +
                                      input.name();
          expect_netlist_matches_reference(*lib, input, options, context);
          dtas::Synthesizer synth(*lib, options);
          synth.synthesize_netlist(input);
          skipped += synth.space().stats().combinations_skipped;
          const std::vector<dtas::SpecNode*> roots =
              dtas::reference::netlist_roots(synth.space(), input);
          const std::vector<int> limit =
              dtas::reference::netlist_limits(synth.space(), roots);
          for (size_t c = 0; c < roots.size(); ++c) {
            if (limit[c] < static_cast<int>(roots[c]->alts.size())) {
              libraries_trimmed.insert(lib->name());
            }
          }
          if (trims_a_tradeoff(roots, limit)) caps_trimmed.insert(cap);
        }
      }
    }
  }
  // Every library had a child trimmed, and at every cap some trimmed
  // prefix still traded delay for area.
  EXPECT_EQ(libraries_trimmed.size(), registry().all().size());
  EXPECT_EQ(caps_trimmed.size(), caps.size());
  EXPECT_GT(skipped, 0);
}

TEST(ParetoFront, StaircaseSemantics) {
  dtas::ParetoFront front;
  // Nothing recorded: nothing dominates.
  EXPECT_FALSE(front.dominates_bound(100.0, 100.0));
  front.add(10.0, 50.0);
  front.add(20.0, 30.0);
  front.add(30.0, 10.0);
  // Strictly worse than (20, 30) on both axes.
  EXPECT_TRUE(front.dominates_bound(25.0, 40.0));
  // Cheaper than every recorded point: never dominated.
  EXPECT_FALSE(front.dominates_bound(5.0, 500.0));
  // Faster than the best recorded delay at its area: not dominated.
  EXPECT_FALSE(front.dominates_bound(25.0, 20.0));
  // A dominated insert must not weaken the front: (20, 30) still rules.
  front.add(25.0, 40.0);
  EXPECT_TRUE(front.dominates_bound(26.0, 35.0));
  EXPECT_FALSE(front.dominates_bound(26.0, 25.0));
  // A dominating insert replaces what it beats.
  front.add(5.0, 5.0);
  EXPECT_TRUE(front.dominates_bound(6.0, 6.0));
}

}  // namespace
}  // namespace bridge
