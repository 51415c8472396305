// Cache byte budgets and eviction: parse_cache_budget, footprint
// accounting, LRU eviction under pinning for both the process-wide
// TemplateCache and the per-Synthesizer ExtractionCache — and the
// governing invariant that budgets change memory use, never results:
// fronts, descriptions, and VHDL are byte-identical with budgets off,
// on-but-unhit, and under active eviction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cells/cell.h"
#include "dtas/design_space.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "netlist/netlist.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using dtas::AlternativeDesign;
using dtas::SpaceOptions;
using dtas::TemplateCache;
using genus::ComponentSpec;

/// The TemplateCache is process-wide; every test here restores it to
/// unbounded so the rest of the binary sees the default append-only
/// behavior.
struct BudgetGuard {
  ~BudgetGuard() { TemplateCache::global().set_budget_bytes(0); }
};

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

TEST(CacheBudgetTest, ParseCacheBudget) {
  EXPECT_EQ(dtas::parse_cache_budget("100000"), 100000);
  EXPECT_EQ(dtas::parse_cache_budget("0"), 0);
  EXPECT_EQ(dtas::parse_cache_budget("64k"), 64L * 1024);
  EXPECT_EQ(dtas::parse_cache_budget("64K"), 64L * 1024);
  EXPECT_EQ(dtas::parse_cache_budget("2m"), 2L * 1024 * 1024);
  EXPECT_EQ(dtas::parse_cache_budget("1g"), 1L * 1024 * 1024 * 1024);
  EXPECT_EQ(dtas::parse_cache_budget(""), -1);
  EXPECT_EQ(dtas::parse_cache_budget("abc"), -1);
  EXPECT_EQ(dtas::parse_cache_budget("12x"), -1);
  EXPECT_EQ(dtas::parse_cache_budget("12kb"), -1);
  // A sign or leading whitespace is malformed, not a budget.
  EXPECT_EQ(dtas::parse_cache_budget("-5"), -1);
  EXPECT_EQ(dtas::parse_cache_budget("+5"), -1);
  EXPECT_EQ(dtas::parse_cache_budget(" 7"), -1);
  // So is any value whose scaled byte count does not fit in a long.
  EXPECT_EQ(dtas::parse_cache_budget("17179869185g"), -1);
  EXPECT_EQ(dtas::parse_cache_budget("9223372036854775807k"), -1);
  EXPECT_EQ(dtas::parse_cache_budget("9223372036854775808"), -1);
  EXPECT_EQ(dtas::parse_cache_budget("99999999999999999999"), -1);
  // The largest representable budgets still parse.
  EXPECT_EQ(dtas::parse_cache_budget("9223372036854775807"),
            std::numeric_limits<long>::max());
  EXPECT_EQ(dtas::parse_cache_budget("8589934591g"), 8589934591L << 30);
}

TEST(CacheBudgetTest, ModuleFootprintGrowsWithContent) {
  netlist::Module empty("m");
  const std::size_t base = empty.approx_footprint_bytes();
  EXPECT_GE(base, sizeof(netlist::Module));

  netlist::Module mod("m2");
  mod.add_port("A", genus::PortDir::kIn, 8);
  mod.add_port("OUT", genus::PortDir::kOut, 8);
  auto& inst = mod.add_spec_instance(
      "u0", genus::make_gate_spec(genus::Op::kBuf, 8));
  mod.connect(inst, "I0", mod.find_net("A"));
  mod.connect(inst, "OUT", mod.find_net("OUT"));
  EXPECT_GT(mod.approx_footprint_bytes(), base);
}

TEST(CacheBudgetTest, ExtractionCacheEnvDefault) {
  setenv("BRIDGE_CACHE_BUDGET", "64k", 1);
  dtas::ExtractionCache budgeted;
  EXPECT_EQ(budgeted.budget_bytes(), 64u * 1024);
  setenv("BRIDGE_CACHE_BUDGET", "garbage", 1);
  dtas::ExtractionCache unparsable;
  EXPECT_EQ(unparsable.budget_bytes(), 0u);
  unsetenv("BRIDGE_CACHE_BUDGET");
  dtas::ExtractionCache unbounded;
  EXPECT_EQ(unbounded.budget_bytes(), 0u);
}

TEST(CacheBudgetTest, TemplateCacheEvictsUnpinnedUnderBudget) {
  BudgetGuard guard;
  TemplateCache& tc = TemplateCache::global();
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());

  FrontRecord expect;
  {
    dtas::Synthesizer synth(cells::lsi_library());
    expect = record_front(synth.synthesize(spec));
    ASSERT_FALSE(expect.areas.empty());
  }
  // The synthesizer is gone: nothing pins its entries any more.
  const auto before = tc.snapshot();
  ASSERT_GT(before.bytes, 0);
  ASSERT_GT(before.entries, 0);

  tc.set_budget_bytes(1);  // far below any entry: sweep everything
  const auto after = tc.snapshot();
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_LT(after.bytes, before.bytes);
  EXPECT_LT(after.entries, before.entries);

  // Results are unaffected: a re-synthesis recompiles what it needs and
  // produces a byte-identical front even while the budget forces
  // continuous eviction.
  {
    dtas::Synthesizer synth(cells::lsi_library());
    EXPECT_EQ(record_front(synth.synthesize(spec)), expect);
  }
  tc.set_budget_bytes(0);
}

TEST(CacheBudgetTest, TemplateCacheNeverEvictsPinnedEntries) {
  BudgetGuard guard;
  TemplateCache& tc = TemplateCache::global();
  const ComponentSpec spec = genus::make_adder_spec(32);

  dtas::Synthesizer synth(cells::lsi_library());
  const FrontRecord expect = record_front(synth.synthesize(spec));
  ASSERT_FALSE(expect.areas.empty());

  // The live DesignSpace holds shared_ptrs into its entries (ImplNode
  // tmpl/topo/plan): a brutal budget may not invalidate them. The budget
  // is a target, not a hard cap — and the synthesizer keeps working,
  // byte-identically, against the same space.
  tc.set_budget_bytes(1);
  EXPECT_EQ(record_front(synth.synthesize(spec)), expect);
  tc.set_budget_bytes(0);
}

TEST(CacheBudgetTest, UnhitBudgetsAreByteIdenticalWithZeroEvictions) {
  BudgetGuard guard;
  const ComponentSpec spec = genus::make_alu_spec(16, genus::alu16_ops());
  dtas::Synthesizer plain(cells::lsi_library());
  const FrontRecord expect = record_front(plain.synthesize(spec));

  SpaceOptions opt;
  opt.template_cache_budget_bytes = 1L << 30;  // far above working set
  opt.extraction_cache_budget_bytes = 1L << 30;
  dtas::Synthesizer budgeted(cells::lsi_library(), opt);
  const auto evictions_before = TemplateCache::global().snapshot().evictions;
  EXPECT_EQ(record_front(budgeted.synthesize(spec)), expect);
  EXPECT_EQ(TemplateCache::global().snapshot().evictions, evictions_before);
  EXPECT_EQ(budgeted.extraction_cache().stats().evictions, 0);
  TemplateCache::global().set_budget_bytes(0);
}

TEST(CacheBudgetTest, ExtractionCacheEvictsOnlyUnreferencedModules) {
  const ComponentSpec alu = genus::make_alu_spec(16, genus::alu16_ops());
  const ComponentSpec add = genus::make_adder_spec(32);
  dtas::Synthesizer plain(cells::lsi_library());
  const FrontRecord expect_alu = record_front(plain.synthesize(alu));
  const FrontRecord expect_add = record_front(plain.synthesize(add));

  SpaceOptions opt;
  opt.extraction_cache_budget_bytes = 1;  // every unpinned module evicts
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  auto front = synth.synthesize(alu);
  EXPECT_EQ(record_front(front), expect_alu);
  // Every cached module is referenced by a live design in `front`:
  // nothing was evictable, so the whole front is still resident.
  EXPECT_EQ(synth.extraction_cache().stats().evictions, 0);
  EXPECT_GT(synth.extraction_cache().size(), 0u);

  // Dropping the designs unpins the ALU modules; synthesizing a
  // different spec inserts fresh modules, and each insert's budget sweep
  // now evicts the unreferenced ones.
  front.clear();
  EXPECT_EQ(record_front(synth.synthesize(add)), expect_add);
  EXPECT_GT(synth.extraction_cache().stats().evictions, 0);

  // The evicted subtrees re-materialize byte-identically: the session
  // name table and describe memos survive eviction by design.
  EXPECT_EQ(record_front(synth.synthesize(alu)), expect_alu);
}

TEST(CacheBudgetTest, SetBudgetSweepsImmediately) {
  const ComponentSpec spec = genus::make_adder_spec(32);
  dtas::Synthesizer synth(cells::lsi_library());
  { auto front = synth.synthesize(spec); }  // materialize, then unpin
  auto& cache = synth.extraction_cache();
  const auto resident = cache.stats().bytes;
  ASSERT_GT(resident, 0);
  cache.set_budget_bytes(1);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_LT(cache.stats().bytes, resident);
  EXPECT_EQ(cache.size(), 0u) << "nothing was pinned: full sweep";
  cache.set_budget_bytes(0);
  // The session name table survives: re-synthesis is byte-identical.
  dtas::Synthesizer fresh(cells::lsi_library());
  EXPECT_EQ(record_front(synth.synthesize(spec)),
            record_front(fresh.synthesize(spec)));
}

}  // namespace
}  // namespace bridge
