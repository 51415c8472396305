// Expansion-side caching and contracts.
//
// The template cache must be transparent: a design space whose rules are
// all wrapped uncacheable (tests/eval_reference.h — every expansion
// re-runs TemplateBuilder + plan compilation) and one over the plain rules
// (expansions served from the process-wide cache, warm or cold) must
// produce the same
// SpecNode graph, the same filtered fronts, the same descriptions, and the
// same emitted VHDL, against every registry library. The remaining tests
// pin the expansion-side contracts this PR tightened: gate_many's
// single-pick rules, RuleBase's indexed name lookup, and connect_const's
// width masking.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/diag.h"
#include "cells/registry.h"
#include "dtas/design_space.h"
#include "dtas/rule.h"
#include "dtas/synthesizer.h"
#include "eval_reference.h"
#include "genus/spec.h"
#include "netlist/netlist.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using dtas::DesignSpace;
using dtas::SpaceOptions;
using dtas::SpecNode;
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

/// Deterministic structural signature of an expanded design-space graph:
/// every reachable spec with its implementations (cell names for leaves,
/// rule name + distinct child keys for decompositions), depth-first.
void graph_signature(const SpecNode* node, std::set<std::string>& visited,
                     std::ostringstream& os) {
  const std::string key = node->spec.key();
  if (!visited.insert(key).second) return;
  os << key << " {";
  for (const auto& impl : node->impls) {
    if (impl->is_leaf()) {
      os << " cell:" << impl->cell->name;
    } else {
      os << " rule:" << impl->rule_name << "(";
      for (const SpecNode* child : impl->children) {
        os << child->spec.key() << ";";
      }
      os << ")#i" << impl->tmpl->instances().size() << "n"
         << impl->tmpl->nets().size() << "t" << impl->plan->num_steps();
    }
  }
  os << " }\n";
  for (const auto& impl : node->impls) {
    for (const SpecNode* child : impl->children) {
      graph_signature(child, visited, os);
    }
  }
}

struct SynthesisRecord {
  std::string graph;
  std::vector<double> areas, delays;
  std::vector<std::string> descriptions;
  std::vector<std::string> vhdl;
  dtas::SpaceStats stats;
};

SynthesisRecord synthesize_record(const cells::CellLibrary& lib,
                                  const ComponentSpec& spec,
                                  bool use_cache) {
  dtas::RuleBase rules = dtas::default_rules_for(lib);
  if (!use_cache) rules = dtas::reference::uncacheable(std::move(rules));
  dtas::Synthesizer synth(std::move(rules), lib);
  auto alts = synth.synthesize(spec);
  SynthesisRecord rec;
  for (const auto& a : alts) {
    rec.areas.push_back(a.metric.area);
    rec.delays.push_back(a.metric.delay);
    rec.descriptions.push_back(a.description);
    rec.vhdl.push_back(vhdl::emit_structural(*a.design));
  }
  std::ostringstream os;
  std::set<std::string> visited;
  graph_signature(synth.space().expand(spec), visited, os);
  rec.graph = os.str();
  rec.stats = synth.space().stats();
  return rec;
}

TEST(ExpandCacheTest, CacheOnOffBitIdenticalAcrossLibraries) {
  const std::vector<ComponentSpec> specs = {
      genus::make_alu_spec(16, genus::alu16_ops()),
      genus::make_adder_spec(32),
      genus::make_mux_spec(8, 4),
  };
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const ComponentSpec& spec : specs) {
      SCOPED_TRACE(lib->name() + " / " + spec.key());
      // Cold or warm is irrelevant to the contract; run the cached side
      // twice so at least the second pass is guaranteed warm.
      SynthesisRecord off = synthesize_record(*lib, spec, false);
      SynthesisRecord cold = synthesize_record(*lib, spec, true);
      SynthesisRecord warm = synthesize_record(*lib, spec, true);
      for (const SynthesisRecord* on : {&cold, &warm}) {
        EXPECT_EQ(off.graph, on->graph);
        EXPECT_EQ(off.areas, on->areas);        // exact double equality
        EXPECT_EQ(off.delays, on->delays);      // exact double equality
        EXPECT_EQ(off.descriptions, on->descriptions);
        EXPECT_EQ(off.vhdl, on->vhdl);
        // The expansion structure the stats describe must match too.
        EXPECT_EQ(off.stats.spec_nodes, on->stats.spec_nodes);
        EXPECT_EQ(off.stats.impl_nodes, on->stats.impl_nodes);
        EXPECT_EQ(off.stats.leaf_impls, on->stats.leaf_impls);
        EXPECT_EQ(off.stats.rule_applications, on->stats.rule_applications);
        EXPECT_EQ(off.stats.rejected_templates,
                  on->stats.rejected_templates);
        EXPECT_EQ(off.stats.dead_specs, on->stats.dead_specs);
      }
      // The uncacheable rule base never touches the cache — which is what
      // makes it the uncached oracle; the plain one consults it for every
      // (cacheable) rule application, and the warm pass hits every time.
      EXPECT_EQ(off.stats.template_cache_hits +
                    off.stats.template_cache_misses,
                0);
      EXPECT_GT(off.stats.rule_applications, 0);
      EXPECT_EQ(cold.stats.template_cache_hits +
                    cold.stats.template_cache_misses,
                cold.stats.rule_applications);
      EXPECT_EQ(warm.stats.template_cache_hits,
                warm.stats.rule_applications);
      EXPECT_EQ(warm.stats.template_cache_misses, 0);
      EXPECT_GT(warm.stats.template_cache_hits, 0);
    }
  }
}

TEST(ExpandCacheTest, CachedImplsShareTemplateStorage) {
  // Two spaces over the same library must point at one compiled template.
  const cells::CellLibrary& lib = *registry().all().front();
  SpaceOptions opt;
  auto rules = dtas::default_rules_for(lib);
  DesignSpace a(rules, lib, opt), b(rules, lib, opt);
  const ComponentSpec spec = genus::make_adder_spec(32);
  SpecNode* na = a.expand(spec);
  SpecNode* nb = b.expand(spec);
  ASSERT_EQ(na->impls.size(), nb->impls.size());
  bool shared_any = false;
  for (size_t i = 0; i < na->impls.size(); ++i) {
    if (na->impls[i]->is_leaf()) continue;
    EXPECT_EQ(na->impls[i]->tmpl.get(), nb->impls[i]->tmpl.get());
    EXPECT_EQ(na->impls[i]->plan.get(), nb->impls[i]->plan.get());
    shared_any = true;
  }
  EXPECT_TRUE(shared_any);
}

TEST(GateManyTest, SinglePickAndOrIsABuffer) {
  for (Op fn : {Op::kAnd, Op::kOr}) {
    dtas::TemplateBuilder t(genus::make_gate_spec(Op::kAnd, 1, 2),
                            "single_pick");
    netlist::NetIndex out =
        t.gate_many(fn, {{t.port("I0"), 0}});
    EXPECT_NE(out, netlist::kNoNet);
    const auto& inst = t.module().instances().back();
    EXPECT_EQ(inst.spec.kind, genus::Kind::kGate);
    EXPECT_TRUE(inst.spec.ops == OpSet{Op::kBuf});
  }
}

TEST(GateManyTest, SinglePickLnotIsAnInverter) {
  dtas::TemplateBuilder t(genus::make_gate_spec(Op::kAnd, 1, 2), "lnot_pick");
  t.gate_many(Op::kLnot, {{t.port("I0"), 0}});
  const auto& inst = t.module().instances().back();
  EXPECT_TRUE(inst.spec.ops == OpSet{Op::kLnot});
  EXPECT_EQ(inst.spec.size, 1);
}

TEST(GateManyTest, SinglePickWithoutIdentityReadingThrows) {
  dtas::TemplateBuilder t(genus::make_gate_spec(Op::kAnd, 1, 2), "bad_pick");
  for (Op fn : {Op::kNor, Op::kNand, Op::kXor, Op::kXnor}) {
    EXPECT_THROW(t.gate_many(fn, {{t.port("I0"), 0}}), Error)
        << genus::op_name(fn);
  }
  EXPECT_THROW(t.gate_many(Op::kAnd, {}), Error);
}

TEST(GateManyTest, WideConstSliceChunksInto64BitTies) {
  // const_slice beyond 64 bits must tie in <=64-bit chunks: a PortConn
  // carries at most 64 constant bits, and the 256-bit barrel-shift stages
  // zero-fill 128-bit halves through exactly this path.
  dtas::TemplateBuilder t(genus::make_gate_spec(Op::kBuf, 130), "wide_tie");
  netlist::NetIndex dst = t.fresh("z", 130);
  t.const_slice(dst, 0, 130, true);
  const auto& insts = t.module().instances();
  ASSERT_EQ(insts.size(), 3u);  // 64 + 64 + 2
  int covered = 0;
  for (const auto& inst : insts) {
    EXPECT_LE(inst.spec.width, 64);
    const auto it = inst.connections.find(base::Symbol("I0"));
    ASSERT_NE(it, inst.connections.end());
    const std::uint64_t expect =
        inst.spec.width >= 64 ? ~0ULL : ((1ULL << inst.spec.width) - 1);
    EXPECT_EQ(it->second.const_value, expect);
    covered += inst.spec.width;
  }
  EXPECT_EQ(covered, 130);
  // Complete the template (tie -> OUT) and it must pass DRC: every z bit
  // driven exactly once by the chunked ties.
  t.buf_slice(dst, 0, t.port("OUT"), 0, 130);
  EXPECT_TRUE(netlist::check_module(t.module()).empty());
}

TEST(ExpandCacheTest, UncacheableLambdaRuleBypassesTheCache) {
  // Two same-named lambda rules with different expansions must never see
  // each other's templates when constructed with cacheable = false.
  const cells::CellLibrary& lib = *registry().all().front();
  auto make_base = [&](int fanin) {
    dtas::RuleBase base;
    base.add(std::make_unique<dtas::LambdaRule>(
        "custom-split", "test", false,
        [](const ComponentSpec& s, const dtas::RuleContext&) {
          return s.kind == genus::Kind::kGate && s.width == 2 &&
                 s.ops == genus::OpSet{Op::kAnd};
        },
        [fanin](const ComponentSpec& s, const dtas::RuleContext&) {
          // Expansion depends on captured state — impure in (name, spec).
          dtas::TemplateBuilder t(s, "split" + std::to_string(fanin));
          auto& g = t.add("g", genus::make_gate_spec(Op::kAnd, 1, fanin));
          for (int i = 0; i < fanin; ++i) {
            t.connect(g, "I" + std::to_string(i), t.port("I0"), 0);
          }
          netlist::NetIndex o = t.fresh("o", 1);
          t.connect(g, "OUT", o);
          t.buf_slice(o, 0, t.port("OUT"), 0, 1);
          t.buf_slice(o, 0, t.port("OUT"), 1, 1);
          std::vector<netlist::Module> out;
          out.push_back(std::move(t).take());
          return out;
        },
        /*cacheable=*/false));
    return base;
  };
  const ComponentSpec spec = genus::make_gate_spec(Op::kAnd, 2, 2);
  dtas::RuleBase base2 = make_base(2), base3 = make_base(3);
  dtas::DesignSpace s2(base2, lib, {}), s3(base3, lib, {});
  SpecNode* n2 = s2.expand(spec);
  SpecNode* n3 = s3.expand(spec);
  auto decomp_fanin = [](const SpecNode* n) {
    for (const auto& impl : n->impls) {
      if (!impl->is_leaf()) return impl->tmpl->instances().front().spec.size;
    }
    return -1;
  };
  EXPECT_EQ(decomp_fanin(n2), 2);
  EXPECT_EQ(decomp_fanin(n3), 3) << "base3 must not inherit base2's cached "
                                    "template under the shared rule name";
  EXPECT_EQ(s2.stats().template_cache_hits, 0);
  EXPECT_EQ(s2.stats().template_cache_misses, 0);
  EXPECT_EQ(s3.stats().template_cache_hits, 0);
  EXPECT_EQ(s3.stats().template_cache_misses, 0);
}

TEST(RuleBaseTest, IndexedFindMatchesRegistration) {
  dtas::RuleBase base;
  dtas::register_standard_rules(base);
  ASSERT_GT(base.total_count(), 10);
  for (const auto& rule : base.rules()) {
    EXPECT_EQ(base.find(rule->name()), rule.get());
  }
  EXPECT_EQ(base.find("no-such-rule"), nullptr);
  EXPECT_THROW(base.add(dtas::make_ripple_adder_rule(
                   /*group_width=*/1, /*library_specific=*/false)),
               Error)
      << "duplicate registration must still be rejected through the index";
}

TEST(ConnectConstTest, MasksValueToPortWidth) {
  netlist::Module m("mask");
  netlist::NetIndex out = m.add_port("O", genus::PortDir::kOut, 4);
  auto& inst = m.add_spec_instance("g0", genus::make_gate_spec(Op::kBuf, 4));
  m.connect(inst, "OUT", out);
  m.connect_const(inst, "I0", ~0ULL);  // the const_slice(value=true) tie
  const auto it = inst.connections.find(base::Symbol("I0"));
  ASSERT_NE(it, inst.connections.end());
  EXPECT_EQ(it->second.const_value, 0xFULL) << "must be masked to width 4";

  // Full 64-bit ports keep every bit.
  netlist::Module m64("mask64");
  netlist::NetIndex o64 = m64.add_port("O", genus::PortDir::kOut, 64);
  auto& i64 = m64.add_spec_instance("g0", genus::make_gate_spec(Op::kBuf, 64));
  m64.connect(i64, "OUT", o64);
  m64.connect_const(i64, "I0", ~0ULL);
  EXPECT_EQ(i64.connections.find(base::Symbol("I0"))->second.const_value,
            ~0ULL);
}

TEST(ConnectConstTest, RejectsPortsWiderThan64) {
  netlist::Module m("wide");
  netlist::NetIndex out = m.add_port("O", genus::PortDir::kOut, 65);
  auto& inst = m.add_spec_instance("g0", genus::make_gate_spec(Op::kBuf, 65));
  m.connect(inst, "OUT", out);
  EXPECT_THROW(m.connect_const(inst, "I0", 1), Error);
}

}  // namespace
}  // namespace bridge
