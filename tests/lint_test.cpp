// Structural-linter tests (src/lint):
//  - one hand-built violating netlist per check class, each pinned to the
//    exact diagnostic (check id, object, severity) it must produce;
//  - negative controls for the false-positive traps (bit-sliced ripple
//    buses, legal open outputs);
//  - a clean-pass sweep: every front synthesized against every bundled
//    library, across cache toggles and thread counts, lints clean, and
//    fronts are byte-identical (descriptions + VHDL) with
//    SpaceOptions::verify_designs on or off;
//  - the rule-template checker over every template the built-in and
//    LOLA-induced rule sets produce for the bundled libraries, pinned
//    clean.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "base/diag.h"
#include "cells/registry.h"
#include "dtas/design_space.h"
#include "dtas/rule.h"
#include "dtas/synthesizer.h"
#include "eval_reference.h"
#include "genus/optype.h"
#include "genus/spec.h"
#include "lint/lint.h"
#include "lola/lola.h"
#include "netlist/netlist.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using genus::Op;
using genus::OpSet;
using genus::PortDir;
using netlist::Design;
using netlist::Instance;
using netlist::Module;
using netlist::NetIndex;
using netlist::PortConn;
using netlist::RefKind;

const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

/// Assert `diags` is exactly one error with the given check id and
/// object, and return it for further message checks.
lint::Diagnostic expect_single_error(const std::vector<lint::Diagnostic>& diags,
                                     const std::string& check,
                                     const std::string& object) {
  EXPECT_EQ(diags.size(), 1u) << lint::render(diags);
  if (diags.empty()) return {};
  const lint::Diagnostic& d = diags.front();
  EXPECT_EQ(d.severity, lint::Severity::kError);
  EXPECT_EQ(d.check, check) << d.to_string();
  EXPECT_EQ(d.object, object) << d.to_string();
  EXPECT_TRUE(lint::has_errors(diags));
  return d;
}

// ---------------------------------------------------------------------
// Per-violation-class fixtures.
// ---------------------------------------------------------------------

TEST(LintModule, MultiDrivenNet) {
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  NetIndex o = m.add_port("O", PortDir::kOut, 1);
  for (int i = 0; i < 2; ++i) {
    Instance& g = m.add_spec_instance("g" + std::to_string(i),
                                      genus::make_gate_spec(Op::kLnot, 1));
    m.connect(g, "I0", a);
    m.connect(g, "OUT", o);
  }
  auto d = expect_single_error(lint::lint_module(m), "multi-driven-net", "O");
  EXPECT_NE(d.message.find("2 drivers"), std::string::npos) << d.message;
}

TEST(LintModule, UndrivenNet) {
  Module m("top");
  NetIndex x = m.add_net("x", 1);
  NetIndex o = m.add_port("O", PortDir::kOut, 1);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kLnot, 1));
  m.connect(g, "I0", x);
  m.connect(g, "OUT", o);
  auto d = expect_single_error(lint::lint_module(m), "undriven-net", "x");
  EXPECT_NE(d.message.find("driven by nothing"), std::string::npos);
}

TEST(LintModule, FloatingInput) {
  Module m("top");
  NetIndex o = m.add_port("O", PortDir::kOut, 1);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kLnot, 1));
  m.connect(g, "OUT", o);
  expect_single_error(lint::lint_module(m), "floating-input", "g.I0");
}

TEST(LintModule, OpenOutputIsLegal) {
  // The netlist contract: "Open is only legal for outputs". A dropped
  // carry-out must not lint.
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 4);
  NetIndex b = m.add_port("B", PortDir::kIn, 4);
  NetIndex s = m.add_port("S", PortDir::kOut, 4);
  Instance& add = m.add_spec_instance(
      "add", genus::make_adder_spec(4, /*carry_in=*/false, /*carry_out=*/true));
  m.connect(add, "A", a);
  m.connect(add, "B", b);
  m.connect(add, "S", s);  // CO left open on purpose
  EXPECT_TRUE(lint::lint_module(m).empty())
      << lint::render(lint::lint_module(m));
}

TEST(LintModule, WidthMismatchSliceOverflow) {
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 8);
  NetIndex o = m.add_port("O", PortDir::kOut, 4);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kBuf, 4));
  // connect() rejects this slice; the linter must catch a hand-wired one.
  g.connections["I0"] = PortConn::to_net(a, 5);  // [5, 9) overflows width 8
  m.connect(g, "OUT", o);
  auto d = expect_single_error(lint::lint_module(m), "width-mismatch", "g.I0");
  EXPECT_NE(d.message.find("overflows"), std::string::npos) << d.message;
}

TEST(LintModule, WidthMismatchReplicatedSourceBit) {
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 2);
  NetIndex o = m.add_port("O", PortDir::kOut, 4);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kBuf, 4));
  g.connections["I0"] = PortConn::replicated(a, 7);  // bit 7 of a 2-bit net
  m.connect(g, "OUT", o);
  expect_single_error(lint::lint_module(m), "width-mismatch", "g.I0");
}

TEST(LintModule, UnknownPort) {
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  NetIndex o = m.add_port("O", PortDir::kOut, 1);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kLnot, 1));
  m.connect(g, "I0", a);
  m.connect(g, "OUT", o);
  g.connections["BOGUS"] = PortConn::to_net(a);
  expect_single_error(lint::lint_module(m), "unknown-port", "g.BOGUS");
}

TEST(LintModule, DanglingNet) {
  Module m("top");
  NetIndex o = m.add_port("O", PortDir::kOut, 1);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kLnot, 1));
  g.connections["I0"] = PortConn::to_net(99);
  m.connect(g, "OUT", o);
  expect_single_error(lint::lint_module(m), "dangling-net", "g.I0");
}

TEST(LintModule, ConstTieOnOutput) {
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kLnot, 1));
  m.connect(g, "I0", a);
  g.connections["OUT"] = PortConn::constant(1);
  auto d = expect_single_error(lint::lint_module(m), "const-tie", "g.OUT");
  EXPECT_NE(d.message.find("output"), std::string::npos) << d.message;
}

TEST(LintModule, ConstTieOverflowsPortWidth) {
  Module m("top");
  NetIndex o = m.add_port("O", PortDir::kOut, 4);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kBuf, 4));
  // connect_const() masks to the port width; hand-wire the raw value.
  g.connections["I0"] = PortConn::constant(0x10);  // needs 5 bits
  m.connect(g, "OUT", o);
  auto d = expect_single_error(lint::lint_module(m), "const-tie", "g.I0");
  EXPECT_NE(d.message.find("does not fit"), std::string::npos) << d.message;
}

TEST(LintModule, CombLoop) {
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  NetIndex x = m.add_net("x", 1);
  NetIndex y = m.add_net("y", 1);
  Instance& g0 =
      m.add_spec_instance("g0", genus::make_gate_spec(Op::kXor, 1, 2));
  m.connect(g0, "I0", a);
  m.connect(g0, "I1", y);
  m.connect(g0, "OUT", x);
  Instance& g1 = m.add_spec_instance("g1", genus::make_gate_spec(Op::kLnot, 1));
  m.connect(g1, "I0", x);
  m.connect(g1, "OUT", y);
  auto d = expect_single_error(lint::lint_module(m), "comb-loop", "g0");
  EXPECT_NE(d.message.find("g0 g1"), std::string::npos) << d.message;
}

TEST(LintModule, RegisterBreaksLoop) {
  // The same topology with a register in the feedback path is a plain
  // sequential circuit, not a loop.
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  NetIndex clk = m.add_port("CLK", PortDir::kIn, 1);
  NetIndex x = m.add_net("x", 1);
  NetIndex y = m.add_net("y", 1);
  Instance& g0 =
      m.add_spec_instance("g0", genus::make_gate_spec(Op::kXor, 1, 2));
  m.connect(g0, "I0", a);
  m.connect(g0, "I1", y);
  m.connect(g0, "OUT", x);
  Instance& r = m.add_spec_instance(
      "r", genus::make_register_spec(1, /*enable=*/false, /*areset=*/false));
  m.connect(r, "D", x);
  m.connect(r, "CLK", clk);
  m.connect(r, "Q", y);
  EXPECT_TRUE(lint::lint_module(m).empty())
      << lint::render(lint::lint_module(m));
}

TEST(LintModule, BitSlicedBusIsNotALoop) {
  // Two buffers chained through different bits of one bus: a net-granular
  // loop check would see bus -> bus and false-positive; the bit-granular
  // one must not.
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  NetIndex o = m.add_port("O", PortDir::kOut, 1);
  NetIndex bus = m.add_net("bus", 2);
  Instance& g0 = m.add_spec_instance("g0", genus::make_gate_spec(Op::kBuf, 1));
  m.connect(g0, "I0", a);
  m.connect(g0, "OUT", bus, 0);
  Instance& g1 = m.add_spec_instance("g1", genus::make_gate_spec(Op::kBuf, 1));
  m.connect(g1, "I0", bus, 0);
  m.connect(g1, "OUT", bus, 1);
  Instance& g2 = m.add_spec_instance("g2", genus::make_gate_spec(Op::kBuf, 1));
  m.connect(g2, "I0", bus, 1);
  m.connect(g2, "OUT", o);
  EXPECT_TRUE(lint::lint_module(m).empty())
      << lint::render(lint::lint_module(m));
}

TEST(LintModule, DanglingModuleRefNull) {
  Module m("top");
  Instance& u = m.add_spec_instance("u", genus::make_gate_spec(Op::kBuf, 1));
  u.ref = RefKind::kModule;
  u.module = nullptr;
  expect_single_error(lint::lint_module(m), "dangling-module-ref", "u");
}

TEST(LintDesign, DanglingModuleRefOutsideDesign) {
  Module child("child");
  NetIndex ci = child.add_port("I", PortDir::kIn, 1);
  NetIndex co = child.add_port("O", PortDir::kOut, 1);
  Instance& g =
      child.add_spec_instance("g", genus::make_gate_spec(Op::kBuf, 1));
  child.connect(g, "I0", ci);
  child.connect(g, "OUT", co);

  Design d("d");
  Module& top = d.add_module("top");
  NetIndex a = top.add_port("A", PortDir::kIn, 1);
  NetIndex o = top.add_port("O", PortDir::kOut, 1);
  Instance& u0 = top.add_module_instance("u0", &child,
                                         genus::make_gate_spec(Op::kBuf, 1));
  top.connect(u0, "I", a);
  top.connect(u0, "O", o);
  d.set_top(&top);

  auto diag =
      expect_single_error(lint::lint_design(d), "dangling-module-ref", "u0");
  EXPECT_NE(diag.message.find("not part of the design"), std::string::npos)
      << diag.message;
}

TEST(LintModule, NetNameCollisionCaseInsensitive) {
  Module m("top");
  m.add_net("foo", 1);
  m.add_net("FOO", 1);  // distinct netlist names, one VHDL identifier
  auto d =
      expect_single_error(lint::lint_module(m), "name-collision", "FOO");
  EXPECT_NE(d.message.find("'foo'"), std::string::npos) << d.message;
}

TEST(LintDesign, ModuleNameCollisionCaseInsensitive) {
  Design d("d");
  d.add_module("Alpha");
  d.add_module("alpha");
  expect_single_error(lint::lint_design(d), "name-collision", "alpha");
}

TEST(LintModule, ReservedModuleName) {
  Module m("register");  // VHDL-87 reserved word as an entity name
  auto d = expect_single_error(lint::lint_module(m), "illegal-name",
                               "register");
  EXPECT_NE(d.message.find("reserved"), std::string::npos) << d.message;
}

TEST(LintModule, ReservedPortNameIsAccepted) {
  // "OUT" is the standard result-port name across spec_ports; only module
  // names are screened for reserved words.
  Module m("top");
  NetIndex a = m.add_port("A", PortDir::kIn, 1);
  NetIndex o = m.add_port("OUT", PortDir::kOut, 1);
  Instance& g = m.add_spec_instance("g", genus::make_gate_spec(Op::kBuf, 1));
  m.connect(g, "I0", a);
  m.connect(g, "OUT", o);
  EXPECT_TRUE(lint::lint_module(m).empty())
      << lint::render(lint::lint_module(m));
}

TEST(LintDiagnostic, ToStringFormat) {
  lint::Diagnostic d;
  d.severity = lint::Severity::kError;
  d.check = "multi-driven-net";
  d.module = "top";
  d.object = "o";
  d.message = "bit 0 has 2 drivers";
  EXPECT_EQ(d.to_string(), "error[multi-driven-net] top/o: bit 0 has 2 drivers");
  d.severity = lint::Severity::kWarning;
  d.object.clear();
  EXPECT_EQ(d.to_string(), "warning[multi-driven-net] top: bit 0 has 2 drivers");
  EXPECT_FALSE(lint::has_errors({d}));
}

// ---------------------------------------------------------------------
// Rule-template checker fixtures.
// ---------------------------------------------------------------------

/// A minimal well-formed template: one buffer child covering A -> O.
Module make_buf_template() {
  Module t("tmpl");
  NetIndex a = t.add_port("A", PortDir::kIn, 4);
  NetIndex o = t.add_port("O", PortDir::kOut, 4);
  Instance& u = t.add_spec_instance("u", genus::make_gate_spec(Op::kBuf, 4));
  t.connect(u, "I0", a);
  t.connect(u, "OUT", o);
  return t;
}

TEST(CheckTemplate, CleanTemplatePasses) {
  Module t = make_buf_template();
  auto diags = lint::check_template(t, {genus::make_gate_spec(Op::kBuf, 4)});
  EXPECT_TRUE(diags.empty()) << lint::render(diags);
}

TEST(CheckTemplate, InstanceSpecMissingFromList) {
  Module t = make_buf_template();
  auto d = expect_single_error(lint::check_template(t, {}),
                               "template-spec-mismatch", "u");
  EXPECT_NE(d.message.find("missing from the template's child spec list"),
            std::string::npos)
      << d.message;
}

TEST(CheckTemplate, ListedSpecNeverInstantiated) {
  Module t = make_buf_template();
  const genus::ComponentSpec unused = genus::make_adder_spec(8);
  auto diags = lint::check_template(
      t, {genus::make_gate_spec(Op::kBuf, 4), unused});
  expect_single_error(diags, "unused-child-spec", unused.key());
}

TEST(CheckTemplate, NonSpecInstanceRejected) {
  Module child("child");
  NetIndex ci = child.add_port("I", PortDir::kIn, 1);
  NetIndex co = child.add_port("O", PortDir::kOut, 1);
  Instance& g =
      child.add_spec_instance("g", genus::make_gate_spec(Op::kBuf, 1));
  child.connect(g, "I0", ci);
  child.connect(g, "OUT", co);

  Module t("tmpl");
  NetIndex a = t.add_port("A", PortDir::kIn, 1);
  NetIndex o = t.add_port("O", PortDir::kOut, 1);
  Instance& u =
      t.add_module_instance("u", &child, genus::make_gate_spec(Op::kBuf, 1));
  t.connect(u, "I", a);
  t.connect(u, "O", o);
  auto d = expect_single_error(lint::check_template(t, {}),
                               "template-spec-mismatch", "u");
  EXPECT_NE(d.message.find("not a spec reference"), std::string::npos)
      << d.message;
}

// ---------------------------------------------------------------------
// Clean-pass sweep: real fronts lint clean, and verify is read-only.
// ---------------------------------------------------------------------

/// A small §6-style datapath of spec instances for synthesize_netlist.
Module make_datapath(int w) {
  Module m("sweeppath" + std::to_string(w));
  NetIndex a = m.add_port("A", PortDir::kIn, w);
  NetIndex b = m.add_port("B", PortDir::kIn, w);
  NetIndex ci = m.add_port("CI", PortDir::kIn, 1);
  NetIndex f = m.add_port("F", PortDir::kIn, 4);
  NetIndex clk = m.add_port("CLK", PortDir::kIn, 1);
  NetIndex en = m.add_port("EN", PortDir::kIn, 1);
  NetIndex arst = m.add_port("ARST", PortDir::kIn, 1);
  NetIndex out = m.add_port("OUT", PortDir::kOut, w);

  NetIndex ra = m.add_net("ra", w);
  NetIndex alu_out = m.add_net("alu_out", w);

  Instance& rin = m.add_spec_instance("rin", genus::make_register_spec(w));
  m.connect(rin, "D", a);
  m.connect(rin, "CLK", clk);
  m.connect(rin, "EN", en);
  m.connect(rin, "ARST", arst);
  m.connect(rin, "Q", ra);

  Instance& alu =
      m.add_spec_instance("alu0", genus::make_alu_spec(w, genus::alu16_ops()));
  m.connect(alu, "A", ra);
  m.connect(alu, "B", b);
  m.connect(alu, "CI", ci);
  m.connect(alu, "F", f);
  m.connect(alu, "OUT", alu_out);

  Instance& add = m.add_spec_instance(
      "add0", genus::make_adder_spec(w, /*carry_in=*/false,
                                     /*carry_out=*/false));
  m.connect(add, "A", alu_out);
  m.connect(add, "B", b);
  m.connect(add, "S", out);
  return m;
}

/// One front, rendered to comparable bytes.
struct FrontRecord {
  std::vector<double> areas, delays;
  std::vector<std::string> descriptions;
  std::vector<std::string> vhdl;

  bool operator==(const FrontRecord&) const = default;
};

FrontRecord record_front(const std::vector<dtas::AlternativeDesign>& alts) {
  FrontRecord rec;
  for (const dtas::AlternativeDesign& alt : alts) {
    rec.areas.push_back(alt.metric.area);
    rec.delays.push_back(alt.metric.delay);
    rec.descriptions.push_back(alt.description);
    rec.vhdl.push_back(vhdl::emit_structural(*alt.design));
  }
  return rec;
}

TEST(LintSweep, FrontsLintCleanAcrossTogglesAndThreads) {
  const std::vector<genus::ComponentSpec> specs = {
      genus::make_adder_spec(16),
      genus::make_alu_spec(16, OpSet{Op::kAdd, Op::kSub} |
                                   genus::alu16_logic_ops()),
      genus::make_mux_spec(16, 4),
      genus::make_register_spec(16),
  };
  const Module datapath = make_datapath(8);

  struct Config {
    bool template_cache;
    int threads;
    bool verify;
  };
  // The verify=false run is the byte-identity reference; every other
  // config runs with post-extraction verification on (the throw path),
  // covering cached and uncacheable rule bases (tests/eval_reference.h)
  // and thread counts.
  const std::vector<Config> configs = {
      {true, 1, false},  // reference
      {true, 1, true},  {false, 1, true},
      {true, 8, true},  {false, 8, true},
  };

  for (const cells::CellLibrary* lib : registry().all()) {
    std::vector<FrontRecord> reference;  // per case, from configs[0]
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& cfg = configs[ci];
      dtas::SpaceOptions opt;
      opt.threads = cfg.threads;
      opt.verify_designs = cfg.verify;
      dtas::RuleBase rules = dtas::default_rules_for(*lib);
      if (!cfg.template_cache) {
        rules = dtas::reference::uncacheable(std::move(rules));
      }
      dtas::Synthesizer synth(std::move(rules), *lib, opt);

      std::vector<std::vector<dtas::AlternativeDesign>> fronts;
      for (const genus::ComponentSpec& spec : specs) {
        fronts.push_back(synth.synthesize(spec));
      }
      fronts.push_back(synth.synthesize_netlist(datapath));

      for (std::size_t k = 0; k < fronts.size(); ++k) {
        const std::string context = lib->name() + " case " +
                                    std::to_string(k) + " config " +
                                    std::to_string(ci);
        EXPECT_FALSE(fronts[k].empty()) << context;
        // Every design of every front lints clean, whatever the toggles.
        for (const dtas::AlternativeDesign& alt : fronts[k]) {
          auto diags = lint::lint_design(*alt.design);
          EXPECT_TRUE(diags.empty())
              << context << " [" << alt.description << "]:\n"
              << lint::render(diags);
        }
        FrontRecord rec = record_front(fronts[k]);
        if (ci == 0) {
          reference.push_back(std::move(rec));
        } else {
          // Byte-identity: verification and the cache/thread toggles never
          // change metrics, descriptions, or emitted VHDL.
          EXPECT_TRUE(rec == reference[k]) << context << " diverged from the "
                                              "verify-off reference front";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Rule-template sweep: every template the built-in and LOLA-induced rule
// sets produce for the bundled libraries passes check_template.
// ---------------------------------------------------------------------

/// Distinct child specs of a template in first-occurrence instance order
/// (the CompiledTemplate::child_specs construction).
std::vector<genus::ComponentSpec> distinct_child_specs(const Module& tmpl) {
  std::vector<genus::ComponentSpec> out;
  std::unordered_set<genus::ComponentSpec> seen;
  for (const Instance& inst : tmpl.instances()) {
    if (inst.ref != RefKind::kSpec) continue;
    if (seen.insert(inst.spec).second) out.push_back(inst.spec);
  }
  return out;
}

/// Expand every rule of `rules` over every spec reachable from `seeds`
/// (the same recursive closure DesignSpace::expand walks), check every
/// produced template, and return how many templates were checked.
/// Templates the engine rejects for combinational cycles
/// (CompiledTemplate::rejected — topo_order throws) are skipped exactly
/// as the engine skips them.
int sweep_rule_templates(const dtas::RuleBase& rules,
                         const cells::CellLibrary& lib,
                         std::vector<genus::ComponentSpec> seeds,
                         const std::string& context) {
  const dtas::RuleContext ctx{lib};
  std::unordered_set<genus::ComponentSpec> visited;
  int checked = 0;
  while (!seeds.empty()) {
    const genus::ComponentSpec spec = seeds.back();
    seeds.pop_back();
    if (!visited.insert(spec).second) continue;
    if (visited.size() >= 5000u) {
      ADD_FAILURE() << context << ": runaway spec closure";
      return checked;
    }
    for (const auto& rule : rules.rules()) {
      if (!rule->applies(spec, ctx)) continue;
      for (const Module& tmpl : rule->expand(spec, ctx)) {
        try {
          dtas::DesignSpace::topo_order(tmpl);
        } catch (const Error&) {
          continue;  // rejected template, never compiled or extracted
        }
        const std::vector<genus::ComponentSpec> children =
            distinct_child_specs(tmpl);
        auto diags = lint::check_template(tmpl, children);
        EXPECT_TRUE(diags.empty())
            << context << " rule " << rule->name() << " spec " << spec.key()
            << " template " << tmpl.name() << ":\n"
            << lint::render(diags);
        ++checked;
        for (const genus::ComponentSpec& child : children) {
          seeds.push_back(child);
        }
      }
    }
  }
  return checked;
}

std::vector<genus::ComponentSpec> sweep_seeds() {
  return {
      genus::make_adder_spec(8),
      genus::make_adder_spec(16),
      genus::make_adder_spec(64),
      genus::make_addsub_spec(16),
      genus::make_alu_spec(16, OpSet{Op::kAdd, Op::kSub} |
                                   genus::alu16_logic_ops()),
      genus::make_alu_spec(64, genus::alu16_ops()),
      genus::make_mux_spec(16, 4),
      genus::make_register_spec(16),
      genus::make_comparator_spec(8, OpSet{Op::kEq, Op::kLt}),
      genus::make_shifter_spec(16, OpSet{Op::kShl, Op::kShr}),
  };
}

TEST(LintSweep, RuleTemplatesCheckCleanForAllLibraries) {
  // default_rules_for: hand-written LSI rules for the paper's library,
  // LOLA-induced rules for every other bundled book.
  for (const cells::CellLibrary* lib : registry().all()) {
    dtas::RuleBase rules = dtas::default_rules_for(*lib);
    const int checked =
        sweep_rule_templates(rules, *lib, sweep_seeds(), lib->name());
    EXPECT_GT(checked, 20) << lib->name()
                           << ": template sweep looks vacuous";
  }
}

TEST(LintSweep, LolaInducedTemplatesOnLsiCheckClean) {
  // The LSI book normally gets the hand-written rules; force LOLA
  // induction over it too, so both library-specific flavors are swept.
  const cells::CellLibrary& lib = cells::lsi_library();
  dtas::RuleBase rules;
  dtas::register_standard_rules(rules);
  lola::induce_rules(lib, rules);
  const int checked =
      sweep_rule_templates(rules, lib, sweep_seeds(), "lsi+lola");
  EXPECT_GT(checked, 20) << "lsi+lola template sweep looks vacuous";
}

}  // namespace
}  // namespace bridge
