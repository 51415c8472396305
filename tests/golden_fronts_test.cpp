// Golden fronts: byte-exact records of what DTAS produces today, per
// registry library, for a fixed set of single specs and one GENUS netlist.
//
// For every alternative the fixture records the front size, the exact
// (area, delay) doubles as %.17g, the description, and the FNV-1a digest
// and byte length of the alternative's structural VHDL. Each case runs on
// a fresh Synthesizer (cold caches) and then again on the same session
// (warm caches); both passes must reproduce the fixture. This is the
// equivalence oracle for the extraction and caching layers: any change
// that alters a front, a description, a module name, or one byte of the
// emitted VHDL shows up here.
//
// The netlist input declares all of its ports before its internal nets.
//
// Fixtures live in tests/golden/fronts_<library>.txt. They were recorded
// from the implementation and are compared verbatim; re-record them only
// with a change that is meant to alter synthesis output, and say so.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/fingerprint.h"
#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "genus/spec.h"
#include "netlist/netlist.h"
#include "vhdl/vhdl.h"

namespace bridge {
namespace {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;
using genus::PortDir;
using netlist::Module;

const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

struct SpecCase {
  const char* name;
  ComponentSpec spec;
};

std::vector<SpecCase> spec_cases() {
  return {
      {"alu64_fig3", genus::make_alu_spec(64, genus::alu16_ops())},
      {"alu16", genus::make_alu_spec(16, genus::alu16_ops())},
      {"adder16", genus::make_adder_spec(16)},
      {"comparator16",
       genus::make_comparator_spec(16, OpSet{Op::kEq, Op::kLt, Op::kGt})},
      {"shifter8", genus::make_shifter_spec(8, OpSet{Op::kShl, Op::kShr})},
  };
}

/// A 16-bit datapath: an adder feeding a 2:1 mux, and a comparator on the
/// operands. Every port is declared before the one internal net.
Module datapath16() {
  Module m("dp16");
  const netlist::NetIndex a = m.add_port("A", PortDir::kIn, 16);
  const netlist::NetIndex b = m.add_port("B", PortDir::kIn, 16);
  const netlist::NetIndex sel = m.add_port("SEL", PortDir::kIn, 1);
  const netlist::NetIndex out = m.add_port("OUT", PortDir::kOut, 16);
  const netlist::NetIndex eq = m.add_port("EQ", PortDir::kOut, 1);
  const netlist::NetIndex sum = m.add_net("sum", 16);
  auto& add = m.add_spec_instance(
      "add0", genus::make_adder_spec(16, /*carry_in=*/false,
                                     /*carry_out=*/false));
  m.connect(add, "A", a);
  m.connect(add, "B", b);
  m.connect(add, "S", sum);
  auto& mux = m.add_spec_instance("mux0", genus::make_mux_spec(16, 2));
  m.connect(mux, "I0", a);
  m.connect(mux, "I1", sum);
  m.connect(mux, "SEL", sel);
  m.connect(mux, "OUT", out);
  auto& cmp = m.add_spec_instance(
      "cmp0", genus::make_comparator_spec(16, OpSet{Op::kEq}));
  m.connect(cmp, "A", a);
  m.connect(cmp, "B", b);
  m.connect(cmp, "EQ", eq);
  return m;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One case's front in fixture form.
std::string render(const std::string& name,
                   const std::vector<dtas::AlternativeDesign>& front) {
  std::ostringstream out;
  out << "case " << name << " front " << front.size() << "\n";
  for (std::size_t i = 0; i < front.size(); ++i) {
    const dtas::AlternativeDesign& alt = front[i];
    const std::string text = vhdl::emit_structural(*alt.design);
    out << "alt " << i << " area " << exact(alt.metric.area) << " delay "
        << exact(alt.metric.delay) << " vhdl " << text.size() << " "
        << hex64(base::fp_bytes(base::kFingerprintSeed, text.data(),
                                text.size()))
        << "\n";
    out << "desc " << alt.description << "\n";
  }
  return out.str();
}

/// Every case for `lib`, cold pass then warm pass on the same session.
/// Returns the cold rendering; the warm one must equal it.
std::string render_library(const cells::CellLibrary& lib) {
  std::string cold_all;
  for (const SpecCase& c : spec_cases()) {
    dtas::Synthesizer session(lib);
    const std::string cold = render(c.name, session.synthesize(c.spec));
    const std::string warm = render(c.name, session.synthesize(c.spec));
    EXPECT_EQ(cold, warm) << lib.name() << " / " << c.name
                          << ": warm session differs from cold";
    cold_all += cold;
  }
  const Module input = datapath16();
  dtas::Synthesizer session(lib);
  const std::string cold =
      render("netlist_dp16", session.synthesize_netlist(input));
  const std::string warm =
      render("netlist_dp16", session.synthesize_netlist(input));
  EXPECT_EQ(cold, warm) << lib.name()
                        << " / netlist_dp16: warm session differs from cold";
  return cold_all + cold;
}

std::string fixture_path(const cells::CellLibrary& lib) {
  return std::string(BRIDGE_TESTS_DIR) + "/golden/fronts_" + lib.name() +
         ".txt";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(GoldenFronts, NetlistInputDeclaresPortsFirst) {
  // Ports first means net index i is port i for every port, so the
  // netlist's connections index the same nets in the extracted top.
  const Module input = datapath16();
  ASSERT_TRUE(netlist::check_module(input).empty());
  const auto& ports = input.module_ports();
  ASSERT_LE(ports.size(), input.nets().size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    EXPECT_EQ(input.nets()[i].name, ports[i].name) << "net " << i;
  }
}

TEST(GoldenFronts, EveryRegistryLibraryMatchesItsFixture) {
  const auto libs = registry().all();
  ASSERT_EQ(libs.size(), 3u);
  for (const cells::CellLibrary* lib : libs) {
    SCOPED_TRACE(lib->name());
    const std::string want = read_file(fixture_path(*lib));
    ASSERT_FALSE(want.empty()) << "missing fixture " << fixture_path(*lib);
    EXPECT_EQ(want, render_library(*lib));
  }
}

}  // namespace
}  // namespace bridge
