// The §5 dense-sweep datapath, shared by bench_sec6_runtime (its
// datapath16_* workloads) and the tests that need an odometer in the
// "several hundred thousand" combination regime.
#pragma once

#include <string>

#include "genus/spec.h"
#include "netlist/netlist.h"

namespace bridge::testdata {

/// A 16-bit datapath of twelve distinct component specifications:
/// registered operand -> 16-bit ALU -> adder -> subtractor -> shifter ->
/// add/sub, with a byte-slice 8-bit ALU feeding an 8x8 multiplier, an XOR
/// merge, a comparator, a 4:1 result mux, and an output register. Every
/// instance spec is distinct, so the whole-netlist odometer has twelve
/// independent choice digits — enough for the §5 combination counts once
/// the per-spec filters keep more than one alternative each.
inline netlist::Module make_sweep_datapath(int w) {
  using genus::Op;
  using genus::OpSet;
  netlist::Module m("datapath" + std::to_string(w));
  const auto A = m.add_port("A", genus::PortDir::kIn, w);
  const auto B = m.add_port("B", genus::PortDir::kIn, w);
  const auto C = m.add_port("C", genus::PortDir::kIn, w);
  const auto D = m.add_port("D", genus::PortDir::kIn, w);
  const auto F = m.add_port("F", genus::PortDir::kIn, 4);
  const auto SHF = m.add_port("SHF", genus::PortDir::kIn, 1);
  const auto SEL = m.add_port("SEL", genus::PortDir::kIn, 2);
  const auto CI = m.add_port("CI", genus::PortDir::kIn, 1);
  const auto CLK = m.add_port("CLK", genus::PortDir::kIn, 1);
  const auto EN = m.add_port("EN", genus::PortDir::kIn, 1);
  const auto ARST = m.add_port("ARST", genus::PortDir::kIn, 1);
  const auto OUT = m.add_port("OUT", genus::PortDir::kOut, w);
  const auto EQ = m.add_port("FLAG_EQ", genus::PortDir::kOut, 1);
  const auto LT = m.add_port("FLAG_LT", genus::PortDir::kOut, 1);

  const auto ra = m.add_net("ra", w);
  const auto alu_out = m.add_net("alu_out", w);
  const auto sum = m.add_net("sum", w);
  const auto diff = m.add_net("diff", w);
  const auto shifted = m.add_net("shifted", w);
  const auto as_out = m.add_net("as_out", w);
  const auto alu8_out = m.add_net("alu8_out", w / 2);
  const auto mul_out = m.add_net("mul_out", w);
  const auto xr = m.add_net("xr", w);
  const auto muxed = m.add_net("muxed", w);

  auto& rin = m.add_spec_instance("rin", genus::make_register_spec(w));
  m.connect(rin, "D", A);
  m.connect(rin, "CLK", CLK);
  m.connect(rin, "EN", EN);
  m.connect(rin, "ARST", ARST);
  m.connect(rin, "Q", ra);

  auto& alu =
      m.add_spec_instance("alu0", genus::make_alu_spec(w, genus::alu16_ops()));
  m.connect(alu, "A", ra);
  m.connect(alu, "B", B);
  m.connect(alu, "CI", CI);
  m.connect(alu, "F", F);
  m.connect(alu, "OUT", alu_out);

  auto& add =
      m.add_spec_instance("add0", genus::make_adder_spec(w, false, false));
  m.connect(add, "A", alu_out);
  m.connect(add, "B", C);
  m.connect(add, "S", sum);

  auto& sub = m.add_spec_instance("sub0", genus::make_subtractor_spec(w));
  m.connect(sub, "A", sum);
  m.connect(sub, "B", D);
  m.connect(sub, "S", diff);

  auto& sh = m.add_spec_instance(
      "sh0", genus::make_shifter_spec(w, OpSet{Op::kShl, Op::kShr}));
  m.connect(sh, "IN", diff);
  m.connect(sh, "F", SHF);
  m.connect(sh, "OUT", shifted);

  auto& cmp = m.add_spec_instance(
      "cmp0", genus::make_comparator_spec(w, OpSet{Op::kEq, Op::kLt}));
  m.connect(cmp, "A", sum);
  m.connect(cmp, "B", D);
  m.connect(cmp, "EQ", EQ);
  m.connect(cmp, "LT", LT);

  auto& as = m.add_spec_instance("as0", genus::make_addsub_spec(w));
  m.connect(as, "A", shifted);
  m.connect(as, "B", C);
  m.connect(as, "CI", CI);
  m.connect(as, "MODE", SHF);
  m.connect(as, "S", as_out);

  auto& alu8 = m.add_spec_instance(
      "alu8", genus::make_alu_spec(w / 2, genus::alu16_ops()));
  m.connect(alu8, "A", sum, 0);
  m.connect(alu8, "B", sum, w / 2);
  m.connect(alu8, "CI", CI);
  m.connect(alu8, "F", F);
  m.connect(alu8, "OUT", alu8_out);

  auto& mul = m.add_spec_instance(
      "mul0", genus::make_multiplier_spec(w / 2, w / 2));
  m.connect(mul, "A", alu8_out);
  m.connect(mul, "B", diff, w / 2);
  m.connect(mul, "P", mul_out);

  auto& xg = m.add_spec_instance(
      "xor0", genus::make_gate_spec(Op::kXor, w, 2));
  m.connect(xg, "I0", as_out);
  m.connect(xg, "I1", mul_out);
  m.connect(xg, "OUT", xr);

  auto& mux = m.add_spec_instance("mux0", genus::make_mux_spec(w, 4));
  m.connect(mux, "I0", alu_out);
  m.connect(mux, "I1", sum);
  m.connect(mux, "I2", xr);
  m.connect(mux, "I3", shifted);
  m.connect(mux, "SEL", SEL);
  m.connect(mux, "OUT", muxed);

  auto& rout =
      m.add_spec_instance("rout", genus::make_register_spec(w, false, true));
  m.connect(rout, "D", muxed);
  m.connect(rout, "CLK", CLK);
  m.connect(rout, "ARST", ARST);
  m.connect(rout, "Q", OUT);
  return m;
}

}  // namespace bridge::testdata
