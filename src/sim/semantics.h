// Bit-true behavioral semantics of component specifications.
//
// The paper's generators "can produce simulatable VHDL behavioral models
// ... used to verify the behavior of a synthesized design". This module is
// the executable equivalent: every ComponentSpec (generic component or
// library cell) has defined combinational and sequential semantics, so a
// technology-mapped netlist can be checked for functional equivalence
// against the generic component it implements.
//
// Conventions (shared with the DTAS decomposition rules — both sides of an
// equivalence check must agree):
//  * Multi-function components (ALU, LU, shifter) select the operation by
//    the F input, whose binary code is the index of the operation in
//    OpSet::to_vector() order (e.g. the 16-function ALU: ADD=0, SUB=1,
//    INC=2, DEC=3, EQ=4, LT=5, GT=6, ZEROP=7, AND=8, ..., LIMPL=15).
//  * ALU arithmetic group is computed by one internal add/sub datapath
//    whose CI is the *raw* carry-in, exactly as 74181-era data books
//    specify ("A plus B plus carry", "A minus B minus 1 plus carry"):
//    ADD: A+B+CI. SUB: A+~B+CI (true A-B needs CI=1). INC: A+1+CI.
//    DEC: A+~1+CI. EQ/LT/GT: datapath computes A+~B+CI; the predicates
//    appear on dedicated status pins (EQ/LT/GT unsigned, ZEROP = (A==0)),
//    valid for every F. ZEROP's OUT is A+~0+CI.
//    CO is always the internal adder's raw carry; for logic operations
//    the datapath defaults to A+B+CI.
//  * AddSub is the raw datapath cell: S = A + (MODE ? ~B : B) + CI,
//    CO = raw carry out.
//  * Mux with n inputs: OUT = I[min(SEL, n-1)] (trees pad by duplicating
//    the last input, which composes to the same semantics).
//  * Sequential components are simulated synchronously; ASET/ARST are
//    sampled at the clock edge with priority set > reset > enable.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/bitvec.h"
#include "genus/spec.h"

namespace bridge::sim {

using PortValues = std::map<std::string, BitVec>;

/// State carried by a sequential instance between clock edges.
struct SeqState {
  BitVec value{1};             // register / counter contents
  std::vector<BitVec> words;   // register file / memory / stack / fifo
  int count = 0;               // stack depth or fifo occupancy
  int head = 0;                // fifo read index
};

/// The semantics of one specification, resolved once for repeated
/// evaluation: its port list, its F-select op vector and the slot of every
/// port the kind reads or writes are looked up in the constructor, so the
/// entry points below do no string or symbol lookups.
///
/// Values are port-indexed: slot i of a value vector holds the value of
/// ports()[i] (= spec_ports(spec)[i]) at that port's width. The entry points
/// read input slots and write output slots; clock inputs are never read.
class Behavior {
 public:
  explicit Behavior(const genus::ComponentSpec& spec);

  const genus::ComponentSpec& spec() const { return spec_; }
  const std::vector<genus::PortSpec>& ports() const { return *ports_; }

  /// Combinational outputs from inputs. Throws on sequential specs.
  void eval(std::vector<BitVec>& v) const;
  /// Sequential outputs from state (and, for read ports, address inputs).
  void outputs(const SeqState& state, std::vector<BitVec>& v) const;
  /// Advance state across one rising clock edge.
  void step(SeqState& state, const std::vector<BitVec>& v) const;

 private:
  /// Named ports the per-kind implementations use.
  enum Pin : std::uint8_t {
    kA, kB, kC, kCI, kCO, kD, kF, kG, kP, kQ, kR, kS, kGG, kGP, kIN, kEN,
    kOE, kO0, kOUT, kSEL, kAMT, kMODE, kASET, kARST, kARESET, kCEN, kCLOAD,
    kCUP, kCDOWN, kWE, kWA, kWD, kRA, kRD, kADDR, kDIN, kDOUT, kPUSH, kPOP,
    kEMPTY, kFULL, kCLK, kPinCount
  };
  static const std::array<base::Symbol, kPinCount>& pin_names();

  const BitVec& in(const std::vector<BitVec>& v, Pin p) const {
    return v[pin_[p]];
  }
  bool bit(const std::vector<BitVec>& v, Pin p) const {
    return v[pin_[p]].bit(0);
  }
  BitVec& out(std::vector<BitVec>& v, Pin p) const { return v[pin_[p]]; }
  genus::Op selected_op(const std::vector<BitVec>& v) const;
  void eval_alu(std::vector<BitVec>& v) const;

  genus::ComponentSpec spec_;
  const std::vector<genus::PortSpec>* ports_;
  std::vector<genus::Op> ops_;           // F-select coding (OpSet order)
  std::array<int, kPinCount> pin_;       // slot of each named port, or -1
  std::vector<int> fan_in_;              // slots of I0, I1, ...
  std::vector<std::pair<genus::Op, int>> status_;  // predicate -> slot
};

// Name-keyed adapters over Behavior (one-off evaluations and tests).

/// Evaluate a combinational specification. Missing input entries default
/// to zero; mismatched widths are zero-extended or truncated (tie-offs
/// provide 64-bit constants). Returns values for every output port.
PortValues eval_combinational(const genus::ComponentSpec& spec,
                              const PortValues& inputs);

/// Initial (all-zero) state for a sequential spec.
SeqState init_state(const genus::ComponentSpec& spec);

/// Outputs of a sequential component as a function of current state (and,
/// for read ports, current address inputs).
PortValues seq_outputs(const genus::ComponentSpec& spec, const SeqState& state,
                       const PortValues& inputs);

/// Advance state across one rising clock edge.
void seq_step(const genus::ComponentSpec& spec, SeqState& state,
              const PortValues& inputs);

/// Index of `op` in the F-select coding of `spec` (OpSet order).
int op_select_code(const genus::ComponentSpec& spec, genus::Op op);

}  // namespace bridge::sim
