// The control compiler of Figure 1: "The state sequencing table is
// accepted by a control compiler that extracts the sequencing logic and
// applies logic-level optimizations and technology mapping techniques."
//
// compile_control() encodes the states in binary, derives the next-state
// and control-output functions over (state bits, status inputs), minimizes
// each with Quine-McCluskey (unused state codes as don't-cares), and emits
// a gate-level controller netlist: shared input inverters, one AND per
// implicant, one OR per output, plus the state register. The result is a
// netlist of GENUS gate/register specifications, so DTAS's technology
// mapper binds it to library cells like any other netlist.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ctrl/qm.h"
#include "hls/statetable.h"
#include "netlist/netlist.h"

namespace bridge::ctrl {

/// One minimized output function of the controller: bit `bit` of control
/// port `port`, or of the next-state vector when `port` is empty.
struct ControlFunction {
  std::string port;
  int bit = 0;
  std::vector<Implicant> sop;
};

struct ControllerResult {
  netlist::Design design;  // top() is the controller module
  int state_bits = 0;
  std::map<std::string, std::uint32_t> state_codes;
  /// Next-state bits first, then every control-signal bit in table order.
  std::vector<ControlFunction> functions;
  int implicant_count = 0;  // after minimization
  int literal_count = 0;
  int minterm_count = 0;    // before minimization (raw on-set size)
};

/// Compile a state table into a gate-level controller.
///
/// Controller ports: CLK, ARST (resets to the initial state, which is
/// always encoded 0), the table's status inputs, and one output port per
/// control signal. Transitions are Mealy on status inputs; control outputs
/// are Moore (state-only).
ControllerResult compile_control(const hls::StateTable& table);

}  // namespace bridge::ctrl
