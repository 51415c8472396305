// Hierarchical netlist simulation, compiled once per netlist.
//
// The constructor flattens a hierarchical netlist (e.g. a DTAS alternative
// implementation) to leaf instances and compiles it to a flat program:
//   * every flattened net gets a contiguous range in one packed bit store
//     (a BitVec; top-level ports first, in declaration order);
//   * every leaf port binding becomes a short list of (store offset, port
//     offset, length) runs, replicated-bit runs included, so gather and
//     scatter copy up to 64 bits at a time with shifts and masks;
//     constant tie-offs are written into the leaf's input buffer once;
//   * every leaf keeps a preallocated, port-indexed value buffer and its
//     sim::Behavior (port list, F-select ops and port slots resolved), so
//     eval() allocates no buffers and does no name lookups;
//   * the combinational schedule is topological over leaves: a multi-output
//     leaf is evaluated once per pass, and is split into one unit per
//     output port only where a structural false path needs it (look-ahead
//     GP/GG vs CI) or where it feeds its own inputs.
// Sequential leaves (flip-flops, registers, counters) hold SeqState and
// update on step(). eval() is lazy: it runs only when an input or a state
// has changed since the last one, and get() brings values up to date.
//
// This is the workhorse of the equivalence test suite: for every mapped
// netlist, Simulator(mapped) must agree with eval_combinational /
// seq_outputs of the generic component across random stimulus.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "netlist/netlist.h"
#include "sim/semantics.h"

namespace bridge::sim {

class Simulator {
 public:
  /// Flatten `top` and compile the evaluation program. Throws Error on
  /// combinational cycles or malformed connectivity.
  explicit Simulator(const netlist::Module& top);

  /// A resolved top-level port: its range in the bit store. Resolve once
  /// with port(), then set and read it without name lookups.
  struct Port {
    int lo = 0;
    int width = 0;
    bool input = false;
  };
  /// Throws Error if `name` is not a top-level port.
  Port port(const std::string& name) const;

  /// Set a top-level input port value (width must match).
  void set_input(const std::string& port, const BitVec& value);
  /// Set a top-level input port to `value` mod 2^width.
  void set_input(Port port, std::uint64_t value);

  /// Propagate combinational logic from current inputs and state (a no-op
  /// when nothing changed since the last propagation).
  void eval();

  /// One rising clock edge: capture next state from current values and
  /// update every sequential leaf simultaneously. The next eval() or get()
  /// re-propagates.
  void step();

  /// Read a top-level output (or input) port; runs a pending eval() first.
  BitVec get(const std::string& port);
  /// Low 64 bits of a top-level port; runs a pending eval() first.
  std::uint64_t get_uint(Port port);

  int num_leaves() const { return static_cast<int>(leaves_.size()); }

 private:
  /// A flattening-time bit reference (resolved into runs afterwards).
  struct BitRef {
    int index = -1;           // store bit; -1 means open or constant
    bool const_value = false;
    bool is_const = false;    // true: a tie-off, must never be reallocated
  };
  using PortMap = std::map<std::string, std::vector<BitRef>>;
  /// `len` bits between the store at `store` and a port value at `port`.
  /// A replicated run reads one store bit into every port bit.
  struct Run {
    int store = 0;
    int port = 0;
    int len = 0;
    bool replicate = false;
  };
  struct Binding {
    int slot = 0;  // port index in the leaf's Behavior::ports()
    std::vector<Run> runs;
  };
  /// A flattened leaf instance: behavior, state, value buffer, bindings.
  struct Leaf {
    Behavior behavior;
    std::string path;
    bool sequential = false;
    SeqState state;
    std::vector<BitVec> values;     // port-indexed, preallocated
    std::vector<Binding> inputs;    // gathered before every evaluation
    std::vector<Binding> outputs;   // scattered after it
  };
  /// One schedule entry: a whole leaf (output < 0) or one output binding.
  struct Unit {
    int leaf = 0;
    int output = -1;
  };

  void flatten(const netlist::Module& m, const std::string& path,
               const PortMap& port_map);
  void add_leaf(const netlist::Instance& inst, const std::string& path,
                const std::vector<std::vector<BitRef>>& port_refs);
  void schedule();
  void propagate();
  void gather(Leaf& leaf);
  void scatter(const Leaf& leaf, const Binding& out);

  int num_bits_ = 0;  // store bits allocated while flattening
  BitVec store_;
  std::vector<Leaf> leaves_;
  std::vector<Unit> comb_order_;
  std::vector<int> seq_leaves_;
  bool any_addressed_ = false;  // register files / memories / stacks / fifos
  bool dirty_ = true;
  std::map<std::string, Port, std::less<>> top_ports_;
};

/// Convenience: simulate a purely combinational module once.
PortValues eval_module(const netlist::Module& top, const PortValues& inputs);

}  // namespace bridge::sim
