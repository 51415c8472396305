#include "hls/fsmd.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "base/diag.h"
#include "genus/spec.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace bridge::hls {

using genus::ComponentSpec;
using genus::Op;
using genus::OpSet;
using netlist::Instance;
using netlist::Module;
using netlist::NetIndex;

namespace {

int clog2(int n) {
  int bits = 0;
  int cap = 1;
  while (cap < n) {
    cap <<= 1;
    ++bits;
  }
  return bits < 1 ? 1 : bits;
}

/// A micro-operation operand: a register/input name or a constant.
struct Operand {
  bool is_const = false;
  std::uint64_t value = 0;
  std::string name;

  std::string key() const {
    return is_const ? "#" + std::to_string(value) : name;
  }
};

enum class MKind { kAssign, kBranch, kGoto, kHalt };

struct MicroOp {
  MKind kind = MKind::kAssign;
  std::vector<std::string> labels;  // labels attached to this op
  // kAssign
  std::string target;
  bool use_shifter = false;
  Op op = Op::kOr;
  Operand a;
  Operand b;
  // kBranch: taken to `if_false` when the comparison is false
  BinOp cmp = BinOp::kEq;
  std::string if_false;
  // kGoto
  std::string go;
};

/// Flattens statements into micro-operations (the scheduling input).
class Flattener {
 public:
  Flattener(const BehavioralDesign& design, int width)
      : design_(design), width_(width) {
    for (const auto& v : design.inputs) inputs_.insert(v.name);
    for (const auto& v : design.outputs) registers_.insert(v.name);
    for (const auto& v : design.vars) registers_.insert(v.name);
  }

  std::vector<MicroOp> run() {
    for (const auto& s : design_.body) statement(*s);
    MicroOp halt;
    halt.kind = MKind::kHalt;
    attach_labels(halt);
    ops_.push_back(std::move(halt));
    return std::move(ops_);
  }

  const std::set<std::string>& registers() const { return registers_; }

 private:
  void statement(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kAssign:
        assign(s.target, *s.value);
        break;
      case Stmt::Kind::kIf: {
        const std::string else_l = fresh_label("else");
        const std::string end_l = fresh_label("endif");
        branch_if_false(*s.condition, s.else_body.empty() ? end_l : else_l);
        for (const auto& t : s.then_body) statement(*t);
        if (!s.else_body.empty()) {
          emit_goto(end_l);
          pending_labels_.push_back(else_l);
          for (const auto& t : s.else_body) statement(*t);
        }
        pending_labels_.push_back(end_l);
        break;
      }
      case Stmt::Kind::kWhile: {
        const std::string loop_l = fresh_label("loop");
        const std::string end_l = fresh_label("endloop");
        pending_labels_.push_back(loop_l);
        branch_if_false(*s.condition, end_l);
        for (const auto& t : s.then_body) statement(*t);
        emit_goto(loop_l);
        pending_labels_.push_back(end_l);
        break;
      }
    }
  }

  void assign(const std::string& target, const Expr& e) {
    if (registers_.count(target) == 0) {
      throw Error("assignment to undeclared variable '" + target + "'");
    }
    if (e.kind == Expr::Kind::kBinary &&
        (e.bin == BinOp::kShl || e.bin == BinOp::kShr)) {
      if (e.rhs->kind != Expr::Kind::kConst || e.rhs->value > 8) {
        throw Error("shift amounts must be constants <= 8");
      }
      Operand src = operand(*e.lhs);
      const Op shift_op = e.bin == BinOp::kShl ? Op::kShl : Op::kShr;
      for (std::uint64_t i = 0; i < std::max<std::uint64_t>(e.rhs->value, 1);
           ++i) {
        MicroOp m;
        m.kind = MKind::kAssign;
        m.target = target;
        m.use_shifter = e.rhs->value != 0;
        m.op = e.rhs->value == 0 ? Op::kOr : shift_op;
        m.a = i == 0 ? src : Operand{false, 0, target};
        m.b = Operand{true, 0, ""};
        attach_labels(m);
        ops_.push_back(std::move(m));
      }
      return;
    }
    if (e.kind == Expr::Kind::kBinary && binop_is_compare(e.bin)) {
      throw Error(
          "comparison results may only be used in if/while conditions");
    }
    MicroOp m;
    m.kind = MKind::kAssign;
    m.target = target;
    switch (e.kind) {
      case Expr::Kind::kVar:
      case Expr::Kind::kConst:
        m.op = Op::kOr;  // move: x | 0
        m.a = operand(e);
        m.b = Operand{true, 0, ""};
        break;
      case Expr::Kind::kUnary:
        m.op = Op::kLnot;
        m.a = operand(*e.lhs);
        m.b = Operand{true, 0, ""};
        break;
      case Expr::Kind::kBinary: {
        m.op = map_binop(e.bin);
        m.a = operand(*e.lhs);
        m.b = operand(*e.rhs);
        break;
      }
    }
    attach_labels(m);
    ops_.push_back(std::move(m));
  }

  void branch_if_false(const Expr& cond, const std::string& if_false) {
    MicroOp m;
    m.kind = MKind::kBranch;
    m.if_false = if_false;
    if (cond.kind == Expr::Kind::kBinary && binop_is_compare(cond.bin)) {
      m.cmp = cond.bin;
      m.a = operand(*cond.lhs);
      m.b = operand(*cond.rhs);
    } else {
      m.cmp = BinOp::kNe;  // truthiness: cond != 0
      m.a = operand(cond);
      m.b = Operand{true, 0, ""};
    }
    attach_labels(m);
    ops_.push_back(std::move(m));
  }

  void emit_goto(const std::string& label) {
    MicroOp m;
    m.kind = MKind::kGoto;
    m.go = label;
    attach_labels(m);
    ops_.push_back(std::move(m));
  }

  /// Lower an expression to a simple operand, materializing temporaries.
  Operand operand(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kConst:
        return Operand{true, e.value, ""};
      case Expr::Kind::kVar:
        if (inputs_.count(e.var) == 0 && registers_.count(e.var) == 0) {
          throw Error("use of undeclared name '" + e.var + "'");
        }
        return Operand{false, 0, e.var};
      default: {
        const std::string temp = fresh_temp();
        assign(temp, e);
        return Operand{false, 0, temp};
      }
    }
  }

  static Op map_binop(BinOp op) {
    switch (op) {
      case BinOp::kAdd:
        return Op::kAdd;
      case BinOp::kSub:
        return Op::kSub;
      case BinOp::kAnd:
        return Op::kAnd;
      case BinOp::kOr:
        return Op::kOr;
      case BinOp::kXor:
        return Op::kXor;
      default:
        throw Error("operator " + binop_name(op) +
                    " is not an ALU data operation");
    }
  }

  std::string fresh_temp() {
    std::string name = "t" + std::to_string(temp_counter_++);
    registers_.insert(name);
    return name;
  }

  std::string fresh_label(const std::string& base) {
    return base + "_" + std::to_string(label_counter_++);
  }

  void attach_labels(MicroOp& m) {
    m.labels = std::move(pending_labels_);
    pending_labels_.clear();
  }

  const BehavioralDesign& design_;
  int width_;
  std::set<std::string> inputs_;
  std::set<std::string> registers_;
  std::vector<MicroOp> ops_;
  std::vector<std::string> pending_labels_;
  int temp_counter_ = 0;
  int label_counter_ = 0;
};

/// Comparison -> (ALU status pin, negate) for the controller.
std::pair<Op, bool> status_for(BinOp cmp) {
  switch (cmp) {
    case BinOp::kEq:
      return {Op::kEq, false};
    case BinOp::kNe:
      return {Op::kEq, true};
    case BinOp::kLt:
      return {Op::kLt, false};
    case BinOp::kGe:
      return {Op::kLt, true};
    case BinOp::kGt:
      return {Op::kGt, false};
    case BinOp::kLe:
      return {Op::kGt, true};
    default:
      throw Error("not a comparison");
  }
}

}  // namespace

Fsmd synthesize_behavior(const BehavioralDesign& design) {
  // All declared widths must agree (single-width datapath).
  int width = 0;
  auto check_width = [&width](const VarDecl& v) {
    if (width == 0) width = v.width;
    if (v.width != width) {
      throw Error("all widths must match in this front end (got " +
                  std::to_string(v.width) + " and " + std::to_string(width) +
                  ")");
    }
  };
  for (const auto& v : design.inputs) check_width(v);
  for (const auto& v : design.outputs) check_width(v);
  for (const auto& v : design.vars) check_width(v);
  BRIDGE_CHECK(width > 0, "design has no declarations");

  Flattener flattener(design, width);
  std::vector<MicroOp> ops = flattener.run();
  const std::set<std::string> registers = flattener.registers();
  std::set<std::string> inputs;
  for (const auto& v : design.inputs) inputs.insert(v.name);

  // --- component allocation + binding preparation ----------------------
  // Collect operand sources for the two ALU input multiplexers and the
  // operation/status requirements of the shared units.
  std::vector<std::string> a_sources;
  std::vector<std::string> b_sources;
  auto source_index = [](std::vector<std::string>& list,
                         const Operand& o) -> int {
    const std::string key = o.key();
    auto it = std::find(list.begin(), list.end(), key);
    if (it != list.end()) return static_cast<int>(it - list.begin());
    list.push_back(key);
    return static_cast<int>(list.size()) - 1;
  };
  OpSet alu_ops;
  OpSet shift_ops;
  bool any_branch = false;
  std::set<Op> status_used;
  for (const MicroOp& m : ops) {
    if (m.kind == MKind::kAssign) {
      source_index(a_sources, m.a);
      source_index(b_sources, m.b);
      if (m.use_shifter) {
        shift_ops.insert(m.op);
      } else {
        alu_ops.insert(m.op);
      }
    } else if (m.kind == MKind::kBranch) {
      source_index(a_sources, m.a);
      source_index(b_sources, m.b);
      any_branch = true;
      status_used.insert(status_for(m.cmp).first);
    }
  }
  if (alu_ops.empty()) alu_ops.insert(Op::kOr);
  if (any_branch) {
    for (Op s : status_used) alu_ops.insert(s);
  }

  // --- datapath construction (connectivity binding) ---------------------
  Fsmd fsmd;
  fsmd.name = design.name;
  fsmd.data_width = width;
  fsmd.design = netlist::Design("dp_" + design.name);
  Module& dp = fsmd.design.add_module("dp_" + design.name);
  fsmd.design.set_top(&dp);

  const NetIndex clk = dp.add_port("CLK", genus::PortDir::kIn, 1);
  std::map<std::string, NetIndex> input_nets;
  for (const auto& v : design.inputs) {
    input_nets[v.name] = dp.add_port(v.name, genus::PortDir::kIn, width);
  }
  std::map<std::string, NetIndex> q_nets;  // register outputs
  std::set<std::string> output_names;
  for (const auto& v : design.outputs) output_names.insert(v.name);
  for (const std::string& r : registers) {
    if (output_names.count(r)) {
      q_nets[r] = dp.add_port(r, genus::PortDir::kOut, width);
    } else {
      q_nets[r] = dp.add_net("q_" + r, width);
    }
    fsmd.registers.push_back(r);
  }

  const int na = static_cast<int>(a_sources.size());
  const int nb = static_cast<int>(b_sources.size());
  const int aw = clog2(na);
  const int bw = clog2(nb);
  StateTable& table = fsmd.control;
  NetIndex asel = netlist::kNoNet;
  NetIndex bsel = netlist::kNoNet;
  if (na > 1) {
    asel = dp.add_port("amux_sel", genus::PortDir::kIn, aw);
    table.control_signals.emplace_back("amux_sel", aw);
  }
  if (nb > 1) {
    bsel = dp.add_port("bmux_sel", genus::PortDir::kIn, bw);
    table.control_signals.emplace_back("bmux_sel", bw);
  }

  auto build_operand_mux = [&](const std::string& label,
                               const std::vector<std::string>& sources,
                               NetIndex sel) -> NetIndex {
    NetIndex out = dp.add_net(label + "_out", width);
    auto bind_source = [&](Instance& inst, const std::string& port,
                           const std::string& key) {
      if (key[0] == '#') {
        dp.connect_const(inst, port, std::stoull(key.substr(1)));
      } else if (inputs.count(key)) {
        dp.connect(inst, port, input_nets.at(key));
      } else {
        dp.connect(inst, port, q_nets.at(key));
      }
    };
    if (sources.size() == 1) {
      // Single source: a buffer instead of a multiplexer.
      Instance& buf = dp.add_spec_instance(
          label + "_buf", genus::make_gate_spec(Op::kBuf, width));
      bind_source(buf, "I0", sources[0]);
      dp.connect(buf, "OUT", out);
      return out;
    }
    Instance& mux = dp.add_spec_instance(
        label, genus::make_mux_spec(width, static_cast<int>(sources.size())));
    for (size_t i = 0; i < sources.size(); ++i) {
      bind_source(mux, "I" + std::to_string(i), sources[i]);
    }
    dp.connect(mux, "SEL", sel);
    dp.connect(mux, "OUT", out);
    return out;
  };
  NetIndex aout = build_operand_mux("amux", a_sources, asel);
  NetIndex bout = build_operand_mux("bmux", b_sources, bsel);

  // Shared ALU. Data-book raw-carry convention: SUB computes A+~B+CI, so
  // true subtraction asserts the alu_ci control line.
  ComponentSpec alu_spec = genus::make_alu_spec(width, alu_ops);
  alu_spec.carry_in = true;
  alu_spec.carry_out = false;
  Instance& alu = dp.add_spec_instance("alu0", alu_spec);
  dp.connect(alu, "A", aout);
  dp.connect(alu, "B", bout);
  const bool need_ci = alu_ops.contains(Op::kSub);
  NetIndex ci_port = netlist::kNoNet;
  if (need_ci) {
    ci_port = dp.add_port("alu_ci", genus::PortDir::kIn, 1);
    dp.connect(alu, "CI", ci_port);
    table.control_signals.emplace_back("alu_ci", 1);
  } else {
    dp.connect_const(alu, "CI", 0);
  }
  NetIndex alu_out = dp.add_net("alu_out", width);
  dp.connect(alu, "OUT", alu_out);
  const int fw = alu_spec.select_width();
  NetIndex fport = netlist::kNoNet;
  if (alu_ops.size() > 1) {
    fport = dp.add_port("alu_f", genus::PortDir::kIn, fw);
    dp.connect(alu, "F", fport);
    table.control_signals.emplace_back("alu_f", fw);
  } else {
    dp.connect_const(alu, "F", 0);
  }
  for (Op s : status_used) {
    NetIndex n = dp.add_port(genus::op_name(s), genus::PortDir::kOut, 1);
    dp.connect(alu, genus::op_name(s), n);
    table.status_inputs.push_back(genus::op_name(s));
  }

  // Optional shared shifter and the result selector.
  NetIndex result = alu_out;
  if (!shift_ops.empty()) {
    ComponentSpec sh_spec = genus::make_shifter_spec(width, shift_ops);
    Instance& sh = dp.add_spec_instance("shift0", sh_spec);
    dp.connect(sh, "IN", aout);
    NetIndex sh_out = dp.add_net("sh_out", width);
    dp.connect(sh, "OUT", sh_out);
    if (shift_ops.size() > 1) {
      NetIndex shf = dp.add_port("sh_f", genus::PortDir::kIn,
                                 sh_spec.select_width());
      dp.connect(sh, "F", shf);
      table.control_signals.emplace_back("sh_f", sh_spec.select_width());
    }
    NetIndex rsel = dp.add_port("rsel", genus::PortDir::kIn, 1);
    table.control_signals.emplace_back("rsel", 1);
    Instance& rmux =
        dp.add_spec_instance("rmux", genus::make_mux_spec(width, 2));
    dp.connect(rmux, "I0", alu_out);
    dp.connect(rmux, "I1", sh_out);
    dp.connect(rmux, "SEL", rsel);
    result = dp.add_net("result", width);
    dp.connect(rmux, "OUT", result);
  }

  // Registers.
  for (const std::string& r : registers) {
    ComponentSpec reg = genus::make_register_spec(width, true, false);
    Instance& inst = dp.add_spec_instance("reg_" + r, reg);
    dp.connect(inst, "D", result);
    dp.connect(inst, "CLK", clk);
    NetIndex en = dp.add_port("en_" + r, genus::PortDir::kIn, 1);
    dp.connect(inst, "EN", en);
    dp.connect(inst, "Q", q_nets.at(r));
    table.control_signals.emplace_back("en_" + r, 1);
  }

  // --- state scheduling: one micro-operation per state -------------------
  // Resolve labels to the next real (non-goto) op.
  std::map<std::string, int> label_to_op;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (const auto& l : ops[i].labels) label_to_op[l] = static_cast<int>(i);
  }
  std::function<int(int)> resolve = [&](int idx) -> int {
    int guard = 0;
    while (ops[idx].kind == MKind::kGoto) {
      idx = label_to_op.at(ops[idx].go);
      BRIDGE_CHECK(++guard < static_cast<int>(ops.size()) + 1,
                   "goto cycle in control flow");
    }
    return idx;
  };
  std::map<int, std::string> state_name;
  int counter = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == MKind::kGoto) continue;
    state_name[static_cast<int>(i)] =
        ops[i].kind == MKind::kHalt ? "HALT" : "S" + std::to_string(counter++);
  }
  auto next_state = [&](int idx) -> std::string {
    for (size_t j = idx + 1; j < ops.size(); ++j) {
      int r = resolve(static_cast<int>(j));
      return state_name.at(r);
    }
    return "HALT";
  };
  auto alu_code = [&](Op op) {
    return static_cast<std::uint64_t>(sim::op_select_code(alu_spec, op));
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const MicroOp& m = ops[i];
    if (m.kind == MKind::kGoto) continue;
    StateRow row;
    row.name = state_name.at(static_cast<int>(i));
    if (m.kind == MKind::kHalt) {
      row.transitions.push_back(Transition{"", false, row.name});
      table.rows.push_back(std::move(row));
      continue;
    }
    auto assert_operands = [&](const Operand& a, const Operand& b) {
      if (na > 1) {
        auto it = std::find(a_sources.begin(), a_sources.end(), a.key());
        row.asserts["amux_sel"] = it - a_sources.begin();
      }
      if (nb > 1) {
        auto it = std::find(b_sources.begin(), b_sources.end(), b.key());
        row.asserts["bmux_sel"] = it - b_sources.begin();
      }
    };
    if (m.kind == MKind::kAssign) {
      assert_operands(m.a, m.b);
      if (m.use_shifter) {
        row.asserts["rsel"] = 1;
        if (shift_ops.size() > 1) {
          ComponentSpec sh_spec = genus::make_shifter_spec(width, shift_ops);
          row.asserts["sh_f"] = sim::op_select_code(sh_spec, m.op);
        }
      } else {
        if (alu_ops.size() > 1) row.asserts["alu_f"] = alu_code(m.op);
        if (m.op == Op::kSub) row.asserts["alu_ci"] = 1;
      }
      row.asserts["en_" + m.target] = 1;
      row.transitions.push_back(
          Transition{"", false, next_state(static_cast<int>(i))});
    } else {  // branch
      assert_operands(m.a, m.b);
      auto [status, negate] = status_for(m.cmp);
      const int target = resolve(label_to_op.at(m.if_false));
      // Take if_false when the condition is FALSE.
      row.transitions.push_back(Transition{genus::op_name(status), !negate,
                                           state_name.at(target)});
      row.transitions.push_back(
          Transition{"", false, next_state(static_cast<int>(i))});
    }
    table.rows.push_back(std::move(row));
  }
  table.initial = table.rows.empty() ? "HALT" : table.rows.front().name;
  return fsmd;
}

FsmdRun run_fsmd(const Fsmd& fsmd, const std::map<std::string, BitVec>& inputs,
                 int max_cycles) {
  obs::Span span("cosim", "sim");
  const StateTable& table = fsmd.control;
  sim::Simulator simulator(*fsmd.design.top());
  for (const auto& [name, value] : inputs) {
    simulator.set_input(name, value);
  }

  // Resolve the table against the simulator once: control signals and
  // status ports to port handles, state names to row indices.
  std::vector<sim::Simulator::Port> controls;
  for (const auto& [signal, width] : table.control_signals) {
    controls.push_back(simulator.port(signal));
    BRIDGE_CHECK(controls.back().input && controls.back().width == width,
                 "control signal '" << signal << "' does not match a "
                                    << width << "-bit datapath input");
  }
  std::map<std::string, int> row_of;
  for (size_t i = 0; i < table.rows.size(); ++i) {
    row_of.emplace(table.rows[i].name, static_cast<int>(i));
  }
  auto index_of = [&](const std::string& state) {
    auto it = row_of.find(state);
    if (it == row_of.end()) {
      throw Error("state table has no state '" + state + "'");
    }
    return it->second;
  };
  struct Edge {
    bool conditional = false;
    sim::Simulator::Port status;
    bool negate = false;
    int next = 0;
  };
  struct Row {
    std::vector<std::uint64_t> asserts;  // one per control signal
    std::vector<Edge> edges;
    bool halt = false;
  };
  std::vector<Row> rows;
  for (const StateRow& r : table.rows) {
    Row row;
    for (const auto& [signal, width] : table.control_signals) {
      auto it = r.asserts.find(signal);
      row.asserts.push_back(it == r.asserts.end() ? 0 : it->second);
    }
    for (const Transition& t : r.transitions) {
      Edge e;
      e.conditional = !t.status.empty();
      if (e.conditional) e.status = simulator.port(t.status);
      e.negate = t.negate;
      e.next = index_of(t.next);
      row.edges.push_back(e);
    }
    row.halt = r.name == "HALT";
    rows.push_back(std::move(row));
  }

  FsmdRun run;
  int state = index_of(table.initial);
  for (run.cycles = 0; run.cycles < max_cycles; ++run.cycles) {
    const Row& row = rows[state];
    for (size_t i = 0; i < controls.size(); ++i) {
      simulator.set_input(controls[i], row.asserts[i]);
    }
    // Choose the successor.
    int next = -1;
    for (const Edge& e : row.edges) {
      if (!e.conditional ||
          ((simulator.get_uint(e.status) & 1) != 0) != e.negate) {
        next = e.next;
        break;
      }
    }
    BRIDGE_CHECK(next >= 0,
                 "state " << table.rows[state].name << " has no successor");
    if (row.halt) {
      run.halted = true;
      break;
    }
    simulator.step();
    state = next;
  }
  // Outputs are registered; read them after the final propagation.
  for (const auto& port : fsmd.design.top()->module_ports()) {
    if (port.dir == genus::PortDir::kOut) {
      run.outputs[port.name] = simulator.get(port.name);
    }
  }
  return run;
}

}  // namespace bridge::hls
