#include "gen.h"

#include <algorithm>
#include <stdexcept>

#include "genus/spec.h"

namespace perfbench {

using bridge::genus::ComponentSpec;
using bridge::genus::Op;
using bridge::genus::OpSet;
using bridge::genus::PortDir;
using bridge::genus::PortRole;

namespace {

// Stream ids keep the generators independent of one another.
enum Stream : std::uint64_t {
  kProgramStream = 1,
  kSweepStream = 2,
  kHotStream = 3,
  kMixStream = 4,
};

std::uint64_t mask_of(int w) { return w >= 64 ? ~0ULL : (1ULL << w) - 1; }

// --- programs -------------------------------------------------------------------

PExpr var(const std::string& v) {
  PExpr e;
  e.kind = 'v';
  e.var = v;
  return e;
}

PExpr lit(std::uint64_t v) {
  PExpr e;
  e.kind = 'c';
  e.value = v;
  return e;
}

PExpr bin(const std::string& op, PExpr a, PExpr b) {
  PExpr e;
  e.kind = 'b';
  e.op = op;
  e.args.push_back(std::move(a));
  e.args.push_back(std::move(b));
  return e;
}

PStmt assign(const std::string& target, PExpr value) {
  PStmt s;
  s.kind = 'a';
  s.target = target;
  s.value = std::move(value);
  return s;
}

PStmt loop(const std::string& cmp, PExpr lhs, PExpr rhs, std::vector<PStmt> body) {
  PStmt s;
  s.kind = 'w';
  s.cmp = cmp;
  s.lhs = std::move(lhs);
  s.rhs = std::move(rhs);
  s.then_body = std::move(body);
  return s;
}

std::string render(const PExpr& e) {
  switch (e.kind) {
    case 'v':
      return e.var;
    case 'c':
      return std::to_string(e.value);
    case 'n':
      return "~" + render(e.args[0]);
    default:
      return "(" + render(e.args[0]) + " " + e.op + " " + render(e.args[1]) + ")";
  }
}

void render(const std::vector<PStmt>& body, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  for (const PStmt& s : body) {
    if (s.kind == 'a') {
      out += pad + s.target + " = " + render(s.value) + ";\n";
      continue;
    }
    std::string cond = render(s.lhs);
    if (!s.cmp.empty()) cond += " " + s.cmp + " " + render(s.rhs);
    out += pad + (s.kind == 'w' ? "while (" : "if (") + cond + ") {\n";
    render(s.then_body, indent + 2, out);
    if (!s.else_body.empty()) {
      out += pad + "} else {\n";
      render(s.else_body, indent + 2, out);
    }
    out += pad + "}\n";
  }
}

struct Env {
  std::map<std::string, std::uint64_t> values;
  std::uint64_t mask;
  long steps = 0;
};

std::uint64_t eval_expr(const PExpr& e, const Env& env) {
  switch (e.kind) {
    case 'v':
      return env.values.at(e.var);
    case 'c':
      return e.value & env.mask;
    case 'n':
      return ~eval_expr(e.args[0], env) & env.mask;
    default:
      break;
  }
  const std::uint64_t a = eval_expr(e.args[0], env);
  const std::uint64_t b = eval_expr(e.args[1], env);
  if (e.op == "+") return (a + b) & env.mask;
  if (e.op == "-") return (a - b) & env.mask;
  if (e.op == "&") return a & b;
  if (e.op == "|") return a | b;
  if (e.op == "^") return a ^ b;
  if (e.op == "<<") return b >= 64 ? 0 : (a << b) & env.mask;
  if (e.op == ">>") return b >= 64 ? 0 : a >> b;
  throw std::logic_error("unknown operator " + e.op);
}

bool eval_cond(const PStmt& s, const Env& env) {
  const std::uint64_t a = eval_expr(s.lhs, env);
  if (s.cmp.empty()) return a != 0;
  const std::uint64_t b = eval_expr(s.rhs, env);
  if (s.cmp == "==") return a == b;
  if (s.cmp == "!=") return a != b;
  if (s.cmp == "<") return a < b;
  if (s.cmp == ">") return a > b;
  if (s.cmp == "<=") return a <= b;
  return a >= b;
}

void exec(const std::vector<PStmt>& body, Env& env) {
  for (const PStmt& s : body) {
    if (++env.steps > 1000000) throw std::runtime_error("program did not halt");
    if (s.kind == 'a') {
      env.values[s.target] = eval_expr(s.value, env);
    } else if (s.kind == 'i') {
      exec(eval_cond(s, env) ? s.then_body : s.else_body, env);
    } else {
      while (eval_cond(s, env)) {
        exec(s.then_body, env);
        if (++env.steps > 1000000) throw std::runtime_error("program did not halt");
      }
    }
  }
}

/// Random statements over the data variables, drawn from the program's
/// operator mix.
class StmtGen {
 public:
  StmtGen(Rng& rng, const Program& p, std::vector<std::string> ops)
      : rng_(rng), p_(p), ops_(std::move(ops)) {}

  PExpr leaf() {
    if (rng_.chance(0.2)) {
      return lit(rng_.chance(0.5) ? static_cast<std::uint64_t>(rng_.uniform(1, 9))
                                  : rng_.next() & mask_of(p_.width));
    }
    std::vector<std::string> names = {"x", "y", "z"};
    names.insert(names.end(), p_.inputs.begin(), p_.inputs.end());
    return var(rng_.pick(names));
  }

  PExpr expr(int depth) {
    const std::string op = rng_.pick(ops_);
    if (op == "~") {
      PExpr e;
      e.kind = 'n';
      e.args.push_back(depth > 1 ? expr(depth - 1) : leaf());
      return e;
    }
    PExpr a = depth > 1 && rng_.chance(0.5) ? expr(depth - 1) : leaf();
    if (op == "<<" || op == ">>") {
      return bin(op, std::move(a), lit(static_cast<std::uint64_t>(rng_.uniform(1, 3))));
    }
    return bin(op, std::move(a), leaf());
  }

  PStmt stmt() {
    const std::string target = rng_.pick(std::vector<std::string>{"x", "y", "z"});
    if (!rng_.chance(0.3)) return assign(target, expr(rng_.uniform(1, 2)));
    PStmt s;
    s.kind = 'i';
    s.cmp = rng_.pick(std::vector<std::string>{"==", "!=", "<", ">", "<=", ">="});
    s.lhs = leaf();
    s.rhs = leaf();
    s.then_body.push_back(assign(target, expr(1)));
    if (rng_.chance(0.6)) s.else_body.push_back(assign(target, expr(1)));
    return s;
  }

  std::vector<PStmt> stmts(int lo, int hi) {
    std::vector<PStmt> out;
    for (int i = rng_.uniform(lo, hi); i > 0; --i) out.push_back(stmt());
    return out;
  }

 private:
  Rng& rng_;
  const Program& p_;
  std::vector<std::string> ops_;
};

}  // namespace

std::string Program::text() const {
  std::string out = "design " + name + ";\n";
  const std::string w = " : " + std::to_string(width) + ";\n";
  for (const auto& v : inputs) out += "input " + v + w;
  for (const auto& v : outputs) out += "output " + v + w;
  for (const auto& v : vars) out += "var " + v + w;
  out += "begin\n";
  render(body, 2, out);
  out += "end\n";
  return out;
}

std::map<std::string, std::uint64_t> Program::eval(
    const std::map<std::string, std::uint64_t>& in) const {
  Env env;
  env.mask = mask_of(width);
  for (const auto& v : inputs) env.values[v] = in.at(v) & env.mask;
  for (const auto& v : outputs) env.values[v] = 0;
  for (const auto& v : vars) env.values[v] = 0;
  exec(body, env);
  std::map<std::string, std::uint64_t> out;
  for (const auto& v : outputs) out[v] = env.values.at(v);
  return out;
}

Program gen_program(std::uint64_t seed, long index) {
  Rng rng(seed, kProgramStream, static_cast<std::uint64_t>(index));
  Program p;
  p.name = "p" + std::to_string(index);
  // The library, the loop shape and the width cycle with the job index
  // (from a seeded starting width), so the mix of a run does not drift
  // with the seed; the seed draws everything else.
  const int first_width = Rng(seed, kProgramStream, ~0ULL).uniform(0, 60);
  p.width = 4 + static_cast<int>((first_width + index) % 61);
  p.library = static_cast<int>(index % 3);
  const std::uint64_t mask = mask_of(p.width);
  p.inputs = {"a", "b"};
  if (rng.chance(0.4)) p.inputs.push_back("c");
  p.outputs = {"r"};
  if (rng.chance(0.4)) p.outputs.push_back("s");
  p.vars = {"x", "y", "z"};

  std::vector<std::string> ops;
  for (const char* op : {"+", "-", "&", "|", "^", "~", "<<", ">>"}) {
    if (rng.chance(0.5)) ops.push_back(op);
  }
  while (ops.size() < 2) ops.push_back(rng.chance(0.5) ? "+" : "^");
  StmtGen g(rng, p, ops);

  // Every variable is written before it is read.
  p.body.push_back(assign("x", var("a")));
  p.body.push_back(assign("y", var("b")));
  p.body.push_back(assign(
      "z", lit(rng.chance(0.5) ? rng.next() & mask : static_cast<std::uint64_t>(rng.uniform(0, 9)))));

  static const std::vector<std::string> kShapes = {
      "straight", "count_down", "count_up", "gcd", "shift_count", "nested"};
  p.shape = kShapes[static_cast<std::size_t>(index / 3) % kShapes.size()];
  const auto bound = [&](int hi) {
    return lit(static_cast<std::uint64_t>(rng.uniform(1, static_cast<int>(
                                                             std::min<std::uint64_t>(mask, hi)))));
  };
  if (p.shape == "straight") {
    for (PStmt& s : g.stmts(2, 5)) p.body.push_back(std::move(s));
  } else if (p.shape == "count_down") {
    p.vars.push_back("i");
    p.body.push_back(assign("i", bound(8)));
    std::vector<PStmt> body = g.stmts(1, 3);
    body.push_back(assign("i", bin("-", var("i"), lit(1))));
    p.body.push_back(loop("!=", var("i"), lit(0), std::move(body)));
  } else if (p.shape == "count_up") {
    p.vars.push_back("i");
    p.body.push_back(assign("i", lit(0)));
    std::vector<PStmt> body = g.stmts(1, 3);
    body.push_back(assign("i", bin("+", var("i"), lit(1))));
    p.body.push_back(loop("<", var("i"), bound(8), std::move(body)));
  } else if (p.shape == "gcd") {
    PStmt step;
    step.kind = 'i';
    step.cmp = ">";
    step.lhs = var("x");
    step.rhs = var("y");
    step.then_body.push_back(assign("x", bin("-", var("x"), var("y"))));
    step.else_body.push_back(assign("y", bin("-", var("y"), var("x"))));
    std::vector<PStmt> body;
    body.push_back(std::move(step));
    p.body.push_back(loop("!=", var("x"), var("y"), std::move(body)));
    for (PStmt& s : g.stmts(0, 2)) p.body.push_back(std::move(s));
  } else if (p.shape == "shift_count") {
    p.vars.push_back("k");
    p.body.push_back(assign("k", lit(0)));
    std::vector<PStmt> body;
    body.push_back(assign("x", bin(">>", var("x"), lit(1))));
    body.push_back(assign("k", bin("+", var("k"), lit(1))));
    p.body.push_back(loop("", var("x"), lit(0), std::move(body)));
    p.body.push_back(assign("z", bin("^", var("z"), var("k"))));
  } else {  // nested
    p.vars.push_back("i");
    p.vars.push_back("j");
    p.body.push_back(assign("i", bound(4)));
    std::vector<PStmt> inner = g.stmts(1, 2);
    inner.push_back(assign("j", bin("-", var("j"), lit(1))));
    std::vector<PStmt> outer;
    outer.push_back(assign("j", bound(4)));
    outer.push_back(loop("!=", var("j"), lit(0), std::move(inner)));
    outer.push_back(assign("i", bin("-", var("i"), lit(1))));
    p.body.push_back(loop("!=", var("i"), lit(0), std::move(outer)));
  }
  p.body.push_back(assign("r", rng.chance(0.5) ? var("x") : g.expr(1)));
  if (p.outputs.size() > 1) p.body.push_back(assign("s", bin("^", var("y"), var("z"))));

  // Two co-simulation vectors. gcd operands are kept small and nonzero so
  // the subtractive loop halts within a few hundred cycles.
  for (int v = 0; v < 2; ++v) {
    std::map<std::string, std::uint64_t> in;
    for (const auto& name : p.inputs) {
      in[name] = p.shape == "gcd"
                     ? static_cast<std::uint64_t>(rng.uniform(
                           1, static_cast<int>(std::min<std::uint64_t>(mask, 60))))
                     : rng.next() & mask;
    }
    p.vectors.push_back(std::move(in));
  }
  return p;
}

// --- datapath netlists -------------------------------------------------------------

namespace {

std::vector<ComponentSpec> spec_pool(int w) {
  using namespace bridge::genus;
  std::vector<ComponentSpec> pool = {
      make_register_spec(w, true, false),
      make_register_spec(w, false, true),
      make_alu_spec(w, alu16_ops()),
      make_alu_spec(w, alu16_arith_ops()),
      make_alu_spec(w, alu16_logic_ops()),
      make_adder_spec(w, false, false),
      make_adder_spec(w, true, true),
      make_subtractor_spec(w),
      make_addsub_spec(w),
      make_shifter_spec(w, OpSet{Op::kShl, Op::kShr}),
      make_shifter_spec(w, OpSet{Op::kShl}),
      make_comparator_spec(w, OpSet{Op::kEq, Op::kLt}),
      make_comparator_spec(w, OpSet{Op::kEq, Op::kLt, Op::kGt}),
      make_mux_spec(w, 2),
      make_mux_spec(w, 4),
      make_gate_spec(Op::kXor, w, 2),
      make_gate_spec(Op::kAnd, w, 2),
      make_gate_spec(Op::kOr, w, 2),
  };
  if (w >= 16 && w % 2 == 0) pool.push_back(make_multiplier_spec(w / 2, w / 2));
  return pool;
}

/// Kinds whose dense-sweep alternative lists have several entries at
/// every width (registers, shifters, muxes and gates mostly have one).
bool is_rich(const ComponentSpec& s) {
  using bridge::genus::Kind;
  return s.kind == Kind::kAlu || s.kind == Kind::kMultiplier || s.kind == Kind::kComparator ||
         s.kind == Kind::kAdder || s.kind == Kind::kSubtractor || s.kind == Kind::kAddSub;
}

template <class T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform(0, static_cast<int>(i) - 1))]);
  }
}

}  // namespace

bridge::netlist::Module gen_datapath(Rng& rng, const std::string& name,
                                     const NetlistShape& shape, int width) {
  struct Decl {
    bool port;
    std::string name;
    PortDir dir;
    int width;
  };
  struct Conn {
    std::string port, net;
    int lo;
  };
  struct Inst {
    std::string name;
    ComponentSpec spec;
    std::vector<Conn> conns;
  };

  const int w = width > 0 ? width : rng.uniform(shape.min_width, shape.max_width);
  // Most specs come from the many-alternative kinds, so every netlist's
  // odometer has enough many-valued digits to reach the combination cap
  // territory whatever the width.
  std::vector<ComponentSpec> pool = spec_pool(w);
  const auto rich_end = std::stable_partition(pool.begin(), pool.end(), is_rich);
  std::vector<ComponentSpec> rich(pool.begin(), rich_end), rest(rich_end, pool.end());
  shuffle(rng, rich);
  shuffle(rng, rest);
  const int distinct = rng.uniform(shape.min_specs, shape.max_specs);
  std::vector<ComponentSpec> specs(rich.begin(), rich.begin() + shape.rich_specs);
  specs.insert(specs.end(), rest.begin(), rest.begin() + (distinct - shape.rich_specs));
  for (int i = rng.uniform(0, shape.max_repeats); i > 0; --i) specs.push_back(rng.pick(specs));
  shuffle(rng, specs);

  std::vector<Decl> decls;
  std::vector<std::string> data;  // w-bit signals available as operands
  for (int i = 0, n = rng.uniform(2, 4); i < n; ++i) {
    decls.push_back({true, "D" + std::to_string(i), PortDir::kIn, w});
    data.push_back("D" + std::to_string(i));
  }
  std::map<std::string, bool> controls;  // shared control input ports
  std::vector<Inst> insts;
  std::vector<std::size_t> produced;  // decls of instance data outputs
  for (std::size_t k = 0; k < specs.size(); ++k) {
    Inst inst{"u" + std::to_string(k), specs[k], {}};
    for (const auto& port : bridge::genus::spec_ports(inst.spec)) {
      const std::string pname = port.name;
      if (port.dir == PortDir::kIn && port.role == PortRole::kData) {
        // Later operands favour recent results, so chains form.
        const int n = static_cast<int>(data.size());
        const std::string& src = data[static_cast<std::size_t>(
            rng.chance(0.6) ? rng.uniform(std::max(0, n - 3), n - 1) : rng.uniform(0, n - 1))];
        const int lo = port.width < w && rng.chance(0.5) ? w - port.width : 0;
        inst.conns.push_back({pname, src, lo});
      } else if (port.dir == PortDir::kIn) {
        const std::string cname = "C_" + pname + "_" + std::to_string(port.width);
        if (!controls[cname]) {
          controls[cname] = true;
          decls.push_back({true, cname, PortDir::kIn, port.width});
        }
        inst.conns.push_back({pname, cname, 0});
      } else if (port.role == PortRole::kData && port.width == w) {
        const std::string net = inst.name + "_" + pname;
        decls.push_back({false, net, PortDir::kIn, w});
        produced.push_back(decls.size() - 1);
        data.push_back(net);
        inst.conns.push_back({pname, net, 0});
      } else if (rng.chance(0.5)) {
        const std::string out = "O_" + inst.name + "_" + pname;
        decls.push_back({true, out, PortDir::kOut, port.width});
        inst.conns.push_back({pname, out, 0});
      }
    }
    insts.push_back(std::move(inst));
  }
  // The last result, and sometimes one more, leave as output ports.
  if (!produced.empty()) {
    Decl& last = decls[produced.back()];
    last.port = true;
    last.dir = PortDir::kOut;
    if (produced.size() > 1 && rng.chance(0.5)) {
      Decl& other = decls[produced[static_cast<std::size_t>(
          rng.uniform(0, static_cast<int>(produced.size()) - 2))]];
      other.port = true;
      other.dir = PortDir::kOut;
    }
  }

  // Declaration order: ports first, nets first, or interleaved.
  std::vector<const Decl*> ports, nets, order;
  for (const Decl& d : decls) (d.port ? ports : nets).push_back(&d);
  const int mode = rng.uniform(0, 2);
  if (mode == 0) {
    order = ports;
    order.insert(order.end(), nets.begin(), nets.end());
  } else if (mode == 1) {
    order = nets;
    order.insert(order.end(), ports.begin(), ports.end());
  } else {
    std::size_t pi = 0, ni = 0;
    while (pi < ports.size() || ni < nets.size()) {
      const std::size_t left = ports.size() - pi + nets.size() - ni;
      const bool take_port =
          ni == nets.size() ||
          (pi < ports.size() && rng.uniform(1, static_cast<int>(left)) <=
                                    static_cast<int>(ports.size() - pi));
      order.push_back(take_port ? ports[pi++] : nets[ni++]);
    }
  }

  bridge::netlist::Module m(name);
  for (const Decl* d : order) {
    if (d->port) {
      m.add_port(d->name, d->dir, d->width);
    } else {
      m.add_net(d->name, d->width);
    }
  }
  for (const Inst& i : insts) {
    auto& inst = m.add_spec_instance(i.name, i.spec);
    for (const Conn& c : i.conns) m.connect(inst, c.port, m.find_net(c.net), c.lo);
  }
  return m;
}

// --- request mix -----------------------------------------------------------------

const std::vector<std::string>& mix_libraries() {
  static const std::vector<std::string> libs = {"LSI_LGC15", "TTL74",
                                                "sample_sky130_subset"};
  return libs;
}

namespace {

/// Spec kinds of the request mix; kind kMixKinds is a small netlist.
constexpr int kMixKinds = 10;

ComponentSpec mix_spec(Rng& rng, int kind, int w) {
  using namespace bridge::genus;
  switch (kind) {
    case 0:
      return make_adder_spec(w, rng.chance(0.5), rng.chance(0.5));
    case 1:
      return make_subtractor_spec(w);
    case 2:
      return make_alu_spec(w, alu16_ops());
    case 3:
      return make_alu_spec(w, rng.chance(0.5) ? alu16_arith_ops() : alu16_logic_ops());
    case 4:
      return make_comparator_spec(w, rng.chance(0.5) ? OpSet{Op::kEq, Op::kLt}
                                                     : OpSet{Op::kEq, Op::kLt, Op::kGt});
    case 5:
      return make_mux_spec(w, rng.uniform(2, 8));
    case 6:
      return make_register_spec(w, rng.chance(0.5), rng.chance(0.5));
    case 7:
      return make_shifter_spec(w, OpSet{Op::kShl, Op::kShr});
    case 8:
      return make_addsub_spec(w);
    default:
      return make_gate_spec(rng.chance(0.5) ? Op::kXor : Op::kAnd, w, 2);
  }
}

}  // namespace

RequestMix::RequestMix(std::uint64_t seed, const MixParams& params)
    : seed_(seed), params_(params), first_width_(Rng(seed, kHotStream, ~0ULL).uniform(0, 60)) {
  for (long i = 0; static_cast<int>(hot_.size()) < params.hot_size; ++i) {
    Rng rng(seed, kHotStream, static_cast<std::uint64_t>(i));
    MixRequest r = make(rng, static_cast<long>(hot_.size()));
    if (seen_[r.key]++ > 0) continue;
    r.hot = true;
    hot_.push_back(std::move(r));
  }
}

/// Request `stratum` of a sequence that cycles through every (library,
/// kind) pair, so the mix's proportions do not drift with the seed.
MixRequest RequestMix::make(Rng& rng, long stratum) {
  const auto& libs = mix_libraries();
  const long n = static_cast<long>(libs.size());
  const int kind = static_cast<int>((stratum / n) % (kMixKinds + 1));
  MixRequest r;
  r.req.library = libs[static_cast<std::size_t>(stratum % n)];
  if (kind == kMixKinds) {
    r.req.input_netlist = gen_datapath(rng, "n" + std::to_string(stratum), kServeShape);
    r.key = r.req.library + "|" + bridge::api::encode_netlist(*r.req.input_netlist).dump();
  } else {
    // Widths 4..64 hop by 37 (coprime to 61) per stratum, so each
    // (library, kind) pair walks through every width in turn.
    r.req.spec = mix_spec(rng, kind, 4 + static_cast<int>((first_width_ + 37 * stratum) % 61));
    r.key = r.req.library + "|" + r.req.spec->key();
  }
  return r;
}

MixRequest RequestMix::next(long index) {
  Rng rng(seed_, kMixStream, static_cast<std::uint64_t>(index));
  MixRequest r;
  if (rng.chance(params_.novel_share)) {
    do {
      r = make(rng, novel_++);
    } while (seen_[r.key]++ > 0);
  } else {
    r = hot_[static_cast<std::size_t>(rng.uniform(0, static_cast<int>(hot_.size()) - 1))];
  }
  r.req.options.emit_vhdl = rng.chance(params_.vhdl_share);
  r.req.options.include_profile = rng.chance(params_.profile_share);
  return r;
}

bridge::netlist::Module sweep_netlist(std::uint64_t seed, long index) {
  // Widths cycle with the index (alternative counts depend strongly on
  // the width's factors), so every run sweeps the whole range evenly.
  Rng rng(seed, kSweepStream, static_cast<std::uint64_t>(index));
  const int span = kDenseShape.max_width - kDenseShape.min_width + 1;
  return gen_datapath(rng, "dp" + std::to_string(index), kDenseShape,
                      kDenseShape.min_width + static_cast<int>(index % span));
}

std::string input_bytes(const std::string& workload, std::uint64_t seed, int n) {
  std::string out;
  if (workload == "flow_fig1") {
    for (long i = 0; i < n; ++i) {
      const Program p = gen_program(seed, i);
      out += p.text();
      for (const auto& v : p.vectors) {
        for (const auto& [name, value] : v) out += name + "=" + std::to_string(value) + ";";
      }
    }
  } else if (workload == "sweep_dense") {
    for (long i = 0; i < n; ++i) {
      out += bridge::api::encode_netlist(sweep_netlist(seed, i)).dump();
    }
  } else {
    RequestMix mix(seed, kMix);
    for (const MixRequest& h : mix.hot_set()) out += h.req.to_json();
    for (long i = 0; i < n; ++i) out += mix.next(i).req.to_json();
  }
  return out;
}


}  // namespace perfbench
