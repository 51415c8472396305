// Seeded input generators. The program under test only ever receives what
// these produce; each input is a pure function of (seed, stream, index).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/api.h"
#include "bench.h"
#include "netlist/netlist.h"

namespace perfbench {

// --- behavioral programs ------------------------------------------------------

/// The benchmark's own program representation. It is rendered to the
/// behavioral language for hls::parse_behavior and interpreted directly
/// by eval(), the co-simulation reference, so the reference shares no
/// code with the program under test.
struct PExpr {
  char kind = 'c';  // 'v' var, 'c' const, 'b' binary, 'n' bitwise not
  std::string var;
  std::uint64_t value = 0;
  std::string op;  // + - & | ^ << >>
  std::vector<PExpr> args;
};

struct PStmt {
  char kind = 'a';  // 'a' assign, 'i' if, 'w' while
  std::string target;
  PExpr value;
  std::string cmp;  // condition: == != < > <= >=, or "" for "!= 0"
  PExpr lhs, rhs;
  std::vector<PStmt> then_body, else_body;
};

struct Program {
  std::string name;
  std::string shape;  // loop shape
  int width = 8;
  int library = 0;  // 0 LSI, 1 TTL, 2 sky130 (re-read from Liberty)
  std::vector<std::string> inputs, outputs, vars;
  std::vector<PStmt> body;
  /// Input vectors the job co-simulates.
  std::vector<std::map<std::string, std::uint64_t>> vectors;

  std::string text() const;
  /// Outputs after running to completion (the generator bounds every
  /// loop; a runaway program throws).
  std::map<std::string, std::uint64_t> eval(
      const std::map<std::string, std::uint64_t>& in) const;
};

Program gen_program(std::uint64_t seed, long index);

// --- GENUS datapath netlists --------------------------------------------------

struct NetlistShape {
  int min_specs, max_specs;  // distinct specifications
  int min_width, max_width;
  int max_repeats;  // extra instances of already-used specs
  int rich_specs;   // specs drawn first from the wide-alternative kinds
};
inline constexpr NetlistShape kDenseShape{8, 14, 8, 32, 3, 8};
inline constexpr NetlistShape kServeShape{3, 5, 8, 16, 1, 1};

/// A DAG of GENUS specification instances of one width (`width`, or drawn
/// from the shape when 0). The declaration order of ports and nets comes
/// from the seed: ports first, nets first, or a random interleaving, as
/// HLS netlists declare them.
bridge::netlist::Module gen_datapath(Rng& rng, const std::string& name,
                                     const NetlistShape& shape, int width = 0);

/// Netlist `index` of the sweep_dense stream.
bridge::netlist::Module sweep_netlist(std::uint64_t seed, long index);

// --- server request mix ---------------------------------------------------------

struct MixRequest {
  bridge::api::SynthesisRequest req;
  std::string key;  // identity of the design-space question (no output flags)
  bool hot = false;
};

/// Library names the mix draws from (registered by the serve workload).
const std::vector<std::string>& mix_libraries();

struct MixParams {
  int hot_size;         // distinct warm requests repeated by the stream
  double novel_share;   // requests never seen before (cold fills)
  double vhdl_share;    // requests that set emit_vhdl
  double profile_share; // requests that set include_profile
};
inline constexpr MixParams kMix{33, 0.1, 0.1, 0.1};

class RequestMix {
 public:
  RequestMix(std::uint64_t seed, const MixParams& params);
  const std::vector<MixRequest>& hot_set() const { return hot_; }
  /// Request i of the stream: a hot repeat or a never-seen request.
  MixRequest next(long index);

 private:
  MixRequest make(Rng& rng, long stratum);
  std::uint64_t seed_;
  MixParams params_;
  long first_width_;  // seeded start of the width walk
  long novel_ = 0;    // novel requests drawn so far
  std::vector<MixRequest> hot_;
  std::map<std::string, int> seen_;
};

/// Byte serialization of the first `n` inputs of a workload, for the
/// determinism self-check.
std::string input_bytes(const std::string& workload, std::uint64_t seed, int n);

}  // namespace perfbench
