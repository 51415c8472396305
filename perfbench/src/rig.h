// The in-process server rig shared by the workloads that send requests
// over the wire: a library registry, a server on an ephemeral TCP port,
// a bounded teardown, and one timed request round trip.
#pragma once

#include <memory>
#include <vector>

#include "api/api.h"
#include "bench.h"
#include "cells/registry.h"
#include "server/server.h"

namespace perfbench {

/// The registry (built-in data books plus the bundled Liberty file) and a
/// started server with default options over it.
struct ServerRig {
  std::unique_ptr<bridge::cells::LibraryRegistry> registry;
  std::unique_ptr<bridge::server::SynthesisServer> server;

  explicit ServerRig(const Options& o);
  ~ServerRig();
  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;
};

/// Stop and destroy a rig on another thread, waiting at most 20 s.
/// SynthesisServer::dispatch_synthesize signals its per-request condition
/// variable after unlocking, while the waiting reader may already have
/// returned and destroyed it; a pool worker can then block forever inside
/// that signal, and stop() waits for it forever. A teardown that does not
/// finish counts as a failed operation instead of hanging the run.
void teardown(std::unique_ptr<ServerRig> rig, Report& r);

/// One synthesize request on connection `fd`, in spans "api.encode",
/// "client.roundtrip" and "api.decode". Throws on a transport failure.
struct RoundTrip {
  bridge::api::SynthesisResult result;
  double encode_ms = 0, roundtrip_ms = 0, decode_ms = 0;
};
RoundTrip round_trip(int fd, const bridge::api::SynthesisRequest& req, Tracer& t, long job);

/// The in-process front for a request exactly as the server decodes it.
std::vector<bridge::dtas::AlternativeDesign> in_process_front(
    const bridge::api::SynthesisRequest& sent, const bridge::cells::LibraryRegistry& registry);

}  // namespace perfbench
