#include "rig.h"

#include <chrono>
#include <future>
#include <thread>

#include "server/protocol.h"

namespace perfbench {

ServerRig::ServerRig(const Options& o)
    : registry(std::make_unique<bridge::cells::LibraryRegistry>(
          bridge::cells::LibraryRegistry::with_builtins())) {
  registry->load_liberty_file(o.libs_dir + "/sample_sky130_subset.lib");
  server = std::make_unique<bridge::server::SynthesisServer>(*registry,
                                                             bridge::server::ServerOptions{});
  server->start();
}

ServerRig::~ServerRig() {
  if (server) server->stop();
}

void teardown(std::unique_ptr<ServerRig> rig, Report& r) {
  if (!rig) return;
  auto task = std::make_shared<std::packaged_task<void()>>(
      [owned = std::shared_ptr<ServerRig>(std::move(rig))]() mutable { owned.reset(); });
  std::future<void> done = task->get_future();
  std::thread stopper([task] { (*task)(); });
  if (done.wait_for(std::chrono::seconds(20)) == std::future_status::ready) {
    stopper.join();
    return;
  }
  stopper.detach();  // blocked for good; the process exit ends it
  ++r.errors;
  r.failures.push_back("server teardown: stop() did not return within 20 s");
}

RoundTrip round_trip(int fd, const bridge::api::SynthesisRequest& req, Tracer& t, long job) {
  RoundTrip out;
  const Clock::time_point t0 = Clock::now();
  std::string frame;
  {
    Span span(t, "api.encode", job);
    bridge::api::Json j = req.encode();
    j.set("method", "synthesize");
    frame = j.dump();
  }
  const Clock::time_point t1 = Clock::now();
  std::string payload;
  {
    Span span(t, "client.roundtrip", job);
    bridge::server::write_frame(fd, frame);
    if (!bridge::server::read_frame(fd, payload)) {
      throw bridge::Error("server closed the connection");
    }
  }
  const Clock::time_point t2 = Clock::now();
  {
    Span span(t, "api.decode", job);
    out.result = bridge::api::SynthesisResult::from_json(payload);
  }
  const Clock::time_point t3 = Clock::now();
  out.encode_ms = ms_between(t0, t1);
  out.roundtrip_ms = ms_between(t1, t2);
  out.decode_ms = ms_between(t2, t3);
  return out;
}

std::vector<bridge::dtas::AlternativeDesign> in_process_front(
    const bridge::api::SynthesisRequest& sent, const bridge::cells::LibraryRegistry& registry) {
  const auto req = bridge::api::SynthesisRequest::from_json(sent.to_json());
  auto session = bridge::api::make_session(req, registry.at(req.library));
  return req.spec ? session->synthesize(*req.spec)
                  : session->synthesize_netlist(*req.input_netlist);
}

}  // namespace perfbench
