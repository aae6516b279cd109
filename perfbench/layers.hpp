// Per-layer timing taken from outside each layer.
//
// Nothing here reaches into src/: every measurement is a clock pair the
// benchmark places around a public entry point of one layer, on the call
// path of a real workload call.
//
//   * TimedProtocol wraps Protocol::invoke (installed through the
//     ProtocolRegistry factories, so CallCore builds it like any bearer);
//   * TimedCapability wraps Capability::process / unprocess (installed
//     through the CapabilityRegistry and handed to RefBuilder::glue);
//   * timed_handle_frame wraps Context::handle_frame (bound as the
//     context's in-process endpoint, or behind a benchmark TcpListener);
//   * BenchServant wraps EchoServant::dispatch.
//
// Spans nest per thread (a span's self time is its duration minus its
// children's).  The one cross-thread edge, a TCP bearer waiting on the
// server's handle_frame in a listener thread, is joined by request id.
//
// Wire framing and the transport have no hook on the call path, so each
// bearer call replays them right after it returns, with the same header
// and payload: encode_frame / decode_frame for the wire layer, and
// roundtrips of the same sizes through the same transport to a null
// endpoint for the transport layer.  Replay time is "excluded": it is
// carried up the span stack and taken out of every enclosing span and of
// the traced end-to-end latency.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ohpx/capability/capability.hpp"
#include "ohpx/orb/context.hpp"
#include "ohpx/orb/servant.hpp"
#include "ohpx/protocol/protocol.hpp"
#include "ohpx/scenario/echo.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept;

enum Layer : int {
  kOrb = 0,
  kSelect,
  kWireEncode,
  kWireDecode,
  kCapProcess,
  kCapUnprocess,
  kProtoShm,
  kProtoNexus,
  kProtoTcp,
  kProtoGlue,
  kTransport,
  kServerDispatch,
  kServantDispatch,
  kPoolWait,
  kLayerCount
};

/// Span names follow src/ohpx/trace/span_names.hpp where one exists.
const char* layer_name(Layer layer) noexcept;

/// Everything the hooks record.  One global instance; hooks write only
/// while `on` is set (traced rounds), so untraced rounds pay one relaxed
/// load per hook.
struct Recorder {
  std::atomic<bool> on{false};

  std::mutex mu;
  std::vector<std::int64_t> samples[kLayerCount];  // self ns, per span
  std::int64_t sums[kLayerCount] = {};
  std::uint64_t cap_bytes = 0;   // payload bytes through process/unprocess
  std::uint64_t wire_bytes = 0;  // frame bytes replayed through the codec

  // Time spent in benchmark-side replays inside measured calls, summed at
  // the root span of each call.
  std::atomic<std::int64_t> excluded{0};
  // Outermost-bearer bookkeeping for the async workload: sums of entry and
  // exit times (ns since `base_ns`) and the number of attempts seen.
  std::atomic<std::int64_t> base_ns{0};
  std::atomic<std::int64_t> outer_entry_sum{0};
  std::atomic<std::int64_t> outer_exit_sum{0};
  std::atomic<std::uint64_t> attempts{0};
  // handle_frame spans that ran as a thread's root (a server thread apart
  // from the caller's): summed thread CPU time and count.  Between two such
  // spans the thread runs the TCP listener's own read/write loop: its CPU
  // time there, and the number of such gaps.
  std::atomic<std::int64_t> root_handle_cpu_sum{0};
  std::atomic<std::uint64_t> root_handle_count{0};
  std::atomic<std::int64_t> listener_cpu_sum{0};
  std::atomic<std::uint64_t> listener_gaps{0};

  // Server-side spans keyed by request id, for bearers whose server runs
  // on another thread.
  struct Remote {
    std::int64_t dur = 0;       // handle_frame span + its replays
    std::int64_t excluded = 0;  // replay part of dur
  };
  std::unordered_map<std::uint64_t, Remote> remote;

  void record(Layer layer, std::int64_t self_ns);
  void put_remote(std::uint64_t request_id, Remote r);
  Remote take_remote(std::uint64_t request_id);
  void clear();
};

Recorder& recorder();

/// Per-thread span stack.
struct Closed {
  std::int64_t dur = 0;
  std::int64_t self = 0;
  std::int64_t excluded = 0;
};
void span_begin();
Closed span_end();

/// Pops a span if a call unwinds through it.
class SpanGuard {
 public:
  SpanGuard() { span_begin(); }
  ~SpanGuard() {
    if (!closed_) span_end();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  Closed close() {
    closed_ = true;
    return span_end();
  }

 private:
  bool closed_ = false;
};

/// The null endpoints (in-process and TCP) the transport replays hit: they
/// answer a request frame with a reply of the size carried in its method
/// field.
void bind_null_endpoint();
std::uint16_t null_tcp_port();  // starts the null TcpListener on first use
void stop_null_listener();

/// Replaces the protocol and capability factories with ones that wrap the
/// stock objects in the hooks above.  Installed once for a whole traced
/// run: the hooks pass straight through while the recorder is off.
void install_timed_factories();

/// Context::handle_frame with the server.dispatch hook around it.  Where
/// it runs as a server thread's root (behind a TcpListener), it also reads
/// the thread's CPU clock on entry and exit.
ohpx::wire::Buffer timed_handle_frame(ohpx::orb::Context& ctx,
                                      const ohpx::wire::Buffer& frame);

class TimedCapability final : public ohpx::cap::Capability {
 public:
  explicit TimedCapability(ohpx::cap::CapabilityPtr inner)
      : inner_(std::move(inner)) {}

  std::string_view kind() const noexcept override { return inner_->kind(); }
  bool applicable(const ohpx::netsim::Placement& p) const override {
    return inner_->applicable(p);
  }
  void admit(const ohpx::cap::CallContext& call) override {
    inner_->admit(call);
  }
  void process(ohpx::wire::Buffer& payload,
               const ohpx::cap::CallContext& call) override;
  void unprocess(ohpx::wire::Buffer& payload,
                 const ohpx::cap::CallContext& call) override;
  ohpx::cap::CapabilityDescriptor descriptor() const override {
    return inner_->descriptor();
  }
  ohpx::cap::CapabilityDescriptor server_descriptor() const override {
    return inner_->server_descriptor();
  }

 private:
  ohpx::cap::CapabilityPtr inner_;
};

/// The benchmark-owned servant: counts every dispatch (the servant-side
/// call count the output check compares with the client's), times it in
/// traced rounds, and can burn a fixed delay (the sensitivity self-test).
/// The delay is a calibrated run of dependent ALU steps, not a clock
/// poll, so it adds the same time per call whatever clock reads cost.
class BenchServant final : public ohpx::orb::Servant {
 public:
  explicit BenchServant(std::int64_t delay_ns);

  std::string_view type_name() const noexcept override {
    return inner_.type_name();
  }
  void dispatch(std::uint32_t method_id, ohpx::wire::Decoder& in,
                ohpx::wire::Encoder& out) override;
  bool migratable() const noexcept override { return true; }
  ohpx::Bytes snapshot() const override { return inner_.snapshot(); }
  void restore(ohpx::BytesView b) override { inner_.restore(b); }

  std::uint64_t dispatches() const noexcept { return dispatches_.load(); }

 private:
  ohpx::scenario::EchoServant inner_;
  std::int64_t delay_steps_;
  std::atomic<std::uint64_t> dispatches_{0};
};

}  // namespace perfbench
