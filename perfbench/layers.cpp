#include "layers.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/protocol/glue.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/protocol/nexus_sim.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/protocol/shm.hpp"
#include "ohpx/protocol/tcp_proto.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/sim.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace perfbench {

using namespace ohpx;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_name(Layer layer) noexcept {
  static const char* const kNames[kLayerCount] = {
      "orb",         "select",         "wire.encode",      "wire.decode",
      "cap.process", "cap.unprocess",  "proto.shm",        "proto.nexus",
      "proto.tcp",   "proto.glue",     "transport",        "server.dispatch",
      "servant.dispatch", "pool.wait"};
  return kNames[layer];
}

// ---------------------------------------------------------------- recorder

Recorder& recorder() {
  static Recorder r;
  return r;
}

void Recorder::record(Layer layer, std::int64_t self_ns) {
  std::lock_guard<std::mutex> lock(mu);
  samples[layer].push_back(self_ns);
  sums[layer] += self_ns;
}

void Recorder::put_remote(std::uint64_t request_id, Remote r) {
  std::lock_guard<std::mutex> lock(mu);
  remote[request_id] = r;
}

Recorder::Remote Recorder::take_remote(std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu);
  const auto it = remote.find(request_id);
  if (it == remote.end()) return {};
  const Remote r = it->second;
  remote.erase(it);
  return r;
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(mu);
  for (auto& s : samples) s.clear();
  std::fill(std::begin(sums), std::end(sums), 0);
  cap_bytes = 0;
  wire_bytes = 0;
  remote.clear();
  excluded.store(0);
  outer_entry_sum.store(0);
  outer_exit_sum.store(0);
  attempts.store(0);
  root_handle_cpu_sum.store(0);
  root_handle_count.store(0);
  listener_cpu_sum.store(0);
  listener_gaps.store(0);
  base_ns.store(now_ns());
}

// -------------------------------------------------------------- span stack

namespace {

struct Frame {
  std::int64_t start = 0;
  std::int64_t child = 0;
  std::int64_t excluded = 0;
};

thread_local std::vector<Frame> t_stack;
thread_local int t_proto_depth = 0;

bool span_open() noexcept { return !t_stack.empty(); }

// Marks `ns` of replay time spent inside the current innermost span (at
// the root, inside nothing measured, it is dropped).  `in_child` is true
// when the time already lies inside a child's duration and only the
// exclusion needs carrying up.
void exclude(std::int64_t ns, bool in_child = false) {
  if (t_stack.empty()) return;
  if (!in_child) t_stack.back().child += ns;
  t_stack.back().excluded += ns;
}

constexpr const char* kNullEndpoint = "perfbench/null";

}  // namespace

void span_begin() { t_stack.push_back(Frame{now_ns(), 0, 0}); }

Closed span_end() {
  const std::int64_t end = now_ns();
  const Frame f = t_stack.back();
  t_stack.pop_back();
  Closed c;
  c.dur = end - f.start;
  c.self = c.dur - f.child;
  c.excluded = f.excluded;
  if (!t_stack.empty()) {
    t_stack.back().child += c.dur;
    t_stack.back().excluded += f.excluded;
  } else {
    recorder().excluded.fetch_add(f.excluded, std::memory_order_relaxed);
  }
  return c;
}

// ---------------------------------------------------------- null endpoints

namespace {

constexpr std::uint64_t kProbeBit = 1ull << 63;
std::atomic<std::uint64_t> g_probe_ids{0};

const std::vector<std::uint8_t>& zeros() {
  static const std::vector<std::uint8_t> z(512u << 10, 0);
  return z;
}

// The null endpoints' whole work: answer a request frame with a reply of
// the size carried in its method field.  No clock is read in here; the
// replays time it separately, on the caller's thread.
wire::Buffer null_reply(const wire::Buffer& frame) {
  BytesView body;
  const wire::MessageHeader h = wire::decode_frame(frame.view(), body);
  wire::MessageHeader r;
  r.type = wire::MessageType::reply;
  r.request_id = h.request_id;
  if (h.has_correlation()) {
    r.flags |= wire::kFlagCorrelation;
    r.correlation_id = h.correlation_id;
  }
  const std::size_t n =
      std::min<std::size_t>(h.method_or_code, zeros().size());
  return wire::encode_frame(r, BytesView(zeros().data(), n));
}

std::mutex g_null_mu;
std::unique_ptr<transport::TcpListener> g_null_listener;

}  // namespace

void bind_null_endpoint() {
  transport::EndpointRegistry::instance().bind(kNullEndpoint, null_reply);
}

std::uint16_t null_tcp_port() {
  std::lock_guard<std::mutex> lock(g_null_mu);
  if (!g_null_listener) {
    g_null_listener =
        std::make_unique<transport::TcpListener>("127.0.0.1", 0, null_reply);
  }
  return g_null_listener->port();
}

void stop_null_listener() {
  std::lock_guard<std::mutex> lock(g_null_mu);
  if (g_null_listener) g_null_listener->stop();
  g_null_listener.reset();
}

// ------------------------------------------------------------------ replays

namespace {

// A replay of a small operation is repeated and averaged, so the cost of
// the two clock reads around it (tens of ns) does not land on the layer.
int reps_for(std::size_t bytes) { return bytes < 4096 ? 8 : 1; }

// Client-side framing of one exchange, replayed with the call's own
// header, payload and reply: the request encode and the reply decode.
struct WireReplay {
  std::int64_t encode = 0;
  std::int64_t decode = 0;
};

WireReplay replay_client_wire(const wire::MessageHeader& header,
                              const wire::Buffer& payload,
                              const proto::ReplyMessage& reply) {
  thread_local wire::Buffer scratch;
  WireReplay w;
  int reps = reps_for(payload.size());
  std::int64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    wire::encode_frame_into(scratch, header, payload.view());
  }
  w.encode = (now_ns() - t0) / reps;
  std::size_t bytes = scratch.size();
  wire::encode_frame_into(scratch, reply.header, reply.payload.view());
  reps = reps_for(scratch.size());
  BytesView body;
  t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    (void)wire::decode_frame(scratch.view(), body);
  }
  w.decode = (now_ns() - t0) / reps;
  bytes += scratch.size();
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.wire_bytes += bytes;
  return w;
}

// Roundtrips of the same sizes through the bearer's own transport to the
// null endpoint; returns the transport's share per roundtrip: the
// roundtrip minus the null endpoint's work (timed by calling it directly)
// and, for the reactor, minus the framing it does itself.
std::int64_t replay_transport(Layer bearer, const wire::Buffer& payload,
                              std::size_t reply_size,
                              const proto::CallTarget& target,
                              const WireReplay& wire_cost) {
  wire::MessageHeader p;
  p.type = wire::MessageType::request;
  p.request_id = kProbeBit | g_probe_ids.fetch_add(1);
  p.method_or_code = static_cast<std::uint32_t>(reply_size);
  const wire::Buffer frame = wire::encode_frame(p, payload.view());
  const int reps = bearer == kProtoTcp ? 1 : reps_for(frame.size() + reply_size);
  std::int64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) (void)null_reply(frame);
  const std::int64_t handler = (now_ns() - t0) / reps;
  CostLedger ledger;
  if (bearer == kProtoTcp) {
    const std::uint16_t port = null_tcp_port();
    t0 = now_ns();
    transport::Reactor::global()
        .submit("127.0.0.1", port, p, payload.view())
        .get();
    const std::int64_t rtt = now_ns() - t0;
    return rtt - handler - wire_cost.encode - wire_cost.decode;
  }
  std::int64_t rtt = 0;
  if (bearer == kProtoNexus) {
    transport::SimChannel ch(kNullEndpoint, target.placement.link());
    t0 = now_ns();
    for (int i = 0; i < reps; ++i) (void)ch.roundtrip(frame, ledger);
    rtt = (now_ns() - t0) / reps;
  } else {
    transport::InProcChannel ch(kNullEndpoint);
    t0 = now_ns();
    for (int i = 0; i < reps; ++i) (void)ch.roundtrip(frame, ledger);
    rtt = (now_ns() - t0) / reps;
  }
  return rtt - handler;
}

// ------------------------------------------------------------------- hooks

class TimedProtocol final : public proto::Protocol {
 public:
  TimedProtocol(proto::ProtocolPtr inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  bool applicable(const proto::CallTarget& t) const override {
    return inner_->applicable(t);
  }
  bool applicability_is_stable() const noexcept override {
    return inner_->applicability_is_stable();
  }
  bool preserves_payload() const noexcept override {
    return inner_->preserves_payload();
  }
  bool supports_async() const noexcept override {
    return inner_->supports_async();
  }
  Future<proto::ReplyMessage> invoke_async(const wire::MessageHeader& h,
                                           wire::Buffer& payload,
                                           const proto::CallTarget& t) override {
    return inner_->invoke_async(h, payload, t);
  }
  std::string describe() const override { return inner_->describe(); }

  proto::ReplyMessage invoke(const wire::MessageHeader& header,
                             wire::Buffer& payload,
                             const proto::CallTarget& target,
                             CostLedger& ledger) override {
    Recorder& rec = recorder();
    if (!rec.on.load(std::memory_order_relaxed)) {
      return inner_->invoke(header, payload, target, ledger);
    }
    const bool outer = t_proto_depth == 0;
    if (outer) {
      rec.attempts.fetch_add(1, std::memory_order_relaxed);
      rec.outer_entry_sum.fetch_add(
          now_ns() - rec.base_ns.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    ++t_proto_depth;
    proto::ReplyMessage reply;
    Closed c;
    {
      SpanGuard span;
      try {
        reply = inner_->invoke(header, payload, target, ledger);
      } catch (...) {
        --t_proto_depth;
        throw;
      }
      c = span.close();
    }
    --t_proto_depth;
    if (outer) {
      rec.outer_exit_sum.fetch_add(
          now_ns() - rec.base_ns.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    std::int64_t self = c.self;
    if (layer_ != kProtoGlue) {
      if (layer_ == kProtoTcp) {
        // The server ran on a listener thread: its span (and its replays)
        // lie inside this bearer's wall time.
        const Recorder::Remote server = rec.take_remote(header.request_id);
        self -= server.dur;
        exclude(server.excluded, /*in_child=*/true);
      }
      const std::int64_t t0 = now_ns();
      const WireReplay w = replay_client_wire(header, payload, reply);
      const std::int64_t transport = replay_transport(
          layer_, payload, reply.payload.size(), target, w);
      exclude(now_ns() - t0);
      self -= w.encode + w.decode + transport;
      rec.record(kWireEncode, w.encode);
      rec.record(kWireDecode, w.decode);
      rec.record(kTransport, transport);
    }
    rec.record(layer_, self);
    return reply;
  }

 private:
  proto::ProtocolPtr inner_;
  Layer layer_;
};

proto::ProtocolPtr timed(proto::ProtocolPtr p, Layer layer) {
  return std::make_unique<TimedProtocol>(std::move(p), layer);
}

cap::CapabilityPtr timed(cap::CapabilityPtr c) {
  return std::make_shared<TimedCapability>(std::move(c));
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// This thread's CPU clock when its last root handle_frame hook returned;
// -1 until one has in a traced round (server threads live one round).
thread_local std::int64_t t_cpu_at_exit = -1;

}  // namespace

void install_timed_factories() {
  auto& pr = proto::ProtocolRegistry::instance();
  pr.register_factory("shm", [](const proto::ProtocolEntry&) {
    return timed(std::make_unique<proto::ShmProtocol>(), kProtoShm);
  });
  pr.register_factory("nexus-tcp", [](const proto::ProtocolEntry&) {
    return timed(std::make_unique<proto::NexusSimProtocol>(), kProtoNexus);
  });
  pr.register_factory("tcp", [](const proto::ProtocolEntry&) {
    return timed(std::make_unique<proto::TcpProtocol>(), kProtoTcp);
  });
  // The registry has no way to reach the factory it replaces, so this is
  // the library's own glue factory (protocol/registry.cpp) with the result
  // wrapped.
  pr.register_factory("glue", [](const proto::ProtocolEntry& entry) {
    proto::GlueProtoData data;
    try {
      data = proto::decode_glue_proto_data(entry.proto_data);
    } catch (const WireError& e) {
      throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                          std::string("glue proto-data malformed: ") +
                              e.what());
    }
    if (data.delegate.name == "glue") {
      throw ProtocolError(ErrorCode::protocol_bad_proto_data,
                          "glue protocol cannot delegate to another glue");
    }
    cap::CapabilityChain chain =
        cap::CapabilityRegistry::instance().instantiate_chain(
            data.capabilities);
    proto::ProtocolPtr delegate =
        proto::ProtocolRegistry::instance().instantiate(data.delegate);
    return timed(std::make_unique<proto::GlueProtocol>(
                     data.glue_id, std::move(chain), std::move(delegate)),
                 kProtoGlue);
  });
  auto& cr = cap::CapabilityRegistry::instance();
  cr.register_factory("authentication", [](const cap::CapabilityDescriptor& d) {
    return timed(cap::AuthenticationCapability::from_descriptor(d));
  });
  cr.register_factory("encryption", [](const cap::CapabilityDescriptor& d) {
    return timed(cap::EncryptionCapability::from_descriptor(d));
  });
}

wire::Buffer timed_handle_frame(orb::Context& ctx, const wire::Buffer& frame) {
  Recorder& rec = recorder();
  if (!rec.on.load(std::memory_order_relaxed)) return ctx.handle_frame(frame);
  const bool nested = span_open();
  // A root span runs on a listener thread: its CPU inside handle_frame and
  // since the previous call returned (the listener's own loop) are read
  // from the thread's CPU clock, outside the span.
  const std::int64_t w0 = now_ns();
  std::int64_t cpu_in = 0;
  if (!nested) {
    cpu_in = thread_cpu_ns();
    if (t_cpu_at_exit >= 0) {
      rec.listener_cpu_sum.fetch_add(cpu_in - t_cpu_at_exit,
                                     std::memory_order_relaxed);
      rec.listener_gaps.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Closed c;
  wire::Buffer reply;
  {
    SpanGuard span;
    reply = ctx.handle_frame(frame);
    c = span.close();
  }
  const std::int64_t r0 = now_ns();
  if (!nested) {
    rec.root_handle_cpu_sum.fetch_add(thread_cpu_ns() - cpu_in,
                                      std::memory_order_relaxed);
  }
  // Server-side framing, replayed on the same frames: request decode and
  // reply encode.
  BytesView body;
  const wire::MessageHeader request = wire::decode_frame(frame.view(), body);
  int reps = reps_for(frame.size());
  std::int64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) (void)wire::decode_frame(frame.view(), body);
  const std::int64_t decode = (now_ns() - t0) / reps;
  BytesView reply_body;
  const wire::MessageHeader reply_header =
      wire::decode_frame(reply.view(), reply_body);
  thread_local wire::Buffer scratch;
  reps = reps_for(reply.size());
  t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    wire::encode_frame_into(scratch, reply_header, reply_body);
  }
  const std::int64_t encode = (now_ns() - t0) / reps;
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    rec.wire_bytes += frame.size() + reply.size();
  }
  rec.record(kWireDecode, decode);
  rec.record(kWireEncode, encode);
  rec.record(kServerDispatch, c.self - decode - encode);
  if (nested) {
    exclude(now_ns() - r0);
  } else {
    rec.root_handle_count.fetch_add(1, std::memory_order_relaxed);
    t_cpu_at_exit = thread_cpu_ns();
    // Everything here but the handle_frame span is the benchmark's own.
    const std::int64_t total = now_ns() - w0;
    rec.put_remote(request.request_id, {total, total - c.dur});
  }
  return reply;
}

void TimedCapability::process(wire::Buffer& payload,
                              const cap::CallContext& call) {
  Recorder& rec = recorder();
  if (!rec.on.load(std::memory_order_relaxed)) {
    inner_->process(payload, call);
    return;
  }
  const std::size_t bytes = payload.size();
  SpanGuard span;
  inner_->process(payload, call);
  const Closed c = span.close();
  rec.record(kCapProcess, c.self);
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.cap_bytes += bytes;
}

void TimedCapability::unprocess(wire::Buffer& payload,
                                const cap::CallContext& call) {
  Recorder& rec = recorder();
  if (!rec.on.load(std::memory_order_relaxed)) {
    inner_->unprocess(payload, call);
    return;
  }
  const std::size_t bytes = payload.size();
  SpanGuard span;
  inner_->unprocess(payload, call);
  const Closed c = span.close();
  rec.record(kCapUnprocess, c.self);
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.cap_bytes += bytes;
}

namespace {

std::atomic<std::uint64_t> g_spin_sink{0};

// Keeps the out-of-order core from overlapping the delay with the work
// around it, so the whole delay lands on the call.
void execution_barrier() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("lfence" ::: "memory");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

std::uint64_t spin(std::int64_t steps) {
  execution_barrier();
  std::uint64_t x = 88172645463325252ull;
  for (std::int64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  execution_barrier();
  return x;
}

// Dependent xorshift steps per nanosecond on this machine, measured once.
double spin_steps_per_ns() {
  static const double rate = [] {
    constexpr std::int64_t kSteps = 4'000'000;
    const std::int64_t t0 = now_ns();
    g_spin_sink.store(spin(kSteps), std::memory_order_relaxed);
    return static_cast<double>(kSteps) / static_cast<double>(now_ns() - t0);
  }();
  return rate;
}

}  // namespace

BenchServant::BenchServant(std::int64_t delay_ns)
    : delay_steps_(delay_ns > 0 ? static_cast<std::int64_t>(
                                      static_cast<double>(delay_ns) *
                                      spin_steps_per_ns())
                                : 0) {}

void BenchServant::dispatch(std::uint32_t method_id, wire::Decoder& in,
                            wire::Encoder& out) {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  Recorder& rec = recorder();
  const bool timed = rec.on.load(std::memory_order_relaxed);
  if (timed) span_begin();
  if (delay_steps_ > 0) {
    g_spin_sink.store(spin(delay_steps_), std::memory_order_relaxed);
  }
  try {
    inner_.dispatch(method_id, in, out);
  } catch (...) {
    if (timed) span_end();
    throw;
  }
  if (timed) rec.record(kServantDispatch, span_end().self);
}

}  // namespace perfbench
