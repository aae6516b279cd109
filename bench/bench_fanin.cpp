// Massive fan-in benchmark: aggregate calls/sec against a real loopback
// TCP server, thread-per-connection blocking calls vs. the epoll reactor,
// at matched concurrency.
//
// A blocking bearer admits exactly one call per connection — "blocking
// TCP at N concurrent calls" therefore means N caller threads, each
// parked on its own connection (the connection-per-peer, thread-per-call
// shape the reactor replaces).  The ORB itself has one TCP bearer, the
// reactor; the blocking one lives here, as a bench-local protocol
// ("tcp-blocking") that sends the same length-prefixed wire frames to the
// same TcpListener.  Both kinds of arm go through the full ORB stub
// pipeline, so the ratio isolates the bearer.  Three arms over the
// identical world:
//   blocking_serial — one thread, one connection, one call in flight:
//                     the per-call roundtrip floor, for reference;
//   blocking        — N threads, each with its own stub and therefore its
//                     own connection: N concurrent calls the
//                     thread-per-call way;
//   reactor         — one thread with N call_async futures in flight:
//                     frames coalesce into gathered sendmsg batches and
//                     replies demux by correlation id.
// The headline number is the reactor/blocking speedup at 1k+ concurrency.
//
// Hand-rolled main (not google-benchmark): the fan-in arms need a
// sliding window of futures / a thread fleet, not a per-iteration
// callable.  Flags: --smoke (short run for CI), --json <path> (defaults
// to BENCH_fanin.json in the working directory), --metrics-port N
// (serve the live introspection exposition on N while the bench runs —
// CI scrapes it mid-soak to validate the exporter under real load),
// --metrics-hold SEC (keep the process and exporter alive that long
// after the arms finish, so a scraper always has a window).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "ohpx/introspect/http_exporter.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Arm {
  std::string name;
  double calls_per_sec = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t inflight = 0;
};

// The blocking baseline bearer: one connection per protocol instance —
// and so per stub — opened on first use, one call in flight, the caller
// parked in recv() until its reply arrives.  A stub (and its protocol) is
// used by one thread at a time.
class BlockingTcpProtocol final : public proto::Protocol {
 public:
  static constexpr const char* kName = "tcp-blocking";

  BlockingTcpProtocol() = default;
  ~BlockingTcpProtocol() override {
    if (fd_ >= 0) ::close(fd_);
  }
  BlockingTcpProtocol(const BlockingTcpProtocol&) = delete;
  BlockingTcpProtocol& operator=(const BlockingTcpProtocol&) = delete;

  std::string_view name() const noexcept override { return kName; }

  bool applicable(const proto::CallTarget& target) const override {
    return target.address.tcp_port != 0 && !target.address.tcp_host.empty();
  }

  proto::ReplyMessage invoke(const wire::MessageHeader& header,
                             wire::Buffer& payload,
                             const proto::CallTarget& target,
                             CostLedger& ledger) override {
    if (fd_ < 0) connect_to(target.address);
    wire::encode_frame_into(frame_, header, payload.view());
    const auto size = static_cast<std::uint32_t>(frame_.size());
    out_.assign({static_cast<std::uint8_t>(size >> 24),
                 static_cast<std::uint8_t>(size >> 16),
                 static_cast<std::uint8_t>(size >> 8),
                 static_cast<std::uint8_t>(size)});
    out_.insert(out_.end(), frame_.data(), frame_.data() + frame_.size());
    ledger.add_bytes_sent(out_.size());
    send_all(out_.data(), out_.size());

    std::uint8_t prefix[4];
    recv_all(prefix, sizeof(prefix));
    in_.resize((static_cast<std::size_t>(prefix[0]) << 24) |
               (static_cast<std::size_t>(prefix[1]) << 16) |
               (static_cast<std::size_t>(prefix[2]) << 8) | prefix[3]);
    recv_all(in_.data(), in_.size());
    ledger.add_bytes_received(sizeof(prefix) + in_.size());
    BytesView body;
    proto::ReplyMessage reply;
    reply.header = wire::decode_frame(BytesView(in_.data(), in_.size()), body);
    proto::check_reply(reply.header, header.request_id);
    reply.payload = wire::Buffer(body.data(), body.size());
    return reply;
  }

 private:
  void connect_to(const proto::ServerAddress& server) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = transport::resolve_ipv4(server.tcp_host);
    addr.sin_port = htons(server.tcp_port);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (fd >= 0) ::close(fd);
      throw TransportError(ErrorCode::transport_connect_failed,
                           "fanin: blocking bearer cannot connect");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
  }

  void send_all(const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (n <= 0) throw TransportError(ErrorCode::transport_io, "fanin: send");
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  }

  void recv_all(std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::recv(fd_, data, size, 0);
      if (n <= 0) {
        throw TransportError(ErrorCode::transport_closed, "fanin: recv");
      }
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
  wire::Buffer frame_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
};

// The same object, reached through the blocking bearer only.
orb::ObjectRef blocking_ref(const orb::ObjectRef& ref) {
  proto::ProtocolRegistry::instance().register_factory(
      BlockingTcpProtocol::kName, [](const proto::ProtocolEntry&) {
        return std::make_unique<BlockingTcpProtocol>();
      });
  proto::ProtoTable table;
  table.add(proto::ProtocolEntry{BlockingTcpProtocol::kName, {}});
  return orb::ObjectRef(ref.object_id(), ref.type_name(), ref.home(),
                        std::move(table));
}

Arm run_blocking_serial(scenario::EchoStub& stub, std::size_t warmup,
                        std::size_t calls) {
  for (std::size_t i = 0; i < warmup; ++i) stub.ping();

  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) stub.ping();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  Arm arm;
  arm.name = "fanin/blocking_serial";
  arm.calls = calls;
  arm.inflight = 1;
  arm.calls_per_sec =
      seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  return arm;
}

Arm run_blocking(orb::Context& client_ctx, const orb::ObjectRef& ref,
                 std::size_t threads, std::size_t calls) {
  // One stub per caller thread: its own CallCore, its own blocking
  // protocol instance, its own connection.  The warmup ping doubles as
  // the connection establishment, serialized off the clock so the
  // listener backlog never sees a thousand simultaneous SYNs.
  std::vector<std::unique_ptr<scenario::EchoStub>> stubs;
  stubs.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    stubs.push_back(std::make_unique<scenario::EchoStub>(client_ctx, ref));
    stubs.back()->ping();
  }

  const std::size_t per_thread = calls / threads;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto start = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&stubs, t, per_thread] {
      for (std::size_t i = 0; i < per_thread; ++i) stubs[t]->ping();
    });
  }
  for (auto& w : workers) w.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  Arm arm;
  arm.name = "fanin/blocking";
  arm.calls = per_thread * threads;
  arm.inflight = threads;
  arm.calls_per_sec =
      seconds > 0.0 ? static_cast<double>(arm.calls) / seconds : 0.0;
  return arm;
}

Arm run_reactor(scenario::EchoStub& stub, std::size_t warmup,
                std::size_t calls, std::size_t inflight) {
  for (std::size_t i = 0; i < warmup; ++i) stub.ping();

  // Sliding window: keep `inflight` futures outstanding; replies come
  // back in submission order (one connection, FIFO server), so draining
  // the oldest future frees exactly one window slot.
  std::vector<ohpx::Future<std::uint64_t>> window;
  window.reserve(calls);
  std::size_t drained = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    if (i - drained >= inflight) window[drained++].get();
    window.push_back(
        stub.call_async<std::uint64_t>(scenario::EchoServant::kPing));
  }
  while (drained < window.size()) window[drained++].get();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  Arm arm;
  arm.name = "fanin/reactor";
  arm.calls = calls;
  arm.inflight = inflight;
  arm.calls_per_sec =
      seconds > 0.0 ? static_cast<double>(calls) / seconds : 0.0;
  return arm;
}

int run(int argc, char** argv) {
  std::string json_path = consume_json_flag(argc, argv);
  if (json_path.empty()) json_path = "BENCH_fanin.json";
  bool smoke = false;
  std::uint16_t metrics_port = 0;
  bool serve_metrics = false;
  double metrics_hold_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      // Port 0 is valid: the kernel picks, and the bench prints the
      // bound port for the scraper.
      metrics_port = static_cast<std::uint16_t>(
          std::strtoul(argv[++i], nullptr, 10));
      serve_metrics = true;
    } else if (arg == "--metrics-hold" && i + 1 < argc) {
      metrics_hold_s = std::strtod(argv[++i], nullptr);
    }
  }

  std::optional<introspect::IntrospectHttpServer> exporter;
  if (serve_metrics) {
    exporter.emplace(metrics_port);
    std::printf("fanin: metrics exporter on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(exporter->port()));
    std::fflush(stdout);
  }
  // The concurrent arms run >=1k calls in flight (the reactor window
  // defaults to 1024, so 1000 never trips backpressure); the blocking
  // arms are slower per call, so they run fewer total calls for
  // comparable wall time.
  const std::size_t inflight = smoke ? 256 : 1000;
  const std::size_t warmup = smoke ? 200 : 2000;
  const std::size_t blocking_calls = smoke ? 2048 : 20000;
  const std::size_t reactor_calls = smoke ? 20000 : 200000;

  runtime::World world;
  const auto lan = world.add_lan("lan");
  const auto m_client = world.add_machine("client", lan);
  const auto m_server = world.add_machine("server", lan);
  orb::Context& client_ctx = world.create_context(m_client);
  orb::Context& server_ctx = world.create_context(m_server);
  server_ctx.enable_tcp();

  auto ref =
      orb::RefBuilder(server_ctx, std::make_shared<scenario::EchoServant>())
          .tcp()
          .build();
  scenario::EchoStub stub(client_ctx, ref);

  const orb::ObjectRef blocking = blocking_ref(ref);
  client_ctx.pool().enable(BlockingTcpProtocol::kName);
  scenario::EchoStub blocking_stub(client_ctx, blocking);
  Arm serial = run_blocking_serial(blocking_stub, warmup, blocking_calls);
  Arm thread_per_call =
      run_blocking(client_ctx, blocking, inflight, blocking_calls);
  Arm reactor = run_reactor(stub, warmup, reactor_calls, inflight);
  const double speedup =
      thread_per_call.calls_per_sec > 0.0
          ? reactor.calls_per_sec / thread_per_call.calls_per_sec
          : 0.0;

  std::printf("fanin: tcp ping over loopback%s\n", smoke ? " (smoke)" : "");
  for (const Arm* arm : {&serial, &thread_per_call, &reactor}) {
    std::printf("  %-22s %12.0f calls/s   (%llu calls, %llu in flight)\n",
                arm->name.c_str(), arm->calls_per_sec,
                static_cast<unsigned long long>(arm->calls),
                static_cast<unsigned long long>(arm->inflight));
  }
  std::printf("  speedup (reactor / blocking @ %zu in flight): %.2fx\n",
              inflight, speedup);

  std::vector<JsonRecord> records;
  for (const Arm* arm : {&serial, &thread_per_call, &reactor}) {
    records.push_back(JsonRecord{
        arm->name,
        {{"calls_per_sec", arm->calls_per_sec},
         {"calls", static_cast<double>(arm->calls)},
         {"inflight", static_cast<double>(arm->inflight)}}});
  }
  records.push_back(JsonRecord{"fanin/speedup",
                               {{"reactor_over_blocking", speedup},
                                {"inflight", static_cast<double>(inflight)}}});
  if (!write_json_records(json_path, records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());
  if (exporter && metrics_hold_s > 0.0) {
    std::printf("fanin: holding exporter open for %.1fs\n", metrics_hold_s);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(metrics_hold_s));
  }
  return 0;
}

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::run(argc, argv); }
