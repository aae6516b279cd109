// Unit tests for the transport layer: endpoint registry, in-process
// channel, simulated-network channel cost accounting, and the real TCP
// listener over loopback sockets (driven by a framed test client and by
// the reactor).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/reactor.hpp"
#include "ohpx/transport/sim.hpp"
#include "ohpx/transport/tcp.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::transport {
namespace {

wire::Buffer make_payload(std::string_view text) {
  return wire::Buffer(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size());
}

FrameHandler upper_caser() {
  return [](const wire::Buffer& request) {
    wire::Buffer reply = request;
    for (auto& b : reply.mutable_view()) {
      if (b >= 'a' && b <= 'z') b = static_cast<std::uint8_t>(b - 'a' + 'A');
    }
    return reply;
  };
}

// ---- endpoint registry ----------------------------------------------------------

TEST(EndpointRegistryTest, BindLookupUnbind) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-1";
  registry.bind(name, upper_caser());
  EXPECT_TRUE(registry.contains(name));
  FrameHandler handler = registry.lookup(name);
  EXPECT_EQ(handler(make_payload("hi")).bytes(), bytes_of("HI"));
  registry.unbind(name);
  EXPECT_FALSE(registry.contains(name));
}

TEST(EndpointRegistryTest, LookupMissingThrows) {
  try {
    EndpointRegistry::instance().lookup("test/no-such");
    FAIL();
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::transport_unknown_endpoint);
  }
}

TEST(EndpointRegistryTest, RebindReplacesHandler) {
  auto& registry = EndpointRegistry::instance();
  const std::string name = "test/ep-rebind";
  registry.bind(name, [](const wire::Buffer&) { return make_payload("old"); });
  registry.bind(name, [](const wire::Buffer&) { return make_payload("new"); });
  EXPECT_EQ(registry.lookup(name)(make_payload("")).bytes(), bytes_of("new"));
  registry.unbind(name);
}

// ---- in-process channel -----------------------------------------------------------

TEST(InProcChannelTest, RoundTripAndLedger) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/inproc", upper_caser());

  InProcChannel channel("test/inproc");
  CostLedger ledger;
  wire::Buffer reply = channel.roundtrip(make_payload("abc"), ledger);
  EXPECT_EQ(reply.bytes(), bytes_of("ABC"));
  EXPECT_EQ(ledger.bytes_sent(), 3u);
  EXPECT_EQ(ledger.bytes_received(), 3u);
  EXPECT_EQ(ledger.modeled().count(), 0);
  EXPECT_EQ(channel.describe(), "inproc:test/inproc");

  registry.unbind("test/inproc");
}

TEST(InProcChannelTest, ResolvesPerCall) {
  auto& registry = EndpointRegistry::instance();
  InProcChannel channel("test/latebound");
  CostLedger ledger;
  // Endpoint does not exist yet.
  EXPECT_THROW(channel.roundtrip(make_payload("x"), ledger), TransportError);
  // Binding afterwards makes the same channel object work (migration
  // depends on this late-binding behaviour).
  registry.bind("test/latebound", upper_caser());
  EXPECT_EQ(channel.roundtrip(make_payload("x"), ledger).bytes(), bytes_of("X"));
  registry.unbind("test/latebound");
}

// ---- simulated-network channel -------------------------------------------------------

TEST(SimChannelTest, ChargesModeledTimeBothWays) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/sim", upper_caser());

  netsim::LinkSpec link{"lab", 8e6, Nanoseconds(1000)};  // 1 MB/s, 1 us
  SimChannel channel("test/sim", link);
  CostLedger ledger;
  channel.roundtrip(make_payload(std::string(1000, 'a')), ledger);
  // Each direction: 1000 ns latency + 1000 bytes / 1 MBps = 1 ms.
  const double modeled_ms =
      static_cast<double>(ledger.modeled().count()) / 1e6;
  EXPECT_NEAR(modeled_ms, 2.002, 0.01);

  registry.unbind("test/sim");
}

TEST(SimChannelTest, LinkProviderReevaluatedPerCall) {
  auto& registry = EndpointRegistry::instance();
  registry.bind("test/sim2", upper_caser());

  std::atomic<int> calls{0};
  SimChannel channel("test/sim2", [&calls]() {
    ++calls;
    return netsim::LinkSpec{"dyn", 1e9, Nanoseconds(10)};
  });
  CostLedger ledger;
  channel.roundtrip(make_payload("a"), ledger);
  channel.roundtrip(make_payload("b"), ledger);
  EXPECT_GE(calls.load(), 2);

  registry.unbind("test/sim2");
}

// ---- real TCP ---------------------------------------------------------------------------

// Test-local blocking client speaking the listener's stream framing (u32
// big-endian length + frame), one request in flight — enough to drive
// TcpListener with raw byte handlers.  The ORB's own bearer is the
// reactor, exercised below through Reactor::global().submit.
class FramedClient {
 public:
  FramedClient(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = resolve_ipv4(host);
    addr.sin_port = htons(port);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (fd_ >= 0) ::close(fd_);
      throw TransportError(ErrorCode::transport_connect_failed, "connect");
    }
  }
  ~FramedClient() { ::close(fd_); }
  FramedClient(const FramedClient&) = delete;
  FramedClient& operator=(const FramedClient&) = delete;

  wire::Buffer roundtrip(const wire::Buffer& request) {
    // Prefix and frame leave in one send: two small writes would wait out
    // Nagle against the server's delayed ACK on every roundtrip.
    const std::uint32_t size = static_cast<std::uint32_t>(request.size());
    std::vector<std::uint8_t> out = {
        static_cast<std::uint8_t>(size >> 24),
        static_cast<std::uint8_t>(size >> 16),
        static_cast<std::uint8_t>(size >> 8), static_cast<std::uint8_t>(size)};
    out.insert(out.end(), request.data(), request.data() + request.size());
    send_all(out.data(), out.size());
    std::uint8_t len[4];
    recv_all(len, sizeof(len));
    wire::Buffer reply;
    reply.resize((static_cast<std::size_t>(len[0]) << 24) |
                 (static_cast<std::size_t>(len[1]) << 16) |
                 (static_cast<std::size_t>(len[2]) << 8) | len[3]);
    recv_all(reply.data(), reply.size());
    return reply;
  }

 private:
  void send_all(const std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (n <= 0) throw TransportError(ErrorCode::transport_io, "send");
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  }
  void recv_all(std::uint8_t* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::recv(fd_, data, size, 0);
      if (n <= 0) throw TransportError(ErrorCode::transport_closed, "recv");
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
};

// Wire-frame handler for reactor-driven tests: replies to each request
// with its own body, echoing the correlation id the reactor demuxes on.
wire::Buffer frame_echo(const wire::Buffer& frame) {
  BytesView body;
  const wire::MessageHeader request = wire::decode_frame(frame.view(), body);
  wire::MessageHeader reply;
  reply.type = wire::MessageType::reply;
  reply.request_id = request.request_id;
  if (request.has_correlation()) {
    reply.flags |= wire::kFlagCorrelation;
    reply.correlation_id = request.correlation_id;
  }
  return wire::encode_frame(reply, body);
}

TEST(TcpTest, RoundTripOverLoopback) {
  TcpListener listener(0, upper_caser());
  ASSERT_GT(listener.port(), 0);

  FramedClient client("127.0.0.1", listener.port());
  EXPECT_EQ(client.roundtrip(make_payload("hello tcp")).bytes(),
            bytes_of("HELLO TCP"));
}

TEST(TcpTest, ReactorRoundTripOverLoopback) {
  TcpListener listener(0, frame_echo);
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 42;
  const wire::Buffer body = make_payload("via reactor");
  RawReply reply = Reactor::global()
                       .submit("127.0.0.1", listener.port(), header,
                               body.view())
                       .get();
  EXPECT_EQ(reply.header.type, wire::MessageType::reply);
  EXPECT_EQ(reply.header.request_id, 42u);
  EXPECT_EQ(reply.payload.bytes(), bytes_of("via reactor"));
}

TEST(TcpTest, LargeFrames) {
  TcpListener listener(0, [](const wire::Buffer& request) { return request; });
  FramedClient client("127.0.0.1", listener.port());

  std::string big(4 * 1024 * 1024, 'z');
  big[12345] = 'a';  // a frame spanning many reads arrives intact
  const wire::Buffer reply = client.roundtrip(make_payload(big));
  EXPECT_EQ(reply.size(), big.size());
  EXPECT_EQ(reply.bytes(), make_payload(big).bytes());
}

TEST(TcpTest, SequentialRequestsOnOneConnection) {
  std::atomic<int> served{0};
  TcpListener listener(0, [&served](const wire::Buffer& request) {
    ++served;
    return request;
  });
  FramedClient client("127.0.0.1", listener.port());
  for (int i = 0; i < 50; ++i) {
    const std::string text = "ping-" + std::to_string(i);
    EXPECT_EQ(client.roundtrip(make_payload(text)).bytes(), bytes_of(text));
  }
  EXPECT_EQ(served.load(), 50);
}

TEST(TcpTest, ConcurrentClients) {
  TcpListener listener(0, upper_caser());
  const std::uint16_t port = listener.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([port, &failures] {
      try {
        FramedClient client("127.0.0.1", port);
        for (int i = 0; i < 20; ++i) {
          if (client.roundtrip(make_payload("abc")).bytes() !=
              bytes_of("ABC")) {
            ++failures;
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpTest, ConnectToDeadPortFails) {
  // Grab an ephemeral port, then close the listener so nothing listens.
  std::uint16_t dead_port;
  {
    TcpListener listener(0, frame_echo);
    dead_port = listener.port();
  }
  wire::MessageHeader header;
  header.type = wire::MessageType::request;
  header.request_id = 7;
  try {
    Reactor::global().submit("127.0.0.1", dead_port, header, BytesView()).get();
    FAIL() << "expected connect failure";
  } catch (const TransportError& e) {
    EXPECT_TRUE(e.code() == ErrorCode::transport_connect_failed ||
                e.code() == ErrorCode::transport_closed ||
                e.code() == ErrorCode::transport_io);
  }
}

TEST(TcpTest, BadAddressRejected) {
  EXPECT_THROW(resolve_ipv4("not-an-ip"), TransportError);
  EXPECT_THROW(TcpListener("not-an-ip", 0, upper_caser()), TransportError);
}

TEST(TcpTest, ListenerStopIsIdempotent) {
  TcpListener listener(0, upper_caser());
  listener.stop();
  listener.stop();
}

TEST(TcpTest, ServerStopClosesClients) {
  auto listener = std::make_unique<TcpListener>(0, upper_caser());
  FramedClient client("127.0.0.1", listener->port());
  EXPECT_EQ(client.roundtrip(make_payload("a")).bytes(), bytes_of("A"));
  listener.reset();  // server goes away
  EXPECT_THROW(
      {
        client.roundtrip(make_payload("b"));
        client.roundtrip(make_payload("c"));
      },
      TransportError);
}

// ---- handler errors don't kill the server ------------------------------------------------

TEST(TcpTest, HandlerExceptionDropsConnectionOnly) {
  std::atomic<int> calls{0};
  TcpListener listener(0, [&calls](const wire::Buffer& request) {
    if (++calls == 1) throw std::runtime_error("boom");
    return request;
  });

  {
    FramedClient first("127.0.0.1", listener.port());
    EXPECT_THROW(first.roundtrip(make_payload("x")), TransportError);
  }
  // A fresh connection still works.
  FramedClient second("127.0.0.1", listener.port());
  EXPECT_EQ(second.roundtrip(make_payload("ok")).bytes(), bytes_of("ok"));
}

}  // namespace
}  // namespace ohpx::transport
