// Async transport semantics over the epoll reactor: backpressure when the
// inflight window fills, its interplay with retry policies and circuit
// breakers (window-full is "too busy", never "broken"), deadline
// cancellation of pending futures, and correlation-id demux under heavy
// overlap.  All timing runs on the resilience ManualClock — no sleeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "ohpx/introspect/flight_recorder.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/resilience/clock.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"
#include "ohpx/transport/reactor.hpp"

namespace ohpx {
namespace {

using scenario::EchoServant;
using scenario::EchoStub;

// A servant whose kBlock method parks the server's connection handler
// until the test releases it — the deterministic way to keep calls
// inflight (queued or awaiting a reply) and fill the reactor window.
class GatedServant final : public orb::Servant {
 public:
  static constexpr std::string_view kTypeName = "Gated";
  enum Method : std::uint32_t {
    kBlock = 1,  // () -> u64: waits for release(), returns the call index
    kPing = 2,   // () -> u64
  };

  std::string_view type_name() const noexcept override { return kTypeName; }

  void dispatch(std::uint32_t method_id, wire::Decoder& in,
                wire::Encoder& out) override {
    (void)in;
    switch (method_id) {
      case kBlock: {
        const std::uint64_t index = arrivals_.fetch_add(1) + 1;
        opened_.wait();
        orb::marshal_result(out, index);
        return;
      }
      case kPing:
        orb::marshal_result(out, pings_.fetch_add(1) + 1);
        return;
      default:
        orb::unknown_method(kTypeName, method_id);
    }
  }

  void release() {
    if (!released_.exchange(true)) gate_.set_value();
  }
  std::uint64_t arrivals() const noexcept { return arrivals_.load(); }

 private:
  std::promise<void> gate_;
  std::shared_future<void> opened_{gate_.get_future().share()};
  std::atomic<bool> released_{false};
  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<std::uint64_t> pings_{0};
};

class GatedStub : public orb::ObjectStub {
 public:
  static constexpr std::string_view kTypeName = GatedServant::kTypeName;
  using ObjectStub::ObjectStub;
};

// Shrinks the global reactor window for one test; restores on exit.
class ScopedWindow {
 public:
  explicit ScopedWindow(std::size_t window)
      : previous_(transport::Reactor::global().inflight_window()) {
    transport::Reactor::global().set_inflight_window(window);
  }
  ~ScopedWindow() {
    transport::Reactor::global().set_inflight_window(previous_);
  }

 private:
  std::size_t previous_;
};

std::uint64_t counter_value(const std::string& name) {
  return metrics::MetricsRegistry::global()
      .counter_handle(name)
      ->load(std::memory_order_relaxed);
}

class AsyncTransportFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto lan = world_.add_lan("lan");
    m_client_ = world_.add_machine("client", lan);
    m_server_ = world_.add_machine("server", lan);
    client_ctx_ = &world_.create_context(m_client_);
    server_ctx_ = &world_.create_context(m_server_);
    server_ctx_->enable_tcp();
  }

  // A tcp-only reference: the table carries exactly the tcp entry, so
  // selection always routes through the reactor.
  template <typename Servant>
  orb::ObjectRef tcp_ref(std::shared_ptr<Servant> servant) {
    return orb::RefBuilder(*server_ctx_, std::move(servant)).tcp().build();
  }

  runtime::World world_;
  netsim::MachineId m_client_{}, m_server_{};
  orb::Context* client_ctx_ = nullptr;
  orb::Context* server_ctx_ = nullptr;
};

// ---- window-full surfaces as a synchronous backpressure refusal -----------

TEST_F(AsyncTransportFixture, WindowFullRefusesWithBackpressure) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));
  ScopedWindow window(2);

  auto first = stub.call_async<std::uint64_t>(GatedServant::kBlock);
  auto second = stub.call_async<std::uint64_t>(GatedServant::kBlock);

  const std::uint64_t refusals_before = counter_value("rmi.backpressure");
  try {
    stub.call_async<std::uint64_t>(GatedServant::kBlock);
    FAIL() << "expected TransportError(backpressure)";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::backpressure);
  }
  EXPECT_EQ(counter_value("rmi.backpressure"), refusals_before + 1);
  EXPECT_TRUE(resilience::is_retryable(ErrorCode::backpressure));

  // Nothing was queued for the refused call; the two admitted calls
  // complete once the gate opens.
  servant->release();
  EXPECT_GT(first.get(), 0u);
  EXPECT_GT(second.get(), 0u);
}

// ---- the sync path retries backpressure with backoff ----------------------

TEST_F(AsyncTransportFixture, RetryPolicyBacksOffOnBackpressure) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub blocker(*client_ctx_, tcp_ref(servant));
  ScopedWindow window(1);

  auto parked = blocker.call_async<std::uint64_t>(GatedServant::kBlock);

  resilience::ScopedManualClock scoped_clock;
  GatedStub caller(*client_ctx_, tcp_ref(servant));
  resilience::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(10);
  policy.backoff_multiplier = 2.0;
  caller.set_retry_policy(policy);

  const std::uint64_t retries_before = counter_value("rmi.retries");
  const std::int64_t t0 = scoped_clock.clock().now_ns();
  try {
    caller.call<std::uint64_t>(GatedServant::kPing);
    FAIL() << "expected the retries to exhaust against a full window";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.code(), ErrorCode::backpressure);
  }
  // Two retries waited 10ms then 20ms on the manual clock — the policy
  // backed off instead of hammering the full window.
  EXPECT_EQ(counter_value("rmi.retries"), retries_before + 2);
  EXPECT_GE(scoped_clock.clock().now_ns() - t0,
            std::chrono::nanoseconds(std::chrono::milliseconds(30)).count());

  servant->release();
  EXPECT_EQ(parked.get(), 1u);
}

// ---- backpressure never trips a breaker -----------------------------------

TEST_F(AsyncTransportFixture, BackpressureDoesNotTripBreakers) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub blocker(*client_ctx_, tcp_ref(servant));
  ScopedWindow window(1);

  auto parked = blocker.call_async<std::uint64_t>(GatedServant::kBlock);

  GatedStub caller(*client_ctx_, tcp_ref(servant));
  resilience::BreakerConfig breaker;
  breaker.failure_threshold = 1;  // any real transport failure would trip
  caller.set_breaker_config(breaker);
  resilience::RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  caller.set_retry_policy(no_retry);

  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(caller.call<std::uint64_t>(GatedServant::kPing),
                 TransportError);
    EXPECT_EQ(caller.breaker_state(0),
              resilience::CircuitBreaker::State::closed)
        << "window-full means the destination is too busy, not broken";
  }

  servant->release();
  EXPECT_EQ(parked.get(), 1u);
  // With the window free again the same stub's calls flow — and succeed
  // through the still-closed breaker.
  EXPECT_EQ(caller.call<std::uint64_t>(GatedServant::kPing), 1u);
}

// ---- deadlines cancel pending futures, exactly once -----------------------

TEST_F(AsyncTransportFixture, DeadlineCancelsPendingFutureExactlyOnce) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));

  resilience::ScopedManualClock scoped_clock;
  stub.set_deadline_budget(std::chrono::milliseconds(5));
  auto future = stub.call_async<std::uint64_t>(GatedServant::kBlock);
  EXPECT_FALSE(future.ready());

  scoped_clock.clock().advance(std::chrono::milliseconds(6));
  transport::Reactor::global().poke();
  future.wait();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  // The gated reply arrives after cancellation: the reactor drops it (the
  // correlation id no longer maps to a pending call) and the future's
  // settled error is immutable — a second get() observes the same
  // DeadlineExceeded, not a value.
  servant->release();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  // The connection itself survived the cancellation: a fresh unbounded
  // call on the same stub still round-trips.
  stub.set_deadline_budget(Nanoseconds{0});
  EXPECT_EQ(stub.call<std::uint64_t>(GatedServant::kPing), 1u);
}

// ---- correlation demux under overlap --------------------------------------

TEST_F(AsyncTransportFixture, OverlappingCallsDemuxToTheRightFutures) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(*client_ctx_, ref);

  constexpr int kCalls = 128;
  std::vector<ohpx::Future<std::string>> futures;
  futures.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(stub.call_async<std::string>(
        EchoServant::kReverse, "payload-" + std::to_string(i)));
  }
  for (int i = 0; i < kCalls; ++i) {
    std::string expected = "payload-" + std::to_string(i);
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), expected)
        << "reply " << i << " demuxed to the wrong future";
  }
}

// ---- the continuation path records completion latency ---------------------

TEST_F(AsyncTransportFixture, AsyncCompletionLatencyRecorded) {
  auto ref = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
                 .tcp()
                 .build();
  EchoStub stub(*client_ctx_, ref);

  auto* histogram =
      metrics::MetricsRegistry::global().latency_handle("rmi.async.latency");
  const std::uint64_t samples_before = histogram->count();

  constexpr int kCalls = 6;
  for (int i = 0; i < kCalls; ++i) {
    auto future = stub.call_async<std::string>(EchoServant::kReverse,
                                               std::string("abc"));
    EXPECT_EQ(future.get(), "cba");
  }

  // Every settled async call recorded exactly one submit-to-settlement
  // sample; the sync-path histogram is untouched by the async route.
  EXPECT_EQ(histogram->count(), samples_before + kCalls);
}

// ---- deadline cancellation is counted on the async path -------------------

TEST_F(AsyncTransportFixture, AsyncDeadlineCancellationCounted) {
  auto servant = std::make_shared<GatedServant>();
  GatedStub stub(*client_ctx_, tcp_ref(servant));

  resilience::ScopedManualClock scoped_clock;
  stub.set_deadline_budget(std::chrono::milliseconds(5));

  auto* histogram =
      metrics::MetricsRegistry::global().latency_handle("rmi.async.latency");
  const std::uint64_t samples_before = histogram->count();
  const std::uint64_t cancelled_before =
      counter_value("rmi.async.deadline_cancelled");
  const std::uint64_t deadline_before = counter_value("rmi.deadline_exceeded");

  auto future = stub.call_async<std::uint64_t>(GatedServant::kBlock);
  scoped_clock.clock().advance(std::chrono::milliseconds(6));
  transport::Reactor::global().poke();
  future.wait();
  EXPECT_THROW(future.get(), DeadlineExceeded);

  // The cancellation bumped both the shared deadline counter and the
  // async-specific one — and did NOT record a completion latency sample
  // (the call never completed).
  EXPECT_EQ(counter_value("rmi.async.deadline_cancelled"),
            cancelled_before + 1);
  EXPECT_EQ(counter_value("rmi.deadline_exceeded"), deadline_before + 1);
  EXPECT_EQ(histogram->count(), samples_before);

  servant->release();
}


// ---- async settlement shares the sync pipeline's bookkeeping --------------

TEST_F(AsyncTransportFixture, AsyncErrorReplyCountedByCode) {
  EchoStub stub(*client_ctx_, tcp_ref(std::make_shared<EchoServant>()));
  const std::string counter =
      metrics::names::rmi_error(to_string(ErrorCode::method_not_found));
  const std::uint64_t before = counter_value(counter);

  auto future = stub.call_async<std::uint64_t>(/*method_id=*/999);
  try {
    future.get();
    FAIL() << "expected the unknown method to come back as an error reply";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::method_not_found);
  }
  EXPECT_EQ(counter_value(counter), before + 1);
}

TEST_F(AsyncTransportFixture, AsyncSettlementOpeningBreakerIsCounted) {
  // A foreign reference to a port nothing listens on: the submit queues
  // fine, the loop's connect fails, and the *settlement* sees the fault.
  std::uint16_t dead_port = 0;
  {
    transport::TcpListener listener(
        0, [](const wire::Buffer& frame) { return frame; });
    dead_port = listener.port();
  }
  proto::ServerAddress address;
  address.tcp_host = "127.0.0.1";
  address.tcp_port = dead_port;
  proto::ProtoTable table;
  table.add(proto::ProtocolEntry{"tcp", {}});
  EchoStub stub(*client_ctx_,
                orb::ObjectRef(4242, std::string(EchoServant::kTypeName),
                               address, std::move(table)));
  resilience::BreakerConfig breaker;
  breaker.failure_threshold = 1;
  stub.set_breaker_config(breaker);

  auto& recorder = introspect::FlightRecorder::global();
  recorder.clear();
  const std::uint64_t opened_before = counter_value("rmi.breaker.opened");

  auto future = stub.call_async<std::uint64_t>(EchoServant::kPing);
  EXPECT_THROW(future.get(), TransportError);

  EXPECT_EQ(stub.breaker_state(0), resilience::CircuitBreaker::State::open);
  EXPECT_EQ(counter_value("rmi.breaker.opened"), opened_before + 1);
  const auto records = recorder.snapshot();
  EXPECT_EQ(std::count_if(records.begin(), records.end(),
                          [](const introspect::FlightRecorder::Record& r) {
                            return r.kind ==
                                   introspect::EventKind::breaker_open;
                          }),
            1);
}

TEST_F(AsyncTransportFixture, PoolFallbackCountsOneCall) {
  // shm has no event-driven bearer: call_async runs the sync pipeline on a
  // worker thread, and that pipeline alone counts the call.
  orb::Context& local_ctx = world_.create_context(m_client_);
  EchoStub stub(*client_ctx_,
                orb::RefBuilder(local_ctx, std::make_shared<EchoServant>())
                    .shm()
                    .build());
  const std::uint64_t calls_before = counter_value("rmi.calls");
  const std::uint64_t shm_before = counter_value("rmi.calls.shm");

  EXPECT_EQ(stub.call_async<std::uint64_t>(EchoServant::kPing).get(), 1u);

  EXPECT_EQ(counter_value("rmi.calls"), calls_before + 1);
  EXPECT_EQ(counter_value("rmi.calls.shm"), shm_before + 1);
}

TEST_F(AsyncTransportFixture, PoolFallbackSelectsOnce) {
  // The pool thread's pipeline runs its first attempt on the selection the
  // caller made: one selection (a cache hit or miss) per call.
  orb::Context& local_ctx = world_.create_context(m_client_);
  EchoStub stub(*client_ctx_,
                orb::RefBuilder(local_ctx, std::make_shared<EchoServant>())
                    .shm()
                    .build());
  const std::uint64_t before = counter_value("rmi.select.cache_hit") +
                               counter_value("rmi.select.cache_miss");

  constexpr std::uint64_t kCalls = 10;
  for (std::uint64_t i = 1; i <= kCalls; ++i) {
    EXPECT_EQ(stub.call_async<std::uint64_t>(EchoServant::kPing).get(), i);
  }

  EXPECT_EQ(counter_value("rmi.select.cache_hit") +
                counter_value("rmi.select.cache_miss") - before,
            kCalls);
}

}  // namespace
}  // namespace ohpx
