// Event-driven async TCP transport: one epoll loop (optionally sharded)
// owns every outbound connection, so a single client thread can keep
// thousands of calls in flight.  It is the one client-side TCP bearer:
// proto::TcpProtocol's sync invoke() is a submit + wait on this loop.
//
// Shape of the machine (DESIGN-level summary; docs/transport.md has the
// full walkthrough):
//
//   - submit() runs on the caller's thread: it stamps a correlation id
//     into the frame header (wire extension kFlagCorrelation), encodes the
//     frame, queues it on the destination's connection, registers a
//     Promise under that id, pokes the loop through an eventfd, and
//     returns the Future.  No socket syscall happens on the caller.
//
//   - the loop thread owns all I/O.  Queued frames to the same destination
//     coalesce into one sendmsg gather write (up to max_batch_frames /
//     max_batch_bytes per syscall) — flush-on-idle: whatever accumulated
//     while the loop was busy goes out in one batch; flush-on-budget: a
//     long queue is cut into budget-sized syscalls so one destination
//     cannot starve the loop.  Replies demultiplex by the echoed
//     correlation id, in whatever order the server produces them.
//
//   - every connection carries a bounded inflight window (queued + on the
//     wire, awaiting reply).  A submit() into a full window is refused
//     *synchronously* with ErrorCode::backpressure before any byte moves —
//     the one transport error that is always safe to retry and must never
//     trip a breaker (see resilience/retry.cpp and orb/invocation.cpp).
//
//   - deadlines cancel futures: each pending call remembers the ambient
//     deadline at submit time; the loop scans pending deadlines every tick
//     (bounded epoll timeout while any exist) on the *resilience* clock,
//     so ManualClock-driven tests work — advance the clock, poke(), and
//     the future settles with DeadlineExceeded.  A reply racing the
//     cancellation loses: settlement is once-only (ohpx::Future).
//
// Frames are length-prefixed (u32 big-endian) and served by TcpListener
// (tcp.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/bytes.hpp"
#include "ohpx/common/future.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/message.hpp"

namespace ohpx::transport {

/// A reply as the reactor settles it: decoded exactly once, on the loop
/// thread.  The demultiplexer must decode every frame anyway to read the
/// echoed correlation id, so handing the caller the raw bytes would force
/// a second decode — and a second CRC pass — per call (under fan-in that
/// was ~half the crc32 work of the whole client).  The alias makes it the
/// same type the protocol layer calls ReplyMessage: the tcp async path
/// passes the settled future upward with no per-layer repack stage.
using RawReply = wire::ReplyEnvelope;

struct ReactorConfig {
  /// Event-loop shards; connections hash to a shard by (host, port).  One
  /// shard saturates loopback comfortably; shard when one loop thread
  /// becomes the bottleneck across many destinations.
  unsigned shards = 1;
  /// Per-connection inflight window: queued + awaiting-reply calls beyond
  /// this are refused with ErrorCode::backpressure.  Tunable at runtime
  /// via set_inflight_window().
  std::size_t inflight_window = 1024;
  /// Flush budget: at most this many frames / bytes per sendmsg batch.
  std::size_t max_batch_frames = 256;
  std::size_t max_batch_bytes = 256u << 10;
  /// Loop tick granularity while calls with deadlines are pending — the
  /// upper bound on how late a deadline cancellation fires.
  int poll_granularity_ms = 5;

  /// Stall watchdog: a loop tick whose processing time (everything between
  /// an epoll_wait return and the next sleep decision — time *parked* in
  /// epoll_wait never counts) reaches this threshold bumps
  /// rmi.reactor.stall and drops a flight-recorder entry; the first stall
  /// additionally logs a full recorder dump.  0 disables the watchdog.
  /// Tunable at runtime via set_stall_threshold().
  std::int64_t stall_threshold_ns = 500'000'000;
};

class Reactor {
 public:
  explicit Reactor(ReactorConfig config = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Process-wide reactor used by the tcp protocol's async path.
  static Reactor& global();

  /// Queues one call to host:port.  Stamps a fresh correlation id (the
  /// caller's header must not carry one), captures the thread-ambient
  /// deadline for cancellation, and returns a future settling with the
  /// decoded reply (header + body — the loop thread already decoded the
  /// frame to demultiplex, so the caller never re-parses bytes).
  ///
  /// Throws synchronously: DeadlineExceeded when the ambient deadline has
  /// already passed, TransportError(backpressure) when the destination's
  /// inflight window is full (nothing was queued — retry after backoff).
  Future<RawReply> submit(const std::string& host, std::uint16_t port,
                          const wire::MessageHeader& header,
                          BytesView payload);

  /// Dynamic window tuning (tests shrink it to force backpressure).
  void set_inflight_window(std::size_t window) noexcept;
  std::size_t inflight_window() const noexcept;

  /// Stall-watchdog threshold tuning (tests shrink it to force a stall;
  /// 0 disables).  See ReactorConfig::stall_threshold_ns.
  void set_stall_threshold(Nanoseconds threshold) noexcept;
  Nanoseconds stall_threshold() const noexcept;

  /// Calls queued or awaiting a reply, across all connections.
  std::size_t pending_calls() const;

  /// Point-in-time health of one connection, for the introspection plane.
  struct ConnectionStats {
    std::string host;
    std::uint16_t port = 0;
    std::size_t inflight = 0;    // queued + awaiting reply
    std::size_t queued = 0;      // frames not yet fully on the wire
    bool connected = false;      // socket open, handshake complete
    std::uint64_t reconnects = 0;
  };

  /// Every live connection across all shards (order unspecified).
  std::vector<ConnectionStats> connection_stats() const;

  /// Wakes every shard for an immediate tick — after advancing a
  /// ManualClock, this makes deadline cancellation prompt instead of
  /// waiting out the poll granularity.
  void poke() noexcept;

  /// Fails all pending calls (transport_closed), closes every connection
  /// and joins the loop threads.  Idempotent; the destructor calls it.
  void stop();

 private:
  // One call awaiting its reply (or still queued).
  struct Pending {
    Promise<RawReply> promise;
    std::int64_t deadline_ns = 0;  // resilience clock; 0 = unbounded
  };

  // An encoded frame staged for the wire: 4-byte big-endian length prefix
  // kept separate so the flush path gather-writes (prefix, frame) iovec
  // pairs without copying the frame behind a prefix.
  struct OutFrame {
    std::uint8_t prefix[4];
    wire::Buffer frame;
  };

  struct Connection {
    std::string host;
    std::uint16_t port = 0;
    int fd = -1;
    bool connecting = false;  // nonblocking connect() in progress
    bool registered = false;  // fd added to the shard's epoll set
    bool want_write = false;  // EPOLLOUT currently requested

    // Write side: frames not yet (fully) handed to the kernel.
    // out_offset = bytes of the front entry (prefix + frame) already sent.
    std::deque<OutFrame> outq;
    std::size_t out_offset = 0;

    // Read side: bulk receive buffer.  Each readable tick recvs big
    // chunks and parses every complete length-prefixed frame out; the
    // tail (a partial frame, if any) stays for the next tick.  One
    // syscall covers many replies under fan-in.
    std::vector<std::uint8_t> inbuf;

    // Reconnect bookkeeping: ever_connected marks the first successful
    // handshake, so later successes count as re-establishments.
    bool ever_connected = false;
    std::uint64_t reconnects = 0;

    // Correlation id -> pending call; its size *is* the inflight count the
    // window bounds.  Hashed, not ordered: at a 1k-deep window the
    // per-call find/insert/erase triple on a red-black tree was a
    // measurable slice of the demux cost.  deadline_count tracks entries
    // with a real deadline so idle ticks stay free when nothing can
    // expire.
    std::unordered_map<std::uint64_t, Pending> inflight;
    std::size_t deadline_count = 0;
  };

  struct Shard {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    // Wake elision: submit() pays the eventfd write syscall only while the
    // loop is (about to be) parked in epoll_wait.  The loop publishes
    // asleep=true immediately before sleeping and then re-checks
    // submit_seq (a Dekker handshake, both seq_cst): either the submitter
    // observes asleep and writes the eventfd, or the loop observes the
    // new sequence number and skips the sleep — a wakeup is never lost.
    std::atomic<bool> asleep{false};
    std::atomic<std::uint64_t> submit_seq{0};
    mutable sync::Mutex mutex{"transport.reactor.shard"};
    // This shard's contribution to the reactor.inflight / .connections
    // gauges, refreshed at the end of every tick (the loop sums across
    // shards and stores the totals into the metrics registry).
    std::atomic<std::size_t> gauge_inflight{0};
    std::atomic<std::size_t> gauge_connections{0};
    bool stopping OHPX_GUARDED_BY(mutex) = false;
    std::map<std::pair<std::string, std::uint16_t>,
             std::unique_ptr<Connection>>
        conns OHPX_GUARDED_BY(mutex);
  };

  // A settled call carried out of the locked region: promises are
  // fulfilled *after* the shard mutex drops, so a continuation that
  // re-enters submit() cannot deadlock.
  struct Settlement {
    Promise<RawReply> promise;
    RawReply reply;                     // meaningful when !error
    std::exception_ptr error = nullptr;

    void settle() {
      if (error) {
        promise.set_exception(error);
      } else {
        promise.set_value(std::move(reply));
      }
    }
  };

  Shard& shard_for(const std::string& host, std::uint16_t port) noexcept;
  void wake(Shard& shard) noexcept;
  void loop(Shard& shard);
  void service_submissions(Shard& shard, std::vector<Settlement>& out)
      OHPX_REQUIRES(shard.mutex);
  void open_connection(Shard& shard, Connection& conn,
                       std::vector<Settlement>& out)
      OHPX_REQUIRES(shard.mutex);
  void finish_connect(Shard& shard, Connection& conn,
                      std::vector<Settlement>& out) OHPX_REQUIRES(shard.mutex);
  void flush(Shard& shard, Connection& conn, std::vector<Settlement>& out)
      OHPX_REQUIRES(shard.mutex);
  void read_ready(Shard& shard, Connection& conn,
                  std::vector<Settlement>& out) OHPX_REQUIRES(shard.mutex);
  bool drain_inbuf(Shard& shard, Connection& conn,
                   std::vector<Settlement>& out) OHPX_REQUIRES(shard.mutex);
  void fail_connection(Shard& shard, Connection& conn, ErrorCode code,
                       const std::string& message,
                       std::vector<Settlement>& out)
      OHPX_REQUIRES(shard.mutex);
  void cancel_expired(Shard& shard, std::vector<Settlement>& out)
      OHPX_REQUIRES(shard.mutex);
  void update_interest(Shard& shard, Connection& conn, bool want_write)
      OHPX_REQUIRES(shard.mutex);
  void note_connected(Connection& conn) noexcept;
  void publish_gauges(Shard& shard, std::size_t inflight,
                      std::size_t connections) noexcept;
  void note_tick_lag(Nanoseconds lag);

  ReactorConfig config_;
  std::atomic<std::size_t> window_;
  std::atomic<std::int64_t> stall_threshold_{0};
  std::atomic<bool> stall_dump_logged_{false};
  std::atomic<std::uint64_t> next_correlation_{1};
  std::atomic<bool> stopped_{false};

  // Resolved once in the constructor, which runs after (and therefore
  // destructs before) MetricsRegistry::global() — loop threads may bump
  // these until stop() completes.
  metrics::MetricsRegistry::Counter* batches_ = nullptr;
  metrics::MetricsRegistry::Counter* frames_ = nullptr;
  metrics::MetricsRegistry::Counter* backpressure_ = nullptr;
  metrics::MetricsRegistry::Counter* deadline_cancels_ = nullptr;
  metrics::MetricsRegistry::Counter* reconnects_ = nullptr;
  metrics::MetricsRegistry::Counter* stalls_ = nullptr;
  // Gauges (store(), not fetch_add): refreshed at the end of every tick.
  metrics::MetricsRegistry::Counter* inflight_gauge_ = nullptr;
  metrics::MetricsRegistry::Counter* connections_gauge_ = nullptr;
  // Histograms: per-tick loop lag (real time) and frames per sendmsg
  // batch (encoded as 1 us per frame — see flush()).
  metrics::LatencyHistogram* loop_lag_ = nullptr;
  metrics::LatencyHistogram* batch_frames_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ohpx::transport
