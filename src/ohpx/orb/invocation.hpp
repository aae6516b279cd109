// Client-side invocation core shared by all stubs bound to one OR.
//
// Per call (paper §3.2): resolve the object's current address through the
// location service (falling back to the OR's home address), compute the
// placement, select the first applicable pool-allowed protocol from the
// OR's table, and fire.  Error replies are re-raised as typed exceptions;
// stale-reference replies (migration race) trigger a bounded re-resolve
// and retry.
//
// Fast path: the paper re-evaluates selection per request, but between two
// calls nothing that feeds the decision usually changed.  The selection
// inputs are exactly (object address, pool contents), so CallCore memoizes
// the chosen protocol keyed on (location epoch, pool generation) and
// revalidates both probes per call — a republish (migration, enable_tcp)
// or a pool edit invalidates the cache on the very next call, preserving
// the adaptivity contract while skipping the re-resolve, the table scan,
// the describe() string build and the per-call metric-name lookups.
// References carrying a protocol whose applicability depends on state
// outside that key (Protocol::applicability_is_stable() == false, e.g.
// relay) are never cached, and neither is a selection that skipped an
// entry whose breaker refused it (so the entry gets its half-open probe on
// the first call after the cooldown).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/future.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/context.hpp"
#include "ohpx/orb/object_ref.hpp"
#include "ohpx/protocol/protocol.hpp"
#include "ohpx/resilience/breaker.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/resilience/retry.hpp"
#include "ohpx/sync/mutex.hpp"
#include "ohpx/trace/trace.hpp"

namespace ohpx::orb {

class CallCore {
 public:
  CallCore(Context& context, ObjectRef ref);

  /// Marshals nothing — the caller provides the encoded argument payload
  /// (by value: move it in to avoid a copy; the buffer is consumed).
  /// Returns the reply payload.  Costs (marshalling, capability work, wire
  /// time) accrue to `ledger` when non-null.
  wire::Buffer invoke_raw(std::uint32_t method_id, wire::Buffer args,
                          CostLedger* ledger);

  /// Fire-and-forget variant: the server runs the method but returns only
  /// an empty delivery ack; results and application errors are dropped on
  /// the server (infrastructure errors — no such object, capability
  /// denied — still surface here).
  void invoke_oneway(std::uint32_t method_id, wire::Buffer args,
                     CostLedger* ledger);

  /// Asynchronous invocation: selection, header build and submission run
  /// on the calling thread; the returned future settles with the reply
  /// payload (or the typed error) when the exchange completes — off the
  /// reactor event loop when the selected protocol supports_async(), on a
  /// shared worker thread otherwise.  Unlike the synchronous path there
  /// is no retry loop: transient errors (including backpressure refusals,
  /// which this method throws synchronously) surface to the caller, who
  /// owns the re-submission decision for in-flight fan-in.  The ambient
  /// deadline cancels pending futures; the ambient trace context is
  /// stamped per call.  This CallCore must outlive settlement — callers
  /// holding it through CallCorePtr (stubs do) get that for free by
  /// capturing the pointer in a continuation.
  Future<wire::Buffer> invoke_async_raw(std::uint32_t method_id,
                                        wire::Buffer args);

  /// Per-call bookkeeping handed out by invoke_async_reply() and consumed
  /// by finish_async_reply(): which protocol and breaker entry the
  /// settlement feeds, the request id the reply must echo, and whether the
  /// reply already ran the full synchronous pipeline (worker-thread
  /// fallback — nothing left to do but hand over the payload).  Copyable
  /// by design: continuations capture it by value.
  struct AsyncReplyTicket {
    std::shared_ptr<resilience::BreakerSet> breakers;
    proto::Protocol* protocol = nullptr;
    std::size_t entry_index = 0;
    /// Started at submit: the completion latency (submit to settlement)
    /// recorded into rmi.async.latency.
    Stopwatch watch;
    std::uint64_t expect_request_id = 0;
    bool pipeline_complete = false;
  };

  /// Split form of invoke_async_raw() for callers that decode the reply in
  /// a continuation of their own (stubs do): the submission half returns
  /// the protocol-level reply future and fills `ticket`; the caller folds
  /// one finish_async_reply() call into its decode continuation.  Folding
  /// matters under fan-in: every future stage is a shared-state
  /// allocation, a settlement under its lock, and a type-erased
  /// continuation — per call — so the stub path runs one merged stage
  /// where invoke_async_raw() + map would run two.
  Future<proto::ReplyMessage> invoke_async_reply(std::uint32_t method_id,
                                                 wire::Buffer args,
                                                 AsyncReplyTicket& ticket);

  /// Settlement half: the reply check and the reply settlement the sync
  /// pipeline runs too (breaker bookkeeping, error-reply decoding, latency),
  /// then payload extraction.  Call exactly once, with the settled reply
  /// future, while this CallCore is alive.
  wire::Buffer finish_async_reply(Future<proto::ReplyMessage> settled,
                                  const AsyncReplyTicket& ticket);

  const ObjectRef& ref() const noexcept { return ref_; }
  Context& context() noexcept { return context_; }

  /// describe() of the protocol used by the most recent call — the
  /// observable for adaptivity tests and the Figure 4 experiment.
  std::string last_protocol() const;

  /// Resolves the current call target (public for diagnostics).
  proto::CallTarget resolve_target() const;

  /// The protocol that *would* be selected right now, without calling.
  /// Always performs a full re-evaluation (never consults the cache).
  std::string probe_protocol() const;

  /// Per-GP trace sampling override (innermost steering point: wins over
  /// the context override and the global sink mode).
  void set_trace_sampling(trace::Sampling mode, double ratio = 1.0) noexcept {
    trace_sampling_.set(mode, ratio);
  }
  void clear_trace_sampling() noexcept { trace_sampling_.clear(); }

  /// Per-call deadline budget: every call through this core mints an
  /// absolute deadline `budget` from now on the resilience clock,
  /// tightened against any ambient deadline, checked at every pipeline
  /// stage and carried over the wire.  Zero (the default) = unbounded.
  void set_deadline_budget(Nanoseconds budget) noexcept {
    deadline_budget_ns_.store(budget.count(), std::memory_order_relaxed);
  }
  Nanoseconds deadline_budget() const noexcept {
    return Nanoseconds(deadline_budget_ns_.load(std::memory_order_relaxed));
  }

  /// Per-GP retry policy override (innermost steering point: wins over the
  /// context override and the global policy).
  void set_retry_policy(const resilience::RetryPolicy& policy) {
    retry_policy_.set(policy);
  }
  void clear_retry_policy() { retry_policy_.clear(); }

  /// Installs per-protocol-entry circuit breakers (one per OR-table entry,
  /// fresh state).  A config with failure_threshold == 0 removes them —
  /// the default, costing the fast path one relaxed load.
  void set_breaker_config(const resilience::BreakerConfig& config);

  /// Breaker state of one protocol-table entry (closed when breakers are
  /// not enabled) — the observable for failover tests and metrics dumps.
  resilience::CircuitBreaker::State breaker_state(std::size_t entry) const;

  /// Installs a hook invoked each time a breaker entry opens (nullptr
  /// clears it).  Survives set_breaker_config(): the hook is re-applied to
  /// the replacement set.  The installer must clear the hook before any
  /// state it captures dies — async settlement tickets keep the breaker
  /// set (and therefore the hook) alive until their futures settle.
  void set_breaker_trip_hook(resilience::BreakerSet::TripHook hook);

 private:
  /// One memoized selection: valid while the location epoch and pool
  /// generation both still match.  `protocol` points into `protocols_`
  /// (owned by this CallCore, so the pointer is stable).  Entries are
  /// immutable once published (shared_ptr-to-const snapshots), so a hit
  /// copies one pointer instead of a CallTarget full of address strings.
  /// `location_version` is the service-wide edit counter at fill time: a
  /// single atomic load revalidates the entry while the location map is
  /// quiet, and only when *some* object republished do we pay the precise
  /// per-object epoch_of() probe.
  struct CachedSelection {
    proto::Protocol* protocol = nullptr;
    proto::CallTarget target;
    std::size_t entry_index = 0;  // position in protocols_, keys breakers
    std::uint64_t location_epoch = 0;
    std::uint64_t location_version = 0;
    std::uint64_t pool_generation = 0;
    std::string described;
    metrics::MetricsRegistry::Counter* calls_by_protocol = nullptr;
  };

  /// One call's resolved selection, cached or fresh.  On a hit `entry`
  /// pins the immutable snapshot, so target() stays valid for as long as
  /// the Selection lives; on a miss the freshly resolved target is owned
  /// by `resolved`.
  struct Selection {
    proto::Protocol* protocol = nullptr;
    proto::CallTarget resolved;                    // filled on misses only
    std::shared_ptr<const CachedSelection> entry;  // non-null on hits
    metrics::MetricsRegistry::Counter* proto_counter = nullptr;
    std::size_t entry_index = 0;

    const proto::CallTarget& target() const noexcept {
      return entry ? entry->target : resolved;
    }
  };

  /// The one protocol selection of every attempt, sync or async, under a
  /// "select" span: for a cacheable reference, probe the invalidation
  /// signals, revalidate or drop the cached entry and gate it through its
  /// breaker; on a miss (or for a never-cached reference) re-select in
  /// full, filling the cache unless a breaker refused an entry.  Bumps
  /// cache_hits_/cache_misses_ (cacheable references only) and
  /// last_protocol_.
  Selection select_for_call(
      const std::shared_ptr<resilience::BreakerSet>& breakers);

  wire::Buffer invoke_internal(std::uint32_t method_id, wire::Buffer args,
                               CostLedger* ledger, bool oneway);

  /// The sync pipeline's attempt loop, once the call's deadline was
  /// checked: the first attempt runs on `sel` (the caller's selection),
  /// each retry re-selects into it.  A value reply records the
  /// wall time since `timer` started into rmi.latency.
  wire::Buffer run_attempts(
      std::uint32_t method_id, wire::Buffer& args, CostLedger* ledger,
      bool oneway, std::int64_t deadline,
      const std::shared_ptr<resilience::BreakerSet>& breakers,
      Selection& sel, const metrics::DeepTimer& timer);

  /// The call prologue both paths run first, around the whole logical
  /// call: mints this call's deadline from the budget, tightened against
  /// any ambient deadline (a servant calling downstream spends its
  /// caller's remaining budget, never more); roots or joins the trace;
  /// opens the rmi.invoke span; then runs `body(deadline, call_span)`
  /// inside that scope.  With no budget, no ambient deadline and tracing
  /// inactive this is one relaxed load per step.
  template <typename Body>
  decltype(auto) in_call_scope(std::uint32_t method_id, Body&& body);

  /// Rest of the prologue, once per attempt: builds the request header
  /// with its trace and deadline extensions and bumps the call counters.
  wire::MessageHeader begin_attempt(wire::MessageType type,
                                    std::uint32_t method_id,
                                    std::int64_t deadline,
                                    const Selection& sel);

  /// Throws DeadlineExceeded, counted and flight-recorded: the call's
  /// deadline passed before attempt `attempts` (callers test
  /// resilience::deadline_expired first).
  [[noreturn]] void deadline_spent(int attempts);

  /// The transport-failure handler of both paths.  A backpressure refusal
  /// is counted and flight-recorded but never feeds a breaker; any other
  /// fault feeds the entry's breaker, and one that opens it bumps
  /// rmi.breaker.opened, records the trip and notifies the trip hook.
  void on_transport_failure(const TransportError& error,
                            resilience::BreakerSet* breakers,
                            std::size_t entry_index,
                            const proto::Protocol& protocol);

  struct ErrorReply {
    ErrorCode code = ErrorCode::ok;
    std::string message;
  };

  /// The reply settlement of both paths, for a reply that passed the reply
  /// check.  Any reply — even an error reply — proves the channel works,
  /// so the entry's breaker records a success (closing a half-open one).
  /// A value reply yields nothing; an error reply is decoded, counted under
  /// rmi.errors.<code>, and returned.
  std::optional<ErrorReply> settle_reply(const proto::ReplyMessage& reply,
                                         resilience::BreakerSet* breakers,
                                         std::size_t entry_index,
                                         const proto::Protocol& protocol);
  // settle_reply's off-hot-path halves.
  void note_success(resilience::BreakerSet& breakers, std::size_t entry_index,
                    const proto::Protocol& protocol);
  static ErrorReply decode_error_reply(const proto::ReplyMessage& reply);

  /// Gives up on an error reply: flight-records it and throws its typed
  /// exception.
  [[noreturn]] static void raise_error_reply(const ErrorReply& error);

  /// Forgets the memoized selection: the next attempt re-selects.
  void drop_cached_selection();

  /// Fast-path view of the resolved retry policy: one global-revision probe
  /// revalidates a memoized resolution, so the default-policy hot path
  /// never touches a mutex.  retry_policy_now() returns the full policy
  /// (failure path only).
  int max_attempts_now();
  resilience::RetryPolicy retry_policy_now();

  /// Breaker set snapshot (nullptr when breakers are off — the default).
  std::shared_ptr<resilience::BreakerSet> breaker_set() const;

  /// Waits out the policy backoff before a retry (no-op under the default
  /// zero-backoff policy); the schedule is created lazily on first use.
  void wait_backoff(std::optional<resilience::BackoffSchedule>& backoff,
                    CostLedger& cost);

  Context& context_;
  ObjectRef ref_;
  std::vector<proto::ProtocolPtr> protocols_;  // built once, reused (keeps
                                               // client capability state)
  bool cacheable_ = true;  // all table entries have stable applicability
  trace::SamplingOverride trace_sampling_;

  // Resilience state.  The deadline budget is one relaxed load per call;
  // the resolved retry policy is memoized against the global revision
  // counter (two relaxed loads per call while policies are quiet); the
  // breaker set pointer is copied under the lock only when enabled.
  std::atomic<std::int64_t> deadline_budget_ns_{0};
  resilience::RetryOverride retry_policy_;
  std::atomic<std::uint64_t> retry_revision_seen_{0};
  std::atomic<int> cached_max_attempts_{3};
  std::atomic<bool> breakers_enabled_{false};

  // Interned hot-path metrics handles (stable for process lifetime).
  metrics::MetricsRegistry::Counter* calls_total_;
  metrics::MetricsRegistry::Counter* cache_hits_;
  metrics::MetricsRegistry::Counter* cache_misses_;
  metrics::MetricsRegistry::Counter* cache_invalidate_;
  metrics::MetricsRegistry::Counter* retries_;
  metrics::MetricsRegistry::Counter* backpressure_;
  metrics::MetricsRegistry::Counter* deadline_exceeded_;
  metrics::MetricsRegistry::Counter* breaker_opened_;
  metrics::MetricsRegistry::Counter* breaker_closed_;
  metrics::MetricsRegistry::Counter* async_deadline_cancelled_;
  metrics::LatencyHistogram* latency_;
  metrics::LatencyHistogram* async_latency_;

  mutable sync::Mutex mutex_{"orb.call_core"};
  std::shared_ptr<const CachedSelection> cache_ OHPX_GUARDED_BY(mutex_);
  std::string last_protocol_ OHPX_GUARDED_BY(mutex_);
  resilience::RetryPolicy cached_policy_ OHPX_GUARDED_BY(mutex_);
  std::shared_ptr<resilience::BreakerSet> breakers_ OHPX_GUARDED_BY(mutex_);
  resilience::BreakerSet::TripHook breaker_trip_hook_ OHPX_GUARDED_BY(mutex_);
};

using CallCorePtr = std::shared_ptr<CallCore>;

}  // namespace ohpx::orb
