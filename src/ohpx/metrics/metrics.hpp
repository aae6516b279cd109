// Lightweight metrics: named counters and fixed-bucket latency histograms,
// plus a per-registry snapshot for reporting.  The invocation layer and
// server pipeline can be pointed at a MetricsRegistry to account calls per
// protocol, error categories and capability denials — the operational
// visibility a production ORB needs and the paper's open-implementation
// philosophy invites (the ORB's decisions are observable, not hidden).
//
// Hot paths use *handles*: counter_handle()/latency_handle() resolve a name
// once and return a stable pointer the caller bumps directly — no string
// concatenation and no map lookup per event.  Handles stay valid for the
// registry's lifetime; reset() zeroes values in place so outstanding
// handles keep working.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ohpx/common/annotations.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::metrics {

/// Log-scale latency histogram: bucket i holds durations in
/// [2^i, 2^(i+1)) microseconds; bucket 0 is < 2 us, the last bucket is
/// open-ended.  Lock-free: record() is three relaxed atomic adds, so the
/// invocation hot path never serializes on a histogram mutex; readers see
/// each cell atomically (cross-cell totals may lag by in-flight records,
/// which is fine for reporting).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 20;

  void record(Nanoseconds duration) noexcept;

  std::uint64_t count() const noexcept;
  Nanoseconds total() const noexcept;
  Nanoseconds mean() const noexcept;

  /// Smallest bucket upper bound (in us) covering at least `quantile` of
  /// the samples; 0 when empty.
  std::uint64_t approximate_quantile_us(double quantile) const noexcept;

  std::array<std::uint64_t, kBuckets> buckets() const noexcept;

  /// Zeroes all samples in place (pointers to this histogram stay valid).
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> total_ns_{0};
};

/// Tail latencies for one histogram, from approximate_quantile_us (bucket
/// upper bounds, so values are conservative log-scale approximations).
struct LatencyQuantiles {
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> latency_counts;
  std::map<std::string, double> latency_mean_us;
  std::map<std::string, LatencyQuantiles> latency_quantiles;
};

/// Deep-timing arming for instrumentation the hot path cannot absorb by
/// default (the DeepTimer sites: the client's rmi.latency and the server
/// dispatch timers behind the per-context latency series the exporter and
/// ohpx-top render, two clock reads each).  Mirrors the tracing cost
/// contract in docs/observability.md — disarmed, each gated site is one
/// relaxed load and a branch.  Arming is sticky and process-wide; the
/// introspection plane arms it when an exporter is constructed or an
/// exposition is rendered.
namespace detail {
extern std::atomic<bool> deep_timing;
}
inline bool deep_timing_enabled() noexcept {
  return detail::deep_timing.load(std::memory_order_relaxed);
}
void enable_deep_timing() noexcept;

class MetricsRegistry {
 public:
  /// Stable counter cell: bump with fetch_add, read with load.
  using Counter = std::atomic<std::uint64_t>;

  /// Process-wide default registry (callers may also own private ones).
  static MetricsRegistry& global();

  /// Resolves (creating on first use) a counter and returns a pointer that
  /// stays valid for the registry's lifetime — resolve once, bump forever.
  Counter* counter_handle(const std::string& name);

  /// Same contract for latency histograms.
  LatencyHistogram* latency_handle(const std::string& name);

  void increment(const std::string& name, std::uint64_t delta = 1);
  std::uint64_t counter(const std::string& name) const;

  void record_latency(const std::string& name, Nanoseconds duration);
  const LatencyHistogram* histogram(const std::string& name) const;

  MetricsSnapshot snapshot() const;

  /// Zeroes every counter and histogram *in place*: names and outstanding
  /// handles survive, values restart from zero.
  void reset();

 private:
  mutable sync::Mutex mutex_{"metrics.registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      OHPX_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      OHPX_GUARDED_BY(mutex_);
};

/// Renders a snapshot as an aligned text table (one counter or histogram
/// per line) — the "show me what the ORB did" report for examples/tools.
std::string format_snapshot(const MetricsSnapshot& snapshot);

/// Deep-timing latency sample: one clock-read pair, armed only while deep
/// timing is on.  Disarmed, construction is one relaxed load and a branch
/// and record() records nothing.  The caller picks where the sample ends:
/// record() on every exit of a region, or only on its success path.
class DeepTimer {
 public:
  DeepTimer() noexcept : armed_(deep_timing_enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }

  bool armed() const noexcept { return armed_; }

  /// Records the time since construction into `histogram`, and into
  /// `also` when non-null, from one clock read.
  void record(LatencyHistogram* histogram,
              LatencyHistogram* also = nullptr) const noexcept {
    if (!armed_) return;
    const auto elapsed = std::chrono::duration_cast<Nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    histogram->record(elapsed);
    if (also != nullptr) also->record(elapsed);
  }

 private:
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace ohpx::metrics
