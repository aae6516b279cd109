#include "ohpx/metrics/metrics.hpp"

#include <iomanip>
#include <memory>
#include <sstream>

#include "ohpx/sync/mutex.hpp"

namespace ohpx::metrics {
namespace {

std::size_t bucket_for(Nanoseconds duration) noexcept {
  const std::uint64_t us = static_cast<std::uint64_t>(duration.count()) / 1000;
  std::size_t bucket = 0;
  std::uint64_t bound = 2;
  while (bucket + 1 < LatencyHistogram::kBuckets && us >= bound) {
    bound <<= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

std::atomic<bool> detail::deep_timing{false};

void enable_deep_timing() noexcept {
  detail::deep_timing.store(true, std::memory_order_relaxed);
}

void LatencyHistogram::record(Nanoseconds duration) noexcept {
  buckets_[bucket_for(duration)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(duration.count(), std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

Nanoseconds LatencyHistogram::total() const noexcept {
  return Nanoseconds(total_ns_.load(std::memory_order_relaxed));
}

Nanoseconds LatencyHistogram::mean() const noexcept {
  const std::uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return Nanoseconds(0);
  return Nanoseconds(total_ns_.load(std::memory_order_relaxed) /
                     static_cast<std::int64_t>(n));
}

std::uint64_t LatencyHistogram::approximate_quantile_us(
    double quantile) const noexcept {
  const std::uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  const std::uint64_t target =
      static_cast<std::uint64_t>(quantile * static_cast<double>(n));
  std::uint64_t seen = 0;
  std::uint64_t bound = 2;
  for (std::size_t i = 0; i < kBuckets; ++i, bound <<= 1) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > target) return bound;
  }
  return bound;
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::buckets() const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void LatencyHistogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Counter* MetricsRegistry::counter_handle(
    const std::string& name) {
  sync::LockGuard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>(0);
  return slot.get();
}

LatencyHistogram* MetricsRegistry::latency_handle(const std::string& name) {
  sync::LockGuard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

void MetricsRegistry::increment(const std::string& name, std::uint64_t delta) {
  counter_handle(name)->fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0
                               : it->second->load(std::memory_order_relaxed);
}

void MetricsRegistry::record_latency(const std::string& name,
                                     Nanoseconds duration) {
  latency_handle(name)->record(duration);
}

const LatencyHistogram* MetricsRegistry::histogram(
    const std::string& name) const {
  sync::LockGuard lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  sync::LockGuard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.latency_counts[name] = histogram->count();
    snap.latency_mean_us[name] =
        std::chrono::duration<double, std::micro>(histogram->mean()).count();
    snap.latency_quantiles[name] = {histogram->approximate_quantile_us(0.50),
                                    histogram->approximate_quantile_us(0.95),
                                    histogram->approximate_quantile_us(0.99)};
  }
  return snap;
}

void MetricsRegistry::reset() {
  sync::LockGuard lock(mutex_);
  // Zero in place: handles returned by counter_handle/latency_handle must
  // survive a reset (hot paths resolve them once and never again).
  for (auto& [name, cell] : counters_) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->reset();
  }
}

std::string format_snapshot(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "counters:\n";
  for (const auto& [name, value] : snapshot.counters) {
    out << "  " << std::left << std::setw(44) << name << std::right
        << std::setw(12) << value << "\n";
  }
  if (!snapshot.latency_counts.empty()) {
    out << "latencies:\n";
    for (const auto& [name, count] : snapshot.latency_counts) {
      out << "  " << std::left << std::setw(44) << name << std::right
          << std::setw(12) << count << " samples, mean " << std::fixed
          << std::setprecision(1) << snapshot.latency_mean_us.at(name)
          << " us";
      const auto it = snapshot.latency_quantiles.find(name);
      if (it != snapshot.latency_quantiles.end()) {
        out << ", p50 " << it->second.p50_us << " us, p95 "
            << it->second.p95_us << " us, p99 " << it->second.p99_us
            << " us";
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace ohpx::metrics
