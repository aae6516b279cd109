// Fast-path invocation microbenchmark: what the epoch-keyed selection
// cache buys on the cheapest real call the runtime can make (same-machine
// shm ping through a three-entry protocol table, the Figure 3 shape).
//
// Two arms over the identical world and object:
//   cache off — the paper's literal rule: every call re-resolves the
//               location and re-scans the table.  Its reference carries
//               the same table plus one bench-local tail entry that never
//               applies and reports applicability_is_stable() == false,
//               so the ORB never caches it — the per-call re-selection a
//               relay reference takes;
//   cache on  — the memoized selection revalidated against the location
//               epoch and pool generation (every other reference).
// Reported per arm: sustained calls/sec plus per-call p50/p99 latency
// sampled with a monotonic clock around each invocation.
//
// Hand-rolled main (not google-benchmark): the per-call percentiles and
// the paired on/off speedup need one fixture shared across both arms.
// Flags: --smoke (short run for CI), --json <path> (defaults to
// BENCH_fastpath.json in the working directory).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Arm {
  std::string name;
  double calls_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

// The control arm's tail entry: never applicable, and unstable, so a
// reference carrying it is never cached.  Selection never reaches it (shm
// wins first), so it adds no per-call work of its own.
class NeverCachedProtocol final : public proto::Protocol {
 public:
  static constexpr const char* kName = "fastpath-never-cached";
  std::string_view name() const noexcept override { return kName; }
  bool applicable(const proto::CallTarget&) const override { return false; }
  bool applicability_is_stable() const noexcept override { return false; }
  proto::ReplyMessage invoke(const wire::MessageHeader&, wire::Buffer&,
                             const proto::CallTarget&, CostLedger&) override {
    throw ProtocolError(ErrorCode::protocol_no_match, "never applicable");
  }
};

orb::ObjectRef never_cached(const orb::ObjectRef& ref) {
  proto::ProtocolRegistry::instance().register_factory(
      NeverCachedProtocol::kName, [](const proto::ProtocolEntry&) {
        return std::make_unique<NeverCachedProtocol>();
      });
  proto::ProtoTable table = ref.table();
  table.add(proto::ProtocolEntry{NeverCachedProtocol::kName, {}});
  return orb::ObjectRef(ref.object_id(), ref.type_name(), ref.home(),
                        std::move(table));
}

Arm run_arm(scenario::EchoPointer& gp, bool cache_on, std::size_t warmup,
            std::size_t iterations) {
  for (std::size_t i = 0; i < warmup; ++i) gp->ping();

  auto& registry = metrics::MetricsRegistry::global();
  const std::uint64_t hits0 = registry.counter("rmi.select.cache_hit");
  const std::uint64_t misses0 = registry.counter("rmi.select.cache_miss");

  // Throughput loop: no per-call clocks, so calls/sec measures the
  // pipeline alone rather than the sampling overhead.
  const auto series_start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) gp->ping();
  const double series_seconds =
      std::chrono::duration<double>(Clock::now() - series_start).count();

  // Separate sampled loop for the percentiles.
  std::vector<double> samples;
  samples.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto call_start = Clock::now();
    gp->ping();
    samples.push_back(std::chrono::duration<double, std::nano>(
                          Clock::now() - call_start)
                          .count());
  }

  Arm arm;
  arm.name =
      cache_on ? "invoke_fastpath/cache_on" : "invoke_fastpath/cache_off";
  arm.iterations = iterations;
  arm.calls_per_sec =
      series_seconds > 0.0 ? static_cast<double>(iterations) / series_seconds
                           : 0.0;
  arm.p50_ns = percentile(samples, 0.50);
  arm.p99_ns = percentile(samples, 0.99);
  arm.cache_hits = registry.counter("rmi.select.cache_hit") - hits0;
  arm.cache_misses = registry.counter("rmi.select.cache_miss") - misses0;
  return arm;
}

int run(int argc, char** argv) {
  std::string json_path = consume_json_flag(argc, argv);
  if (json_path.empty()) json_path = "BENCH_fastpath.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t warmup = smoke ? 200 : 5000;
  const std::size_t iterations = smoke ? 2000 : 200000;

  // Figure 3 shape: authenticated glue preferred (not applicable here —
  // client and server share the machine), shm the winner, nexus fallback.
  // The uncached arm pays the glue applicability check on every scan.
  runtime::World world;
  const auto lan = world.add_lan("lan-1");
  const auto machine = world.add_machine("bench-box", lan);
  orb::Context& server_ctx = world.create_context(machine);
  orb::Context& client_ctx = world.create_context(machine);

  auto auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_seed(0xbe7c), "fastpath-bench",
      cap::Scope::cross_lan);
  auto ref =
      orb::RefBuilder(server_ctx, std::make_shared<scenario::EchoServant>())
          .glue({auth}, "nexus-tcp")
          .shm()
          .nexus()
          .build();
  scenario::EchoPointer cached(client_ctx, ref);
  scenario::EchoPointer uncached(client_ctx, never_cached(ref));

  Arm off = run_arm(uncached, /*cache_on=*/false, warmup, iterations);
  Arm on = run_arm(cached, /*cache_on=*/true, warmup, iterations);
  const double speedup =
      off.calls_per_sec > 0.0 ? on.calls_per_sec / off.calls_per_sec : 0.0;

  std::printf(
      "invoke_fastpath: shm ping, table=[glue(auth), shm, nexus-tcp]%s\n",
      smoke ? " (smoke)" : "");
  for (const Arm* arm : {&off, &on}) {
    std::printf("  %-28s %12.0f calls/s   p50 %8.0f ns   p99 %8.0f ns"
                "   (hits %llu, misses %llu)\n",
                arm->name.c_str(), arm->calls_per_sec, arm->p50_ns, arm->p99_ns,
                static_cast<unsigned long long>(arm->cache_hits),
                static_cast<unsigned long long>(arm->cache_misses));
  }
  std::printf("  speedup (cached / uncached): %.2fx\n", speedup);

  std::vector<JsonRecord> records;
  for (const Arm* arm : {&off, &on}) {
    records.push_back(JsonRecord{
        arm->name,
        {{"calls_per_sec", arm->calls_per_sec},
         {"p50_ns", arm->p50_ns},
         {"p99_ns", arm->p99_ns},
         {"iterations", static_cast<double>(arm->iterations)},
         {"cache_hits", static_cast<double>(arm->cache_hits)},
         {"cache_misses", static_cast<double>(arm->cache_misses)}}});
  }
  records.push_back(JsonRecord{"invoke_fastpath/speedup",
                               {{"cached_over_uncached", speedup}}});
  if (!write_json_records(json_path, records)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace ohpx::bench

int main(int argc, char** argv) { return ohpx::bench::run(argc, argv); }
