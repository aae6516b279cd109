// The ORB benchmark: four closed-loop call workloads, each driven by one
// generator thread over at most one client connection.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--ab-servant-delay-ns <ns>]
//
// --ab-servant-delay-ns serves the benchmark's sensitivity self-test: a
// busy delay inside the benchmark's servant in every other (traced) round,
// the delayed rounds then reported apart.
//
// --trace 0 measures the end-to-end metrics with no hook installed.
// --trace 1 installs the hooks (layers.hpp) for the whole run, alternates
// untraced rounds (hooks passing straight through) and traced rounds, and
// reports per-layer self times, the untraced-versus-traced overhead, and
// per-thread CPU.  Each run repeats its measurement in rounds of about half
// a second, each on a freshly built world, cut into slices of equal work,
// and reports times and rates as means over the fastest twentieth of the
// slices (see fastest_slices), because the shared machine slows a varying
// share of every run.  Every thread of a run shares one CPU
// (pin_to_one_cpu).  Prints one JSON object on stdout.
#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/common/thread_pool.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/invocation.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/protocol/select.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/tcp.hpp"

// ------------------------------------------------- allocation counting
// Counts every operator new in the process while armed (untraced rounds
// of a traced run): orb.allocs_per_call.  GCC cannot see that these
// replacements pair malloc with free, hence the pragma.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

using namespace ohpx;
using scenario::EchoPointer;
using scenario::EchoServant;

enum class Workload { ping_shm, rpc_glue_tcp, pipeline_glue_tcp, migrate_nexus };

constexpr int kWarmupCalls = 200;
constexpr std::size_t kWindow = 64;             // pipeline_glue_tcp
constexpr std::size_t kBigElems = 64u << 10;    // 256 KiB echo
constexpr std::size_t kKibElems = 256;          // 1 KiB echo
constexpr std::size_t kMaxEchoElems = 16u << 10;
constexpr double kAccountingTolerancePct = 15.0;
constexpr std::size_t kLayerKeep = 5000;  // self-time samples per layer per round
// Untraced end-to-end figures are means over the fastest twentieth of the
// measured phases' slices of equal work (Slicer, fastest_slices).
constexpr std::int64_t kSliceNs = 50'000'000;
constexpr double kSliceShare = 1.0 / 20;

// ------------------------------------------------------------ helpers

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// percentile() in place, in linear time: reorders `v`.
double select_percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double x = static_cast<double>(v[lo]);
  if (lo + 1 == v.size()) return x;
  const double hi = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  return x + (hi - x) * (pos - static_cast<double>(lo));
}

template <typename T>
std::vector<double> as_double(const std::vector<T>& v) {
  return std::vector<double>(v.begin(), v.end());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

long status_field_kb(const std::string& field) {
  std::istringstream in(read_file("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

std::map<int, std::int64_t> thread_cpu_ns() {
  std::map<int, std::int64_t> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const int tid = std::atoi(e->d_name);
    const std::string s =
        read_file(std::string("/proc/self/task/") + e->d_name + "/schedstat");
    if (!s.empty()) out[tid] = std::strtoll(s.c_str(), nullptr, 10);
  }
  ::closedir(dir);
  return out;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ------------------------------------------------------------ inputs

// Everything the workloads send, generated from --seed before any world
// exists; the program under test sees only these values.
struct Inputs {
  std::vector<std::vector<std::int32_t>> arrays;  // rpc_glue_tcp echoes
  std::vector<std::uint8_t> big_at;               // pipeline: 256 KiB slot
  std::vector<std::int32_t> big;
  std::vector<std::uint8_t> echo_at;              // migrate: 1 KiB slot
  std::vector<std::int32_t> kib;
  std::vector<int> migrate_after;  // calls between moves; sums to echo_at's size
};

Inputs make_inputs(Workload w, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
  };
  auto fill = [&rng](std::size_t n) {
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = static_cast<std::int32_t>(rng());
    return v;
  };
  // Draws are stratified (one per equal slice of the distribution, then
  // shuffled) and shares are exact, so seeds differ in which inputs come
  // when, not in how much work a run carries.
  auto stratified = [&](std::size_t n) {
    std::vector<double> u(n);
    for (std::size_t i = 0; i < n; ++i) {
      u[i] = (static_cast<double>(i) + unit()) / static_cast<double>(n);
    }
    std::shuffle(u.begin(), u.end(), rng);
    return u;
  };
  auto exact_share = [&](std::size_t n, std::size_t hits) {
    std::vector<std::uint8_t> at(n, 0);
    std::fill(at.begin(), at.begin() + static_cast<std::ptrdiff_t>(hits), 1);
    std::shuffle(at.begin(), at.end(), rng);
    return at;
  };
  Inputs in;
  switch (w) {
    case Workload::ping_shm:
      break;
    case Workload::rpc_glue_tcp:
      // Log-uniform sizes, 1 .. 16 Ki elements (4 B .. 64 KiB).
      for (double u : stratified(512)) {
        const double e = u * std::log(static_cast<double>(kMaxEchoElems));
        const auto n = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::exp(e)), 1, kMaxEchoElems);
        in.arrays.push_back(fill(n));
      }
      break;
    case Workload::pipeline_glue_tcp:
      // 1% of the calls: every hundredth, from a seeded offset.  The big
      // echoes' head-of-line blocking depends on how close they come to
      // each other, so their spacing is fixed: shuffled over 800 calls
      // they bunched differently per seed and moved p50_us by up to 1.7x
      // from seed to seed, and one per hundred at seeded places still
      // moved p99_us by 1.5x.
      in.big = fill(kBigElems);
      in.big_at.assign(100, 0);
      in.big_at[rng() % 100] = 1;
      break;
    case Workload::migrate_nexus: {
      // 16 moves per period of the call sequence, so the object is home
      // again at its end: eight stays at home and eight away, the away
      // lengths a shuffle of the home ones, so every seed spends half its
      // calls at each end.  Echoes are half of each period.
      in.kib = fill(kKibElems);
      std::vector<int> home;
      for (double u : stratified(8)) home.push_back(50 + static_cast<int>(u * 451.0));
      std::vector<int> away = home;
      std::shuffle(away.begin(), away.end(), rng);
      std::size_t period = 0;
      for (std::size_t i = 0; i < home.size(); ++i) {
        in.migrate_after.push_back(home[i]);
        in.migrate_after.push_back(away[i]);
        period += static_cast<std::size_t>(home[i] + away[i]);
      }
      in.echo_at = exact_share(period, period / 2);
      break;
    }
  }
  return in;
}

// ------------------------------------------------------------ rounds

// Uniform sample of at most kCap latencies per round (algorithm R), so
// the benchmark's own memory stays flat however fast the workload runs.
class Reservoir {
 public:
  static constexpr std::size_t kCap = 50'000;
  void add(double x) {
    ++seen_;
    if (v_.size() < kCap) {
      v_.push_back(x);
      return;
    }
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t j = state_ % seen_;
    if (j < kCap) v_[j] = x;
  }
  const std::vector<double>& values() const noexcept { return v_; }

 private:
  std::vector<double> v_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

// One slice of a measured phase (Slicer).
struct Slice {
  double s = 0;
  double calls = 0;
  double bytes = 0;
  double cpu_ns = 0;
  double p50_ns = 0, p99_ns = 0;
};

struct RoundStats {
  bool traced = false;
  std::vector<Slice> slices;
  double setup_s = 0;
  double measure_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // threw, or answered wrongly
  std::uint64_t wrong = 0;   // answered wrongly
  std::vector<std::string> problems;
  Reservoir lat;  // dropped once the round's percentiles are taken
  double p50_ns = 0, p99_ns = 0;
  std::vector<float> lat_kept;  // evenly strided subset, pooled across rounds
  std::uint64_t bytes = 0;
  double cpu_ns = 0;
  long threads_peak = 0;
  std::vector<double> migrate_us;
  std::vector<double> pool_pending;
  std::uint64_t allocs = 0;
  // metrics-registry deltas over the measured phase
  std::map<std::string, std::uint64_t> counters;
  // per-thread CPU over the measured phase, by class
  double cpu_client_ns = 0, cpu_new_threads_ns = 0, cpu_other_ns = 0;
  // traced rounds
  std::int64_t e2e_adj_sum = 0;
  std::int64_t submit_end_sum = 0;  // async, relative to recorder base
  std::int64_t settle_sum = 0;      // async, relative to recorder base
  std::int64_t excluded_sum = 0;
  std::uint64_t rec_attempts = 0;
  std::int64_t outer_entry_sum = 0, outer_exit_sum = 0;
  std::vector<std::int64_t> samples[kLayerCount];  // strided subset
  std::uint64_t counts[kLayerCount] = {};           // all spans
  std::int64_t sums[kLayerCount] = {};
  std::uint64_t cap_bytes = 0, wire_bytes = 0;
  // TCP listener threads: CPU inside root handle_frame spans and in the
  // listener loop between them (layers.hpp)
  std::int64_t handle_frame_cpu_ns = 0, listener_cpu_ns = 0;
  std::uint64_t handle_frames = 0, listener_gaps = 0;
};

constexpr std::size_t kLatKeep = 2048;  // latencies kept per round

// Cuts a measured phase into slices of equal work: each slice is at least
// kSliceNs long and holds whole periods of the workload's input sequence
// (it starts and ends where the input index reaches a multiple of
// `period`), so every slice carries the same mix of calls and slices
// differ only in how fast they ran.  The open slice's latencies are all
// kept, in `lat` (the caller appends to it; one buffer serves every slice
// and round); a slice's percentiles are taken when it closes, outside its
// own timed stretch.  What is left at the end of the phase is in no slice.
class Slicer {
 public:
  Slicer(RoundStats& st, std::vector<std::int64_t>& lat, std::uint64_t period)
      : st_(st), lat_(lat), period_(period) {}
  // Before the call with input index `step`; `now` is the caller's clock
  // read, the end of the open slice if it is due.
  void tick(std::int64_t now, std::uint64_t step) {
    if (step < mark_) return;
    mark_ = (step / period_ + 1) * period_;
    if (!open_) {
      open();
    } else if (now >= t0_ + kSliceNs) {
      close(now);
      open();
    }
  }

 private:
  void open() {
    open_ = true;
    lat_.clear();
    calls0_ = st_.completed;
    bytes0_ = st_.bytes;
    cpu0_ = process_cpu_ns();
    t0_ = now_ns();
  }
  void close(std::int64_t now) {
    Slice s;
    s.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0_);
    s.s = static_cast<double>(now - t0_) / 1e9;
    s.calls = static_cast<double>(st_.completed - calls0_);
    s.bytes = static_cast<double>(st_.bytes - bytes0_);
    s.p99_ns = select_percentile(lat_, 0.99);
    s.p50_ns = select_percentile(lat_, 0.50);
    if (s.calls > 0) st_.slices.push_back(s);
  }

  RoundStats& st_;
  std::vector<std::int64_t>& lat_;
  const std::uint64_t period_;
  std::uint64_t mark_ = 0;  // the next input index that ends a period
  bool open_ = false;
  std::int64_t t0_ = 0, cpu0_ = 0;
  std::uint64_t calls0_ = 0, bytes0_ = 0;
};

const char* const kCounters[] = {
    metrics::names::kRmiCalls,          metrics::names::kRmiRetries,
    metrics::names::kRmiSelectCacheHit, metrics::names::kRmiSelectCacheMiss,
    metrics::names::kReactorFrames,     metrics::names::kReactorBatches,
    metrics::names::kReactorBackpressure, metrics::names::kReactorReconnects};

std::map<std::string, std::uint64_t> read_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters) {
    out[name] = metrics::MetricsRegistry::global().counter(name);
  }
  return out;
}

class Bench {
 public:
  // `hooks`: the run is traced, so worlds are built with the hooks in
  // place (install_timed_factories has run).
  Bench(Workload w, std::uint64_t seed, bool hooks)
      : w_(w), in_(make_inputs(w, seed)), hooks_(hooks) {}

  RoundStats run_round(double seconds, bool traced, bool count_allocs);
  void set_servant_delay(std::int64_t ns) { delay_ns_ = ns; }

 private:
  // One world: rebuilt per round.  Member order is teardown order
  // reversed: the pointer and the benchmark listener go before the world.
  struct Fixture {
    std::unique_ptr<runtime::World> world;
    orb::Context* server = nullptr;
    orb::Context* client = nullptr;
    orb::Context* away = nullptr;  // migrate_nexus: the other-LAN context
    std::shared_ptr<BenchServant> servant;
    orb::ObjectRef ref;
    std::unique_ptr<transport::TcpListener> listener;
    EchoPointer gp;
    std::unique_ptr<orb::CallCore> select_core;
    std::vector<proto::ProtocolPtr> candidates;
    bool at_home = true;
  };

  void build(Fixture& f);
  void sync_call(Fixture& f, RoundStats& st, bool traced);
  void replay_select(Fixture& f, RoundStats& st);
  void migrate(Fixture& f, RoundStats& st);
  void move_if_due(Fixture& f, RoundStats& st);
  void run_sync(Fixture& f, RoundStats& st, std::int64_t end, bool traced);
  void run_pipeline(Fixture& f, RoundStats& st, std::int64_t end,
                    bool traced);
  void check_ping(std::uint64_t got, RoundStats& st);
  void warm_call(Fixture& f, RoundStats& warm);
  std::uint64_t input_period() const;

  Workload w_;
  Inputs in_;
  bool hooks_;
  std::int64_t delay_ns_ = 0;  // servant delay, sensitivity self-test only
  std::uint64_t step_ = 0;       // index into the seeded input sequences
  std::uint64_t next_ping_ = 1;  // sync ping counts must rise by one
  std::size_t migrations_done_ = 0;
  int calls_since_move_ = 0;
  std::int64_t next_thread_sample_ = 0;
  std::int64_t threads_peak_ = 0;
  std::vector<std::int64_t> slice_lat_;  // the open slice's latencies
};

void Bench::build(Fixture& f) {
  f.world = std::make_unique<runtime::World>();
  runtime::World& world = *f.world;
  const auto lan1 = world.add_lan("lan-1");
  const auto lan2 = world.add_lan("lan-2");
  const auto m_server = world.add_machine("server-box", lan1);
  const auto m_far = world.add_machine("far-box", lan2);
  // Server-side capabilities; the client's come from the registry.
  cap::CapabilityPtr auth = std::make_shared<cap::AuthenticationCapability>(
      crypto::Key128::from_seed(0xbe7c), "perfbench", cap::Scope::cross_lan);
  if (hooks_) auth = std::make_shared<TimedCapability>(std::move(auth));
  f.servant = std::make_shared<BenchServant>(delay_ns_);

  switch (w_) {
    case Workload::ping_shm:
      // Figure 3 table; client and server share a machine, so shm wins
      // and the cross-LAN glue is skipped.
      f.server = &world.create_context(m_server);
      f.client = &world.create_context(m_server);
      f.ref = orb::RefBuilder(*f.server, f.servant)
                  .glue({auth}, "nexus-tcp")
                  .shm()
                  .nexus()
                  .build();
      break;
    case Workload::rpc_glue_tcp:
    case Workload::pipeline_glue_tcp: {
      f.server = &world.create_context(m_server);
      f.client = &world.create_context(m_far);
      f.server->enable_tcp();
      std::vector<cap::CapabilityPtr> chain{auth};
      if (w_ == Workload::rpc_glue_tcp) {
        cap::CapabilityPtr enc = std::make_shared<cap::EncryptionCapability>(
            crypto::Key128::from_seed(0xe4c), cap::Scope::always);
        if (hooks_) enc = std::make_shared<TimedCapability>(std::move(enc));
        chain.push_back(std::move(enc));
      }
      f.ref = orb::RefBuilder(*f.server, f.servant).glue(chain, "tcp").build();
      break;
    }
    case Workload::migrate_nexus: {
      // The object moves between a context on the client's machine (shm)
      // and one on another LAN (glue[auth]->nexus-tcp).
      f.client = &world.create_context(m_server);
      f.server = &world.create_context(m_server);
      f.away = &world.create_context(m_far);
      f.ref = orb::RefBuilder(*f.server, f.servant)
                  .glue({auth}, "nexus-tcp")
                  .shm()
                  .nexus()
                  .build();
      break;
    }
  }

  if (hooks_) {
    // server.dispatch hook: in-process bearers reach the context through
    // its endpoint; TCP reaches it through a benchmark-owned listener
    // that the object's location is republished to.
    for (orb::Context* ctx : {f.server, f.away}) {
      if (ctx == nullptr) continue;
      transport::EndpointRegistry::instance().bind(
          ctx->endpoint_name(), [ctx](const wire::Buffer& frame) {
            return timed_handle_frame(*ctx, frame);
          });
    }
    if (f.server->tcp_enabled()) {
      orb::Context* ctx = f.server;
      f.listener = std::make_unique<transport::TcpListener>(
          "127.0.0.1", 0, [ctx](const wire::Buffer& frame) {
            return timed_handle_frame(*ctx, frame);
          });
      proto::ServerAddress address = ctx->current_address();
      address.tcp_port = f.listener->port();
      world.location().publish(f.ref.object_id(), address);
    }
    f.select_core = std::make_unique<orb::CallCore>(*f.client, f.ref);
    f.candidates = proto::ProtocolRegistry::instance().instantiate_table(
        f.ref.table());
  }
  f.gp = EchoPointer(*f.client, f.ref);
}

// Calls per period of the seeded input sequence: any whole period
// carries the same mix of calls.
std::uint64_t Bench::input_period() const {
  switch (w_) {
    case Workload::rpc_glue_tcp:
      return in_.arrays.size();
    case Workload::pipeline_glue_tcp:
      return in_.big_at.size();
    case Workload::migrate_nexus:
      return in_.echo_at.size();
    case Workload::ping_shm:
      break;
  }
  return 1;
}

void Bench::check_ping(std::uint64_t got, RoundStats& st) {
  if (got != next_ping_) {
    ++st.wrong;
    ++st.failed;
    if (st.problems.size() < 5) {
      st.problems.push_back("ping count " + std::to_string(got) +
                            ", expected " + std::to_string(next_ping_));
    }
  }
  next_ping_ = got + 1;
}

// One untimed call of the workload (the async workload warms up with
// sync pings over the same connection).
void Bench::warm_call(Fixture& f, RoundStats& warm) {
  if (w_ != Workload::pipeline_glue_tcp) {
    sync_call(f, warm, false);
    return;
  }
  ++warm.attempted;
  try {
    check_ping(f.gp->ping(), warm);
    ++warm.completed;
  } catch (const std::exception& e) {
    ++warm.failed;
    warm.problems.push_back(e.what());
  }
}

void Bench::migrate(Fixture& f, RoundStats& st) {
  orb::Context& from = f.at_home ? *f.server : *f.away;
  orb::Context& to = f.at_home ? *f.away : *f.server;
  const std::int64_t t0 = now_ns();
  runtime::migrate_shared(f.ref.object_id(), from, to);
  st.migrate_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  f.at_home = !f.at_home;
  calls_since_move_ = 0;
  ++migrations_done_;
}

// migrate_nexus: the move the seeded schedule puts before the next call.
void Bench::move_if_due(Fixture& f, RoundStats& st) {
  if (w_ == Workload::migrate_nexus &&
      calls_since_move_ >=
          in_.migrate_after[migrations_done_ % in_.migrate_after.size()]) {
    migrate(f, st);
  }
}

// One synchronous call of the workload's seeded sequence, timed and
// checked.  Throws nothing: failures are counted.
void Bench::sync_call(Fixture& f, RoundStats& st, bool traced) {
  move_if_due(f, st);
  const std::uint64_t i = step_++;
  ++st.attempted;
  ++calls_since_move_;
  bool ping = true;
  const std::vector<std::int32_t>* args = nullptr;
  if (w_ == Workload::rpc_glue_tcp) {
    args = &in_.arrays[i % in_.arrays.size()];
    ping = false;
  } else if (w_ == Workload::migrate_nexus &&
             in_.echo_at[i % in_.echo_at.size()] != 0) {
    args = &in_.kib;
    ping = false;
  }
  std::uint64_t pinged = 0;
  std::vector<std::int32_t> echoed;
  std::int64_t lat = 0;
  try {
    if (traced) {
      SpanGuard span;
      if (ping) {
        pinged = f.gp->ping();
      } else {
        echoed = f.gp->echo(*args);
      }
      const Closed c = span.close();
      recorder().record(kOrb, c.self);
      lat = c.dur - c.excluded;
      st.e2e_adj_sum += lat;
    } else {
      const std::int64_t t0 = now_ns();
      if (ping) {
        pinged = f.gp->ping();
      } else {
        echoed = f.gp->echo(*args);
      }
      lat = now_ns() - t0;
    }
  } catch (const std::exception& e) {
    ++st.failed;
    if (st.problems.size() < 5) st.problems.push_back(e.what());
    return;
  }
  ++st.completed;
  st.lat.add(static_cast<double>(lat));
  slice_lat_.push_back(lat);
  if (ping) {
    st.bytes += sizeof(std::uint64_t);
    check_ping(pinged, st);
  } else {
    st.bytes += 2 * args->size() * sizeof(std::int32_t);
    if (echoed != *args) {
      ++st.wrong;
      ++st.failed;
      if (st.problems.size() < 5) st.problems.push_back("echo mismatch");
    }
  }
  if (traced) replay_select(f, st);
}

// Selection replay, after a traced call: a full first-match scan of the
// reference's table on the live target.
void Bench::replay_select(Fixture& f, RoundStats& st) {
  const proto::CallTarget target = f.select_core->resolve_target();
  const std::int64_t t0 = now_ns();
  proto::Protocol* p =
      proto::select_protocol(f.candidates, f.client->pool(), target);
  recorder().record(kSelect, now_ns() - t0);
  if (p == nullptr) {
    ++st.wrong;
    ++st.failed;
    st.problems.push_back("no protocol selectable");
  }
}

void sample_threads(std::int64_t& next, std::int64_t& peak) {
  const std::int64_t now = now_ns();
  if (now < next) return;
  next = now + 20'000'000;
  // Reading /proc allocates; that is the benchmark's, not the call's.
  const bool counting = g_count_allocs.exchange(false);
  peak = std::max<std::int64_t>(peak, status_field_kb("Threads"));
  g_count_allocs.store(counting);
}

void Bench::run_sync(Fixture& f, RoundStats& st, std::int64_t end,
                     bool traced) {
  Slicer slicer(st, slice_lat_, input_period());
  while (true) {
    // A move due before the first call of a period ends the period it
    // closes, so every slice holds the same moves.
    move_if_due(f, st);
    const std::int64_t now = now_ns();
    if (now >= end) break;
    slicer.tick(now, step_);
    sync_call(f, st, traced);
    sample_threads(next_thread_sample_, threads_peak_);
  }
}

// Window-64 closed loop of call_async pings with seeded 256 KiB echoes;
// one generator thread, completions handed back through a queue.
void Bench::run_pipeline(Fixture& f, RoundStats& st, std::int64_t end,
                         bool traced) {
  struct Done {
    std::int64_t submit = 0;
    std::int64_t settle = 0;
    bool ok = false;
    bool big = false;
    std::uint64_t ping = 0;
    std::vector<std::int32_t> echoed;
    std::string error;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Done> done;
  std::size_t inflight = 0;
  std::vector<std::uint64_t> pings;
  Recorder& rec = recorder();
  Slicer slicer(st, slice_lat_, input_period());

  auto finish = [&](Done d) {
    d.settle = now_ns();
    std::lock_guard<std::mutex> lock(mu);
    done.push_back(std::move(d));
    cv.notify_one();
  };

  while (true) {
    // Slices end between batches, at the first after the input index
    // passed a multiple of the period: with 64 calls in flight, slices
    // carry equal work to within the window.
    if (const std::int64_t now = now_ns(); now < end) slicer.tick(now, step_);
    while (inflight < kWindow && now_ns() < end) {
      const std::uint64_t i = step_++;
      const bool big = in_.big_at[i % in_.big_at.size()] != 0;
      ++st.attempted;
      st.pool_pending.push_back(
          static_cast<double>(ThreadPool::shared().pending()));
      Done d;
      d.big = big;
      d.submit = now_ns();
      try {
        std::optional<SpanGuard> span;
        if (traced) span.emplace();
        if (big) {
          auto fut = f.gp->call_async<std::vector<std::int32_t>>(
              EchoServant::kEcho, in_.big);
          if (span) rec.record(kOrb, span->close().self);
          st.submit_end_sum += now_ns() - rec.base_ns;
          fut.on_ready([d, &finish](Future<std::vector<std::int32_t>> r) mutable {
            try {
              d.echoed = r.get();
              d.ok = true;
            } catch (const std::exception& e) {
              d.error = e.what();
            }
            finish(std::move(d));
          });
        } else {
          auto fut = f.gp->call_async<std::uint64_t>(EchoServant::kPing);
          if (span) rec.record(kOrb, span->close().self);
          st.submit_end_sum += now_ns() - rec.base_ns;
          fut.on_ready([d, &finish](Future<std::uint64_t> r) mutable {
            try {
              d.ping = r.get();
              d.ok = true;
            } catch (const std::exception& e) {
              d.error = e.what();
            }
            finish(std::move(d));
          });
        }
        ++inflight;
        if (traced) replay_select(f, st);
      } catch (const std::exception& e) {
        ++st.failed;
        if (st.problems.size() < 5) st.problems.push_back(e.what());
      }
      sample_threads(next_thread_sample_, threads_peak_);
    }
    if (inflight == 0) break;
    std::deque<Done> batch;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (Done& d : batch) {
      --inflight;
      if (!d.ok) {
        ++st.failed;
        if (st.problems.size() < 5) st.problems.push_back(d.error);
        continue;
      }
      ++st.completed;
      st.lat.add(static_cast<double>(d.settle - d.submit));
      slice_lat_.push_back(d.settle - d.submit);
      if (traced) {
        st.e2e_adj_sum += d.settle - d.submit;
        st.settle_sum += d.settle - rec.base_ns;
      }
      if (d.big) {
        st.bytes += 2 * in_.big.size() * sizeof(std::int32_t);
        if (d.echoed != in_.big) {
          ++st.wrong;
          ++st.failed;
          if (st.problems.size() < 5) st.problems.push_back("echo mismatch");
        }
      } else {
        st.bytes += sizeof(std::uint64_t);
        pings.push_back(d.ping);
      }
    }
  }
  // Async pings settle out of order: together they must be exactly the
  // next run of counts, with no gap and no repeat.
  std::sort(pings.begin(), pings.end());
  for (std::uint64_t p : pings) check_ping(p, st);
}

RoundStats Bench::run_round(double seconds, bool traced, bool count_allocs) {
  RoundStats st;
  st.traced = traced;
  Recorder& rec = recorder();
  const std::set<int> tids_before = [] {
    std::set<int> s;
    for (const auto& [tid, ns] : thread_cpu_ns()) s.insert(tid);
    return s;
  }();
  const int self_tid = static_cast<int>(::gettid());

  // ---- set-up: world, contexts, listeners, first connection, warm-up.
  const std::int64_t s0 = now_ns();
  Fixture f;
  build(f);
  // The null listener the TCP transport replays use starts here rather
  // than inside the first measured call.
  if (hooks_ && f.server->tcp_enabled()) (void)null_tcp_port();
  f.at_home = true;
  const bool pipelined = w_ == Workload::pipeline_glue_tcp;
  RoundStats warm;
  next_ping_ = 1;
  calls_since_move_ = 0;
  for (int i = 0; i < kWarmupCalls; ++i) warm_call(f, warm);
  if (w_ == Workload::migrate_nexus && f.at_home) migrate(f, warm);
  if (w_ == Workload::migrate_nexus) {
    for (int i = 0; i < 50; ++i) sync_call(f, warm, false);
    migrate(f, warm);  // back home before measuring
  }
  st.setup_s = static_cast<double>(now_ns() - s0) / 1e9;
  st.failed += warm.failed;
  st.wrong += warm.wrong;
  st.attempted += warm.attempted;
  for (auto& p : warm.problems) st.problems.push_back("warm-up: " + p);
  const std::uint64_t warm_dispatches = f.servant->dispatches();
  // Slices start at a period of the inputs, with the object at home.
  step_ = 0;
  migrations_done_ = 0;

  // ---- measured phase.
  const auto counters0 = read_counters();
  const auto threads0 = thread_cpu_ns();
  if (traced) {
    rec.clear();
    rec.on.store(true);
  }
  if (count_allocs) {
    g_allocs.store(0);
    g_count_allocs.store(true);
  }
  next_thread_sample_ = 0;
  threads_peak_ = 0;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint64_t completed_before = st.completed;
  if (pipelined) {
    run_pipeline(f, st, end, traced);
  } else {
    run_sync(f, st, end, traced);
  }
  st.measure_s = static_cast<double>(now_ns() - t0) / 1e9;
  st.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0);
  g_count_allocs.store(false);
  st.allocs = g_allocs.load();
  if (traced) rec.on.store(false);
  const auto threads1 = thread_cpu_ns();
  const auto counters1 = read_counters();
  for (const auto& [name, v] : counters1) st.counters[name] = v - counters0.at(name);
  st.threads_peak = std::max<long>(threads_peak_, status_field_kb("Threads"));
  for (const auto& [tid, ns] : threads1) {
    const auto it = threads0.find(tid);
    const double d = static_cast<double>(ns - (it == threads0.end() ? 0 : it->second));
    if (tid == self_tid) {
      st.cpu_client_ns += d;
    } else if (tids_before.count(tid) == 0) {
      st.cpu_new_threads_ns += d;
    } else {
      st.cpu_other_ns += d;
    }
  }

  // ---- servant-side count against the client's completions.
  const std::uint64_t measured_calls = st.completed - completed_before;
  const std::uint64_t servant_calls = f.servant->dispatches() - warm_dispatches;
  if (servant_calls != measured_calls) {
    ++st.wrong;
    ++st.failed;
    st.problems.push_back("servant dispatched " +
                          std::to_string(servant_calls) +
                          " calls, client completed " +
                          std::to_string(measured_calls));
  }

  // Keep the round's summary, not its samples: a run has dozens of rounds.
  const std::vector<double>& lat = st.lat.values();
  st.p50_ns = percentile(lat, 0.50);
  st.p99_ns = percentile(lat, 0.99);
  const std::size_t stride = lat.size() / kLatKeep + 1;
  for (std::size_t i = 0; i < lat.size(); i += stride) {
    st.lat_kept.push_back(static_cast<float>(lat[i]));
  }
  st.lat = Reservoir();
  if (traced) {
    std::lock_guard<std::mutex> lock(rec.mu);
    for (int l = 0; l < kLayerCount; ++l) {
      // An evenly strided subset of at most kLayerKeep spans per layer.
      const std::vector<std::int64_t>& all = rec.samples[l];
      const std::size_t stride = all.size() / kLayerKeep + 1;
      for (std::size_t i = 0; i < all.size(); i += stride) {
        st.samples[l].push_back(all[i]);
      }
      st.counts[l] = all.size();
      st.sums[l] = rec.sums[l];
    }
    st.cap_bytes = rec.cap_bytes;
    st.wire_bytes = rec.wire_bytes;
    st.excluded_sum = rec.excluded.load();
    st.rec_attempts = rec.attempts.load();
    st.outer_entry_sum = rec.outer_entry_sum.load();
    st.outer_exit_sum = rec.outer_exit_sum.load();
    st.handle_frame_cpu_ns = rec.root_handle_cpu_sum.load();
    st.handle_frames = rec.root_handle_count.load();
    st.listener_cpu_ns = rec.listener_cpu_sum.load();
    st.listener_gaps = rec.listener_gaps.load();
  }
  return st;
}

// ------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void detail(const std::string& key, const std::string& json) {
    details_.emplace_back(key, json);
  }
  std::string metrics_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " +
             num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    return out + "}";
  }
  std::string details_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < details_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + details_[i].first + "\": " + details_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
};

// Pins the calling thread, and so every thread started after it, to the
// CPU it runs on; returns that CPU, or -1.  On a shared host a call that
// hands off between threads on different CPUs waits for the host to wake
// an idle virtual CPU, and that wait follows the other tenants' load: on
// a 4-vCPU guest rpc_glue_tcp's calls_per_s drifted 10-20% across runs
// minutes apart unpinned and ~1% pinned.
int pin_to_one_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
  }
  return out;
}

std::string loadavg() {
  std::istringstream in(read_file("/proc/loadavg"));
  std::string a, b, c;
  in >> a >> b >> c;
  return "[" + a + ", " + b + ", " + c + "]";
}

double p50_of(const std::vector<std::int64_t>& v) {
  return percentile(as_double(v), 0.5);
}

// The TCP listener grows its input buffer by 256 KiB before every recv
// (transport/tcp.cpp), which zero-fills it.  Replayed here on a reused
// vector, the way the listener reuses its own, to set beside the measured
// listener-loop CPU per call.
double zero_fill_replay_us() {
  std::vector<std::uint8_t> buf;
  std::vector<double> t;
  for (int i = 0; i < 201; ++i) {
    buf.clear();
    const std::int64_t t0 = now_ns();
    buf.resize(256u << 10);
    asm volatile("" : : "r"(buf.data()) : "memory");
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(t) / 1e3;
}

std::uint64_t sum_counter(const std::vector<const RoundStats*>& rounds,
                          const std::string& name) {
  std::uint64_t total = 0;
  for (const RoundStats* r : rounds) total += r->counters.at(name);
  return total;
}

// The mean of the best quarter of the per-round values: the lowest times,
// the highest rates.
double good_side(std::vector<double> per_round, bool lower_is_better) {
  if (per_round.empty()) return 0.0;
  std::sort(per_round.begin(), per_round.end());
  if (!lower_is_better) std::reverse(per_round.begin(), per_round.end());
  const std::size_t k = std::max<std::size_t>(1, per_round.size() / 4);
  double total = 0;
  for (std::size_t i = 0; i < k; ++i) total += per_round[i];
  return total / static_cast<double>(k);
}

// The fastest twentieth of the slices, by calls per second.  Slices carry
// equal work (Slicer), so the fastest are those the shared machine
// disturbed least.  Other tenants' work slows clock reads, atomics, locks
// and allocation, and on a 4-vCPU guest it comes as a continuum rather
// than in clean episodes: within one run 50 ms slices of ping_shm range
// over ~1.75x, and the share of a run that is slowed changes from minute
// to minute.  A median over the slices follows that share (ping_shm
// calls_per_s spread 0.13-0.28 across five seeds); the fastest twentieth
// tracks the program's own speed (spread 0.03-0.04).  Every end-to-end
// time and rate is the mean over these same slices, so the figures of one
// run describe the same stretches of it.  The price: a regression that
// shows in only some slices (a periodic stall, a lock convoy every few
// seconds) is invisible, p99_us included; the result's medians over all
// slices and p99_us_pooled, over every round's latencies, see one, but
// the machine's own load makes them too unsteady for a bound.
std::vector<const Slice*> fastest_slices(const std::vector<RoundStats>& rounds) {
  std::vector<const Slice*> all;
  for (const auto& r : rounds) {
    for (const Slice& s : r.slices) all.push_back(&s);
  }
  std::sort(all.begin(), all.end(), [](const Slice* a, const Slice* b) {
    return a->calls / a->s > b->calls / b->s;
  });
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(kSliceShare * static_cast<double>(all.size())));
  all.resize(std::min(k, all.size()));
  return all;
}

void end_to_end(Report& rep, const std::vector<RoundStats>& rounds) {
  std::vector<double> setup, round_p99, pooled, rate, p50;
  std::size_t slices = 0;
  long threads = 0;
  for (const auto& r : rounds) {
    setup.push_back(r.setup_s);
    round_p99.push_back(r.p99_ns / 1e3);
    pooled.insert(pooled.end(), r.lat_kept.begin(), r.lat_kept.end());
    threads = std::max(threads, r.threads_peak);
    for (const Slice& s : r.slices) {
      rate.push_back(s.calls / s.s);
      p50.push_back(s.p50_ns / 1e3);
    }
    slices += r.slices.size();
  }
  // Means over the fastest slices.
  double f_rate = 0, f_mbps = 0, f_cpu = 0, f_p50 = 0, f_p99 = 0, samples = 0;
  const std::vector<const Slice*> fastest = fastest_slices(rounds);
  for (const Slice* s : fastest) {
    f_rate += s->calls / s->s;
    f_mbps += s->bytes / s->s / 1e6;
    f_cpu += s->cpu_ns / s->calls / 1e3;
    f_p50 += s->p50_ns / 1e3;
    f_p99 += s->p99_ns / 1e3;
    samples = samples == 0 ? s->calls : std::min(samples, s->calls);
  }
  const double n = static_cast<double>(std::max<std::size_t>(fastest.size(), 1));
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }
  rep.add("setup_s", good_side(setup, true), "s");
  rep.add("calls_per_s", f_rate / n, "1/s");
  rep.add("p50_us", f_p50 / n, "us");
  rep.add("p99_us", f_p99 / n, "us");
  rep.add("mb_per_s", f_mbps / n, "MB/s");
  rep.add("cpu_us_per_call", f_cpu / n, "us");
  rep.add("ok_ratio",
          1.0 - static_cast<double>(failed) /
                    static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
          "ratio");
  rep.add("threads_peak", static_cast<double>(threads), "count");
  rep.add("peak_rss_mb", static_cast<double>(status_field_kb("VmHWM")) / 1024.0,
          "MB");
  rep.detail("rounds", std::to_string(rounds.size()));
  rep.detail("slices", std::to_string(slices));
  rep.detail("slices_used", std::to_string(fastest.size()));
  rep.detail("p99_samples_per_slice_min", num(samples));
  rep.detail("setup_s_median", num(median(setup)));
  // What the fastest slices leave out: the medians over all slices, p99
  // over the latencies of every round, the median of the per-round p99s.
  rep.detail("calls_per_s_slice_median", num(median(rate)));
  rep.detail("p50_us_slice_median", num(median(p50)));
  rep.detail("p99_us_pooled", num(percentile(pooled, 0.99) / 1e3));
  rep.detail("p99_us_round_median", num(median(round_p99)));
  rep.detail("failed_ratio",
             num(static_cast<double>(failed) /
                 static_cast<double>(std::max<std::uint64_t>(attempted, 1))));
}

// Per-layer metrics from the alternating untraced (U) / traced (T) rounds.
// Returns whether the layer self-checks hold.
bool per_layer(Report& rep, Workload w, const std::vector<RoundStats>& rounds) {
  std::vector<const RoundStats*> u, t;
  for (const auto& r : rounds) (r.traced ? t : u).push_back(&r);
  const bool async = w == Workload::pipeline_glue_tcp;

  std::vector<std::int64_t> s[kLayerCount];
  std::int64_t sums[kLayerCount] = {};
  std::uint64_t counts[kLayerCount] = {};
  std::uint64_t cap_bytes = 0, wire_bytes = 0, t_calls = 0, t_failed = 0,
                t_wrong = 0, rec_attempts = 0, handle_frames = 0,
                listener_gaps = 0;
  std::int64_t e2e_sum = 0, excluded = 0, entry = 0, exit_sum = 0,
               submit_end = 0, settle = 0, handle_frame_cpu = 0,
               listener_cpu = 0;
  std::vector<double> t_p50, u_p50;
  for (const RoundStats* r : t) {
    for (int l = 0; l < kLayerCount; ++l) {
      s[l].insert(s[l].end(), r->samples[l].begin(), r->samples[l].end());
      sums[l] += r->sums[l];
      counts[l] += r->counts[l];
    }
    cap_bytes += r->cap_bytes;
    wire_bytes += r->wire_bytes;
    t_calls += r->completed;
    t_failed += r->failed;
    t_wrong += r->wrong;
    rec_attempts += r->rec_attempts;
    e2e_sum += r->e2e_adj_sum;
    excluded += r->excluded_sum;
    entry += r->outer_entry_sum;
    exit_sum += r->outer_exit_sum;
    submit_end += r->submit_end_sum;
    settle += r->settle_sum;
    handle_frame_cpu += r->handle_frame_cpu_ns;
    handle_frames += r->handle_frames;
    listener_cpu += r->listener_cpu_ns;
    listener_gaps += r->listener_gaps;
    double p = r->p50_ns;
    // Async latencies still hold the replays the pool threads ran.
    if (async && r->completed > 0) {
      p -= static_cast<double>(r->excluded_sum) /
           static_cast<double>(r->completed);
    }
    t_p50.push_back(p);
  }
  for (const RoundStats* r : u) u_p50.push_back(r->p50_ns);
  const double n = static_cast<double>(std::max<std::uint64_t>(t_calls, 1));

  // Async calls: the submit span on the generator is recorded as orb; the
  // settle tail (bearer exit to future settlement) is orb too, and the
  // gap between submit and bearer entry is the pool's queue wait.
  double tail_mean = 0, wait_mean = 0;
  if (async) {
    tail_mean = static_cast<double>(settle - exit_sum) / n;
    wait_mean = static_cast<double>(entry - submit_end) / n;
    sums[kOrb] += settle - exit_sum;
    sums[kPoolWait] += entry - submit_end;
  }

  std::uint64_t u_calls = 0, u_allocs = 0, split_calls = 0;
  double cpu_client = 0, cpu_server = 0, cpu_other = 0;
  std::vector<double> pending, migrate_us;
  for (const RoundStats* r : u) {
    u_calls += r->completed;
    u_allocs += r->allocs;
    pending.insert(pending.end(), r->pool_pending.begin(), r->pool_pending.end());
    // The thread split skips the first round: threads the process starts
    // lazily (shared pool, reactor) are new in it, not server threads.
    if (r == u.front()) continue;
    split_calls += r->completed;
    cpu_client += r->cpu_client_ns;
    cpu_server += r->cpu_new_threads_ns;
    cpu_other += r->cpu_other_ns;
  }
  std::uint64_t migrations = 0;
  for (const auto& r : rounds) {
    migrate_us.insert(migrate_us.end(), r.migrate_us.begin(), r.migrate_us.end());
    migrations += r.migrate_us.size();
  }
  const double un = static_cast<double>(std::max<std::uint64_t>(u_calls, 1));
  const auto uc = [&](const char* name) {
    return static_cast<double>(sum_counter(u, name));
  };
  const double hits = uc(metrics::names::kRmiSelectCacheHit);
  const double misses = uc(metrics::names::kRmiSelectCacheMiss);
  const double batches = uc(metrics::names::kReactorBatches);
  const std::uint64_t t_retries = sum_counter(t, metrics::names::kRmiRetries);

  auto kib_rate = [](double ns, std::uint64_t bytes) {
    return bytes == 0 ? 0.0 : ns / (static_cast<double>(bytes) / 1024.0);
  };

  // A layer's self p50 is taken per traced round and reported like the
  // end-to-end times: the mean of the best quarter of the rounds.
  const auto self_p50 = [&t](Layer l) {
    std::vector<double> per_round;
    for (const RoundStats* r : t) {
      if (!r->samples[l].empty()) per_round.push_back(p50_of(r->samples[l]));
    }
    return good_side(per_round, true);
  };
  rep.add("orb.self_p50_ns", self_p50(kOrb) + tail_mean, "ns");
  rep.add("orb.allocs_per_call", static_cast<double>(u_allocs) / un, "count");
  rep.add("select.self_p50_ns", self_p50(kSelect), "ns");
  rep.add("select.cache_hit_ratio",
          hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
  rep.add("wire.encode.self_p50_ns", self_p50(kWireEncode), "ns");
  rep.add("wire.decode.self_p50_ns", self_p50(kWireDecode), "ns");
  rep.add("wire.ns_per_kib",
          kib_rate(static_cast<double>(sums[kWireEncode] + sums[kWireDecode]),
                   wire_bytes),
          "ns/KiB");
  rep.add("cap.process.self_p50_ns", self_p50(kCapProcess), "ns");
  rep.add("cap.unprocess.self_p50_ns", self_p50(kCapUnprocess), "ns");
  rep.add("cap.ns_per_kib",
          kib_rate(static_cast<double>(sums[kCapProcess] + sums[kCapUnprocess]),
                   cap_bytes),
          "ns/KiB");
  rep.add("proto.shm.self_p50_ns", self_p50(kProtoShm), "ns");
  rep.add("proto.nexus.self_p50_ns", self_p50(kProtoNexus), "ns");
  rep.add("proto.tcp.self_p50_ns", self_p50(kProtoTcp), "ns");
  rep.add("proto.glue.self_p50_ns", self_p50(kProtoGlue), "ns");
  rep.add("transport.self_p50_ns", self_p50(kTransport), "ns");
  rep.add("transport.self_p99_ns", percentile(as_double(s[kTransport]), 0.99),
          "ns");
  rep.add("transport.frames_per_batch",
          batches == 0 ? 0.0 : uc(metrics::names::kReactorFrames) / batches,
          "count");
  rep.add("transport.backpressure", uc(metrics::names::kReactorBackpressure),
          "count");
  rep.add("transport.reconnects", uc(metrics::names::kReactorReconnects),
          "count");
  rep.add("server.dispatch.self_p50_ns", self_p50(kServerDispatch), "ns");
  rep.add("servant.dispatch.self_p50_ns", self_p50(kServantDispatch), "ns");
  rep.add("pool.pending_p99", percentile(pending, 0.99), "count");
  rep.add("pool.wait_mean_ns", wait_mean, "ns");
  rep.add("runtime.migrate.p50_us", percentile(migrate_us, 0.5), "us");
  rep.add("runtime.migrations", static_cast<double>(migrations), "count");
  rep.add("resilience.retries",
          uc(metrics::names::kRmiRetries) + static_cast<double>(t_retries),
          "count");
  rep.add("resilience.attempts", static_cast<double>(rec_attempts), "count");
  const double up50 = median(u_p50);
  rep.add("trace.overhead_pct",
          up50 == 0 ? 0.0 : (median(t_p50) - up50) / up50 * 100.0, "%");

  // Self-time accounting.  The layers partition a call, so (1) their
  // summed self times must equal the summed traced end-to-end time — the
  // bookkeeping check: a missed cross-thread join or a double count breaks
  // it.  (2) Bearer and server self times are what remains of their spans
  // once the replayed wire and transport estimates are taken off, so an
  // estimate that is too large on average leaves a layer a negative total;
  // with each layer's total floored at 0 the sum must still come within
  // the tolerance of the traced end-to-end time.  The sum of self p50s (times spans per
  // call) against the end-to-end p50 is reported beside them.
  const Layer partition[] = {kOrb,        kWireEncode,   kWireDecode, kCapProcess,
                             kCapUnprocess, kProtoShm,   kProtoNexus, kProtoTcp,
                             kProtoGlue,  kTransport,    kServerDispatch,
                             kServantDispatch, kPoolWait};
  double layer_total = 0;
  double floored_total = 0;
  double p50_total = async ? tail_mean + wait_mean : 0.0;
  std::string shares = "{";
  for (Layer l : partition) {
    layer_total += static_cast<double>(sums[l]);
    floored_total += static_cast<double>(std::max<std::int64_t>(sums[l], 0));
    if (l == kPoolWait || s[l].empty()) continue;
    p50_total += p50_of(s[l]) * static_cast<double>(counts[l]) / n;
  }
  const double e2e_total =
      static_cast<double>(e2e_sum) - (async ? static_cast<double>(excluded) : 0.0);
  for (Layer l : partition) {
    if (shares.size() > 1) shares += ", ";
    shares += "\"" + std::string(layer_name(l)) + "\": " +
              num(e2e_total == 0 ? 0 : static_cast<double>(sums[l]) / e2e_total * 100.0);
  }
  shares += "}";
  const double partition_pct =
      e2e_total == 0 ? 0.0 : layer_total / e2e_total * 100.0;
  const double tp50 = median(t_p50);
  const double accounted =
      e2e_total == 0 ? 0.0 : floored_total / e2e_total * 100.0;
  rep.add("trace.accounted_pct", accounted, "%");
  const bool accounting_ok =
      std::fabs(partition_pct - 100.0) <= 1.0 &&
      std::fabs(accounted - 100.0) <= kAccountingTolerancePct;

  // Where the process CPU goes.  By thread, from the untraced rounds: the
  // generator (client) thread, threads the round created (the server's
  // listener threads), and the rest (reactor loop, shared pool).  On TCP,
  // the listener threads' CPU is also read directly in the traced rounds
  // (layers.hpp): inside handle_frame (which then includes the inner
  // hooks' clock reads) and in the listener's read/write loop around it.
  const double split_n = static_cast<double>(std::max<std::uint64_t>(split_calls, 1));
  const double per_frame = static_cast<double>(std::max<std::uint64_t>(handle_frames, 1));
  const double hf_us = static_cast<double>(handle_frame_cpu) / per_frame / 1e3;
  const double loop_us =
      listener_gaps == 0 ? 0.0
                         : static_cast<double>(listener_cpu) /
                               static_cast<double>(listener_gaps) / 1e3;
  rep.add("cpu.client_us_per_call", cpu_client / split_n / 1e3, "us");
  rep.add("cpu.server_threads_us_per_call", cpu_server / split_n / 1e3, "us");
  rep.add("cpu.other_threads_us_per_call", cpu_other / split_n / 1e3, "us");
  rep.add("cpu.handle_frame_us_per_call", hf_us, "us");
  rep.add("cpu.listener_loop_us_per_call", loop_us, "us");
  const std::pair<const char*, double> holders[] = {
      {"client thread (stub, glue, capabilities, bearer)", cpu_client / split_n / 1e3},
      {"listener loop (TCP listener read/write outside handle_frame)", loop_us},
      {"server handle_frame (decode, capabilities, servant)", hf_us},
      {"other threads (reactor loop, shared pool)", cpu_other / split_n / 1e3}};
  const auto* top = std::max_element(
      std::begin(holders), std::end(holders),
      [](const auto& a, const auto& b) { return a.second < b.second; });

  // attempts == calls + retries, counted at the outermost bearer; a call
  // answered wrongly is in both completed and failed.
  const std::uint64_t reached = t_calls + (t_failed - t_wrong);
  const bool attempts_ok = rec_attempts == reached + t_retries;

  rep.detail("accounting",
             "{\"accounted_pct\": " + num(accounted) +
                 ", \"partition_pct\": " + num(partition_pct) +
                 ", \"traced_e2e_p50_ns\": " + num(tp50) +
                 ", \"layer_p50_sum_ns\": " + num(p50_total) +
                 ", \"layer_p50_sum_pct\": " +
                 num(tp50 == 0 ? 0.0 : p50_total / tp50 * 100.0) +
                 ", \"tolerance_pct\": " + num(kAccountingTolerancePct) +
                 ", \"pass\": " + (accounting_ok ? "true" : "false") +
                 ", \"traced_e2e_mean_ns\": " + num(e2e_total / n) +
                 ", \"layer_share_pct\": " + shares + "}");
  rep.detail("cpu_holder", "\"" + json_escape(top->first) + "\"");
  rep.detail("attempts_check",
             "{\"attempts\": " + std::to_string(rec_attempts) +
                 ", \"calls\": " + std::to_string(reached) +
                 ", \"retries\": " + std::to_string(t_retries) +
                 ", \"pass\": " + (attempts_ok ? "true" : "false") + "}");
  rep.detail("rmi_calls_counter_per_call",
             num(uc(metrics::names::kRmiCalls) / un));
  std::string idle = "[";
  for (int l = 0; l < kLayerCount; ++l) {
    if (s[l].empty() && sums[l] == 0) {
      if (idle.size() > 1) idle += ", ";
      idle += "\"" + std::string(layer_name(static_cast<Layer>(l))) + "\"";
    }
  }
  rep.detail("layers_without_work", idle + "]");
  std::string spans = "{";
  for (int l = 0; l < kLayerCount; ++l) {
    if (spans.size() > 1) spans += ", ";
    spans += "\"" + std::string(layer_name(static_cast<Layer>(l))) +
             "\": " + std::to_string(counts[l]);
  }
  rep.detail("layer_spans", spans + "}");
  return attempts_ok;
}

struct Args {
  Workload workload = Workload::ping_shm;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::int64_t ab_servant_delay_ns = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload_name = val;
      have_workload = true;
      if (val == "ping_shm") {
        a.workload = Workload::ping_shm;
      } else if (val == "rpc_glue_tcp") {
        a.workload = Workload::rpc_glue_tcp;
      } else if (val == "pipeline_glue_tcp") {
        a.workload = Workload::pipeline_glue_tcp;
      } else if (val == "migrate_nexus") {
        a.workload = Workload::migrate_nexus;
      } else {
        throw std::invalid_argument("unknown workload " + val);
      }
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--ab-servant-delay-ns") {
      a.ab_servant_delay_ns = std::stoll(val);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--ab-servant-delay-ns <ns>]");
  }
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::string load_before = loadavg();
  const std::string affinity_before = affinity_list();
  const int pinned_cpu = pin_to_one_cpu();
  bind_null_endpoint();
  if (args.trace == 1) install_timed_factories();
  Bench bench(args.workload, args.seed, args.trace == 1);

  // Rounds of about half a second, at least ten.  Traced: untraced and
  // traced rounds alternate, so the overhead compares neighbours.
  const int n = std::max(10, static_cast<int>(std::lround(2 * args.seconds)));
  std::vector<RoundStats> rounds;
  if (args.trace == 0) {
    for (int r = 0; r < n; ++r) {
      // A/B self-test: the servant delay is on in every other round, so
      // both arms share the machine's drift over the run.
      if (args.ab_servant_delay_ns > 0) {
        bench.set_servant_delay(r % 2 == 1 ? args.ab_servant_delay_ns : 0);
      }
      rounds.push_back(bench.run_round(args.seconds / n, false, false));
    }
  } else {
    const int pairs = std::max(3, n / 2);
    for (int r = 0; r < 2 * pairs; ++r) {
      const bool traced = r % 2 == 1;
      // A/B self-test: every other traced round has the servant delay.
      if (args.ab_servant_delay_ns > 0) {
        bench.set_servant_delay(r % 4 == 3 ? args.ab_servant_delay_ns : 0);
      }
      rounds.push_back(
          bench.run_round(args.seconds / (2 * pairs), traced, !traced));
    }
  }
  stop_null_listener();

  Report rep;
  bool checks_ok = true;
  if (args.trace == 0 && args.ab_servant_delay_ns > 0) {
    std::vector<RoundStats> off, on;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      (r % 2 == 1 ? on : off).push_back(rounds[r]);
    }
    end_to_end(rep, off);
    Report with_delay;
    end_to_end(with_delay, on);
    rep.detail("ab_delayed_metrics", with_delay.metrics_json());
  } else if (args.trace == 0) {
    end_to_end(rep, rounds);
  } else if (args.ab_servant_delay_ns > 0) {
    // Rounds r % 4: 0 and 2 untraced, 1 traced, 3 traced with the delay.
    // Besides off/on, the delay-free traced rounds are split in two
    // interleaved halves, the pair a "nothing moved" check compares.
    std::vector<RoundStats> off, on, half_a, half_b;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      if (r % 2 == 0) {
        for (auto* set : {&off, &on, &half_a, &half_b}) set->push_back(rounds[r]);
      } else if (r % 4 == 3) {
        on.push_back(rounds[r]);
      } else {
        off.push_back(rounds[r]);
        (r % 8 == 1 ? half_a : half_b).push_back(rounds[r]);
      }
    }
    checks_ok = per_layer(rep, args.workload, off);
    for (const auto& [key, set] :
         {std::pair{"ab_delayed_metrics", &on}, std::pair{"ab_half_a_metrics", &half_a},
          std::pair{"ab_half_b_metrics", &half_b}}) {
      Report part;
      checks_ok = per_layer(part, args.workload, *set) && checks_ok;
      rep.detail(key, part.metrics_json());
    }
  } else {
    checks_ok = per_layer(rep, args.workload, rounds);
  }
  if (args.trace == 1 && (args.workload == Workload::rpc_glue_tcp ||
                          args.workload == Workload::pipeline_glue_tcp)) {
    rep.detail("listener_zero_fill_replay_us", num(zero_fill_replay_us()));
  }
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::string problems = "[";
  for (const auto& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    wrong += r.wrong;
    for (const auto& p : r.problems) {
      if (problems.size() > 1) problems += ", ";
      problems += '"';
      problems += json_escape(p);
      problems += '"';
    }
  }
  problems += "]";
  const bool correct = wrong == 0 && failed == 0 && checks_ok;
  std::string per_round = "[";
  for (const auto& r : rounds) {
    if (per_round.size() > 1) per_round += ", ";
    per_round += "{\"traced\": " + std::string(r.traced ? "true" : "false") +
                 ", \"setup_s\": " + num(r.setup_s) +
                 ", \"calls\": " + std::to_string(r.completed) +
                 ", \"calls_per_s\": " + num(static_cast<double>(r.completed) / r.measure_s) +
                 ", \"p50_us\": " + num(r.p50_ns / 1e3) + "}";
  }
  per_round += "]";

  std::cout << "{\"workload\": \"" << args.workload_name << "\""
            << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"ab_servant_delay_ns\": " << args.ab_servant_delay_ns
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << rep.metrics_json()
            << ", \"detail\": " << rep.details_json()
            << ", \"rounds\": " << per_round << ", \"problems\": " << problems
            << ", \"conditions\": {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"loadavg_before\": " << load_before
            << ", \"loadavg_after\": " << loadavg() << ", \"compiler\": \""
            << OHPX_BENCH_COMPILER << "\", \"build_type\": \""
            << OHPX_BENCH_BUILD_TYPE << "\", \"cpu_affinity_before\": \""
            << affinity_before << "\", \"pinned_cpu\": " << pinned_cpu
            << ", \"cpu_affinity\": \"" << affinity_list() << "\", \"network\": \"loopback only: TCP "
            << "traffic crossed the host loopback interface, not a real link; "
               "nexus-tcp is the simulated bearer\"}}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << std::endl;
    return 2;
  }
}
