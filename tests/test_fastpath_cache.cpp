// Fast-path selection cache: the adaptivity contract under memoization.
//
// The paper's rule is per-request re-evaluation (§3.2); CallCore memoizes
// the selection keyed on (location epoch, pool generation).  These tests
// pin the contract: after *any* event the paper says must change the
// outcome — a migration republish, a proto-pool edit — the very next call
// re-selects.  No call is ever served by a stale protocol, whether the
// reference is cached or never cached (it carries an entry whose
// applicability is not a pure function of the call target).
#include <gtest/gtest.h>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/metrics/metrics.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
#include "ohpx/scenario/echo.hpp"

namespace ohpx {
namespace {

using scenario::EchoPointer;
using scenario::EchoServant;

std::uint64_t hits() {
  return metrics::MetricsRegistry::global().counter("rmi.select.cache_hit");
}
std::uint64_t misses() {
  return metrics::MetricsRegistry::global().counter("rmi.select.cache_miss");
}

// A table entry that never applies and says its applicability is not a
// pure function of the call target: appended to a table, it makes the
// whole reference never cached, like a relay entry does.
class UnstableNeverProtocol final : public proto::Protocol {
 public:
  static constexpr const char* kName = "test-unstable-never";
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
      UnstableNeverProtocol::kName, [](const proto::ProtocolEntry&) {
        return std::make_unique<UnstableNeverProtocol>();
      });
  proto::ProtoTable table = ref.table();
  table.add(proto::ProtocolEntry{UnstableNeverProtocol::kName, {}});
  return orb::ObjectRef(ref.object_id(), ref.type_name(), ref.home(),
                        std::move(table));
}

// Mirrors the Figure 3 topology: server + near client share a LAN (and a
// machine, so shm is in play), the far client sits on another LAN behind
// a cross-LAN authentication glue.
class FastpathCache : public ::testing::Test {
 protected:
  void SetUp() override {
    lan1_ = world_.add_lan("lan-1");
    lan2_ = world_.add_lan("lan-2");
    m_server_ = world_.add_machine("s0-box", lan1_);
    m_far_ = world_.add_machine("far-box", lan2_);
    m_far2_ = world_.add_machine("far-box-2", lan2_);

    server_ctx_ = &world_.create_context(m_server_);
    near_ctx_ = &world_.create_context(m_server_);  // same machine: shm
    far_ctx_ = &world_.create_context(m_far_);

    auto auth = std::make_shared<cap::AuthenticationCapability>(
        crypto::Key128::from_seed(0xfa57), "fastpath", cap::Scope::cross_lan);
    ref_ = orb::RefBuilder(*server_ctx_, std::make_shared<EchoServant>())
               .glue({auth}, "nexus-tcp")
               .shm()
               .nexus()
               .build();
  }

  runtime::World world_;
  netsim::LanId lan1_{}, lan2_{};
  netsim::MachineId m_server_{}, m_far_{}, m_far2_{};
  orb::Context* server_ctx_ = nullptr;
  orb::Context* near_ctx_ = nullptr;
  orb::Context* far_ctx_ = nullptr;
  orb::ObjectRef ref_;
};

TEST_F(FastpathCache, RepeatedCallsHitTheCache) {
  EchoPointer near(*near_ctx_, ref_);
  const std::uint64_t h0 = hits();
  const std::uint64_t m0 = misses();

  near->ping();  // fill
  EXPECT_EQ(near->last_protocol(), "shm");
  for (int i = 0; i < 8; ++i) near->ping();

  EXPECT_EQ(misses() - m0, 1u) << "only the first call may re-select";
  EXPECT_EQ(hits() - h0, 8u);
}

TEST_F(FastpathCache, MigrationReselectsOnTheVeryNextCall) {
  EchoPointer near(*near_ctx_, ref_);

  // Warm the cache on the colocated fast path.
  near->ping();
  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  const std::uint64_t epoch_before =
      world_.location().epoch_of(ref_.object_id());

  // Migrate the servant to the far LAN (a machine the far client does
  // not share, so shm stays out of play for it).  The republish bumps
  // the epoch; the near client's cached (shm) selection must die with it.
  orb::Context& new_home = world_.create_context(m_far2_);
  runtime::migrate_shared(ref_.object_id(), *server_ctx_, new_home);
  EXPECT_GT(world_.location().epoch_of(ref_.object_id()), epoch_before);

  // Very next call: the near client is now cross-LAN, so the preferred
  // authenticated glue entry applies — served by the *new* home.
  near->ping();
  EXPECT_EQ(near->last_protocol(), "glue[authentication]->nexus-tcp");

  // And the swap is symmetric, exactly as in Figure 3: the far client
  // is now LAN-local to the object and drops down to plain nexus.
  EchoPointer far(*far_ctx_, ref_);
  far->ping();
  EXPECT_EQ(far->last_protocol(), "nexus-tcp");
}

TEST_F(FastpathCache, MigrationReselectsForNeverCachedReference) {
  // A reference that is never cached re-selects on every call — the
  // paper's literal rule — and reaches the same answers without touching
  // the cache counters.
  EchoPointer near(*near_ctx_, never_cached(ref_));
  const std::uint64_t h0 = hits();
  const std::uint64_t m0 = misses();

  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  orb::Context& new_home = world_.create_context(m_far_);
  runtime::migrate_shared(ref_.object_id(), *server_ctx_, new_home);

  near->ping();
  EXPECT_EQ(near->last_protocol(), "glue[authentication]->nexus-tcp");
  EXPECT_EQ(hits() - h0, 0u) << "a never-cached reference never hits";
  EXPECT_EQ(misses() - m0, 0u) << "nor counts as a miss";
}

TEST_F(FastpathCache, PoolEditReselectsOnTheVeryNextCall) {
  EchoPointer near(*near_ctx_, ref_);

  near->ping();
  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  // User control over selection (§3.2): deny shm mid-stream.  The pool
  // generation bump must invalidate the memoized choice immediately.
  const std::uint64_t gen_before = near_ctx_->pool().generation();
  near_ctx_->pool().disable("shm");
  EXPECT_GT(near_ctx_->pool().generation(), gen_before);

  near->ping();
  EXPECT_EQ(near->last_protocol(), "nexus-tcp");

  // Re-allowing flips it straight back (enable bumps the generation too).
  near_ctx_->pool().enable("shm");
  near->ping();
  EXPECT_EQ(near->last_protocol(), "shm");
}

TEST_F(FastpathCache, RedundantPoolEditsDoNotInvalidate) {
  EchoPointer near(*near_ctx_, ref_);
  near->ping();

  // enable() of an already-allowed name and disable() of an absent one
  // change nothing, so they must not bump the generation (no spurious
  // cache misses from idempotent edits).
  const std::uint64_t gen = near_ctx_->pool().generation();
  near_ctx_->pool().enable("shm");
  near_ctx_->pool().disable("no-such-protocol");
  EXPECT_EQ(near_ctx_->pool().generation(), gen);

  const std::uint64_t h0 = hits();
  near->ping();
  EXPECT_EQ(hits() - h0, 1u);
}

TEST_F(FastpathCache, ProbeProtocolNeverConsultsTheCache) {
  EchoPointer near(*near_ctx_, ref_);
  near->ping();
  ASSERT_EQ(near->last_protocol(), "shm");

  // probe_protocol() is the diagnostic "what would be selected now" — it
  // must reflect a pool edit even before the next real call refreshes
  // the cache.
  near_ctx_->pool().disable("shm");
  EXPECT_EQ(near->probe_protocol(), "nexus-tcp");
}

}  // namespace
}  // namespace ohpx
