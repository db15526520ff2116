// RegistryPlaneScenario: the churn storm must produce its symptom chain
// (heartbeat failures → lapses → re-grant storm → SLO alert + resolve)
// and every merged artifact must be byte-identical at any shard count —
// the contract bench_c12_registry_scale gates at full scale.
#include "par/registry_plane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "obs/audit_export.h"
#include "obs/prof.h"
#include "spectrum/registry.h"
#include "workload/lease_churn.h"

namespace dlte::par {
namespace {

RegistryPlaneConfig small_config(std::size_t shards) {
  RegistryPlaneConfig config;
  config.blocks = 12;
  config.leases_per_block = 40;
  config.zones_x = 2;
  config.zones_y = 2;
  config.shards = shards;
  config.threads = shards;
  config.horizon = Duration::seconds(60.0);
  config.lease_lifetime = Duration::seconds(8.0);
  config.heartbeat_grace = Duration::seconds(4.0);
  config.heartbeat_interval = Duration::seconds(5.0);
  config.query_interval = Duration::seconds(2.0);
  config.regrant_backoff = Duration::seconds(3.0);
  config.storm_zone = 0;
  config.outage_at = Duration::seconds(15.0);
  config.outage_duration = Duration::seconds(20.0);
  config.audit = true;
  return config;
}

struct RunOutput {
  RegistryPlaneResult result;
  std::string metrics;
  std::string series;
  std::string openmetrics;
  std::string audit;
};

RunOutput run_plane(std::size_t shards) {
  RegistryPlaneScenario plane{small_config(shards)};
  RunOutput out;
  out.result = plane.run();
  out.metrics = plane.runtime().merged_metrics_json();
  out.series = plane.runtime().merged_series_json("registry_plane_test",
                                                  plane.monitor());
  out.openmetrics = plane.runtime().merged_openmetrics_text();
  // Partition-invariant section only: per-shard chains legitimately
  // differ across shard counts.
  out.audit = obs::AuditExporter::merged_json(plane.runtime().audit_doc());
  return out;
}

TEST(RegistryPlaneTest, ChurnStormSymptomChain) {
  const RunOutput out = run_plane(1);
  const auto& r = out.result;
  // Initial mass grant: every block fills its quota.
  EXPECT_GE(r.grants_issued, 12u * 40u);
  EXPECT_GT(r.heartbeats_ok, 0u);
  // The outage (20 s) outlives lifetime+grace (12 s): the storm zone's
  // leases must lapse and its blocks must re-apply.
  EXPECT_GT(r.heartbeats_failed, 0u);
  EXPECT_GT(r.grants_lapsed, 0u);
  EXPECT_GT(r.regrant_batches, 0u);
  EXPECT_GT(r.grant_failures, 0u);  // Re-applications bounce mid-outage.
  // After the heal (t=35 s) there is time to re-grant: every block ends
  // the run with its full quota again.
  EXPECT_EQ(r.leases_held, 12u * 40u);
  // Query plane exercised the cache.
  EXPECT_GT(r.queries_answered, 0u);
  EXPECT_GT(r.cache_hits + r.cache_misses, 0u);
  // The SLO timeline: the churn alert fired during the outage and
  // resolved after the heal.
  EXPECT_TRUE(r.outage_alert_fired);
  EXPECT_TRUE(r.outage_alert_resolved);
}

TEST(RegistryPlaneTest, ShardCountsProduceByteIdenticalArtifacts) {
  const RunOutput base = run_plane(1);
  for (const std::size_t shards : {2u, 3u}) {
    const RunOutput out = run_plane(shards);
    EXPECT_EQ(out.metrics, base.metrics) << "shards=" << shards;
    EXPECT_EQ(out.series, base.series) << "shards=" << shards;
    EXPECT_EQ(out.openmetrics, base.openmetrics) << "shards=" << shards;
    EXPECT_EQ(out.audit, base.audit) << "shards=" << shards;
    EXPECT_EQ(out.result.grants_issued, base.result.grants_issued);
    EXPECT_EQ(out.result.grants_lapsed, base.result.grants_lapsed);
    EXPECT_EQ(out.result.leases_held, base.result.leases_held);
    EXPECT_EQ(out.result.queries_answered, base.result.queries_answered);
  }
}

TEST(RegistryPlaneTest, RepeatRunsAreByteIdentical) {
  const RunOutput a = run_plane(2);
  const RunOutput b = run_plane(2);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.audit, b.audit);
}

TEST(RegistryPlaneTest, QuietZonesKeepTheirLeases) {
  // Outage short enough that every block's first post-heal heartbeat
  // (t = 20s + phase) lands before its lapse due (last renewal at
  // 10s + phase, + lifetime 8 + grace 4 = 22s + phase): heartbeats fail
  // during the dark window but no lease lapses — the grace absorbs it.
  auto config = small_config(1);
  config.outage_duration = Duration::seconds(4.0);
  config.horizon = Duration::seconds(40.0);
  RegistryPlaneScenario plane{config};
  const auto r = plane.run();
  EXPECT_GT(r.heartbeats_failed, 0u);
  EXPECT_EQ(r.grants_lapsed, 0u);
  EXPECT_EQ(r.leases_held, 12u * 40u);
}

TEST(RegistryPlaneTest, GrantBatchCommitsInOneEvent) {
  // The initial mass grant lands at 2 × registry_delay + the federated
  // commit latency (360 ms). Up to just past it, nothing else in the run
  // depends on how many leases a block asks for — so if a batch commits
  // in one event, the event total cannot depend on leases_per_block
  // either. One event per lease would add blocks × 192 here.
  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<std::uint64_t> events;
    for (const int leases : {64, 256}) {
      auto config = small_config(shards);
      config.leases_per_block = leases;
      config.horizon = Duration::millis(400);
      RegistryPlaneScenario plane{config};
      const RegistryPlaneResult r = plane.run();
      // Past the first reply: every block holds its full quota.
      ASSERT_EQ(r.leases_held, 12u * static_cast<std::uint64_t>(leases));
      events.push_back(r.events_executed);
    }
    EXPECT_EQ(events[0], events[1]);
  }
}

// A probe endpoint beside the blocks posts one message — any kind, any
// payload — to the registry once the initial mass grant has settled
// (t = 5 s, well before the outage), and reports what the registry did
// with it: every `reg.registry.*` counter and the replies that came back.
// No post is the control.
struct ProbePost {
  std::uint16_t kind{0};
  std::vector<std::uint8_t> payload;
};

struct ProbeOutcome {
  std::map<std::string, std::uint64_t> counters;  // reg.registry.*
  int replies{0};
  std::vector<std::uint8_t> last_reply;  // Payload of the last reply.

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find("reg.registry." + name);
    return it == counters.end() ? 0 : it->second;
  }
};

ProbeOutcome probe(const std::optional<ProbePost>& post) {
  auto config = small_config(2);
  config.horizon = Duration::seconds(5.0);
  RegistryPlaneScenario plane{config};
  plane.run();
  ShardedSimulator& rt = plane.runtime();
  constexpr EndpointId kProbe = 1'000'000;
  ProbeOutcome out;
  rt.register_endpoint(kProbe, 1, [&out](const Message& m) {
    ++out.replies;
    out.last_reply = m.payload;
  });
  if (post) {
    rt.post(kProbe, 0, config.registry_delay, post->kind, post->payload);
  }
  rt.run_until(rt.now() + Duration::seconds(2.0));
  obs::MetricsRegistry merged;
  rt.merged_metrics_into(merged);
  for (const auto& [name, c] : merged.counters()) {
    if (name.starts_with("reg.registry.")) out.counters[name] = c.value();
  }
  return out;
}

// Block 0's own location and channel, so a served batch is grantable.
ProbePost grant_batch(std::uint32_t block, std::uint32_t count) {
  const double zs = spectrum::Registry::kZoneSizeM;
  ByteWriter w;
  w.u32(block);
  w.u32(count);
  w.f64(0.1 * zs);
  w.f64(0.1 * zs);
  w.f64(Hertz::mhz(3550.0).hz());
  w.f64(Hertz::mhz(10.0).hz());
  return {workload::kLeaseGrantBatch, w.take()};
}

// Grant ids 1..3 belong to the initial mass grant and are live at 5 s.
ProbePost heartbeat_batch(std::uint32_t count, std::uint32_t ids_written) {
  ByteWriter w;
  w.u32(0);
  w.u32(count);
  for (std::uint64_t id = 1; id <= ids_written; ++id) w.u64(id);
  return {workload::kLeaseHeartbeatBatch, w.take()};
}

// A whole heartbeat batch of the given ids.
ProbePost heartbeat_ids(const std::vector<std::uint64_t>& ids) {
  ByteWriter w;
  w.u32(0);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint64_t id : ids) w.u64(id);
  return {workload::kLeaseHeartbeatBatch, w.take()};
}

ProbePost lease_query() {
  const double zs = spectrum::Registry::kZoneSizeM;
  ByteWriter w;
  w.u32(0);
  w.f64(0.1 * zs);
  w.f64(0.1 * zs);
  return {workload::kLeaseQuery, w.take()};
}

TEST(RegistryPlaneTest, GrantReplyGoesToTheSenderNotThePayloadBlock) {
  // Block 9999 does not exist: a reply addressed by the payload's block
  // field would name an unregistered endpoint, and post() would throw.
  ProbeOutcome out;
  EXPECT_NO_THROW(out = probe(grant_batch(9999, 1)));
  EXPECT_EQ(out.replies, 1);
}

TEST(RegistryPlaneTest, GrantBatchAboveTheQuotaIsRejected) {
  const ProbeOutcome control = probe(std::nullopt);
  const std::uint32_t quota =
      static_cast<std::uint32_t>(small_config(1).leases_per_block);
  // The probe path is live: a batch within the quota is served.
  const ProbeOutcome served = probe(grant_batch(0, quota));
  EXPECT_EQ(served.replies, 1);
  EXPECT_GT(served.counter("grants_issued"), control.counter("grants_issued"));
  // Over the quota, by one lease or by four billion: dropped unserved,
  // no grant, no reply.
  const ProbeOutcome over = probe(grant_batch(0, quota + 1));
  ASSERT_EQ(over.counter("grants_issued"), control.counter("grants_issued"));
  EXPECT_EQ(over.replies, 0);
  const ProbeOutcome huge = probe(grant_batch(0, 0xffffffffu));
  EXPECT_EQ(huge.counter("grants_issued"), control.counter("grants_issued"));
  EXPECT_EQ(huge.replies, 0);
}

TEST(RegistryPlaneTest, TruncatedHeartbeatBatchIsRejectedWhole) {
  const ProbeOutcome control = probe(std::nullopt);
  // A whole batch renews all three leases and is answered.
  const ProbeOutcome whole = probe(heartbeat_batch(3, 3));
  EXPECT_EQ(whole.replies, 1);
  EXPECT_EQ(whole.counter("heartbeats_ok"),
            control.counter("heartbeats_ok") + 3);
  // Count 3 with two ids: not a batch of two. Nothing is renewed and
  // nothing is answered.
  const ProbeOutcome truncated = probe(heartbeat_batch(3, 2));
  EXPECT_EQ(truncated.replies, 0);
  EXPECT_EQ(truncated.counters, control.counters);
  // Nor are ids that overfill the payload: count 2 with three ids, or
  // three whole ids and half of a fourth.
  ProbePost cut = heartbeat_batch(3, 3);
  cut.payload.resize(cut.payload.size() + 4);
  for (const ProbePost& overfull : {heartbeat_batch(2, 3), cut}) {
    const ProbeOutcome out = probe(overfull);
    EXPECT_EQ(out.replies, 0);
    EXPECT_EQ(out.counters, control.counters);
  }
}

TEST(RegistryPlaneTest, RepliesCarryIdRunsAsOneU64PerId) {
  // The grant reply's and the heartbeat reply's id runs are written in
  // bulk; their bytes must be those of one u64() per id, in order.
  const ProbeOutcome control = probe(std::nullopt);
  const std::uint64_t next = control.counter("grants_issued") + 1;

  const ProbeOutcome granted = probe(grant_batch(0, 3));
  ASSERT_EQ(granted.replies, 1);
  ByteWriter grant;
  grant.u32(0);
  grant.u8(1);
  grant.u32(3);
  for (std::uint64_t id = next; id < next + 3; ++id) grant.u64(id);
  EXPECT_EQ(granted.last_reply, grant.data());

  const ProbeOutcome renewed = probe(heartbeat_batch(3, 3));
  ASSERT_EQ(renewed.replies, 1);
  ByteWriter beat;
  beat.u32(0);
  beat.u32(3);  // renewed
  beat.u32(0);  // unreachable
  beat.u32(0);  // lapsed
  EXPECT_EQ(renewed.last_reply, beat.data());

  const std::vector<std::uint64_t> unissued = {
      0, next, std::numeric_limits<std::uint64_t>::max()};
  const ProbeOutcome refused = probe(heartbeat_ids(unissued));
  ASSERT_EQ(refused.replies, 1);
  ByteWriter lapsed;
  lapsed.u32(0);
  lapsed.u32(0);
  lapsed.u32(0);
  lapsed.u32(3);
  for (const std::uint64_t id : unissued) lapsed.u64(id);
  EXPECT_EQ(refused.last_reply, lapsed.data());
}

TEST(RegistryPlaneTest, MalformedRequestsNeverServeOrThrow) {
  // Decoder fuzz for the registry endpoint: every proper prefix of a
  // valid request, and a few seeded single-bit flips. A truncated request
  // is rejected whole — no reply, every registry counter untouched; a
  // flipped one may be served as whatever it now says, but must not
  // throw, and if it goes unanswered it must have changed nothing.
  const ProbeOutcome control = probe(std::nullopt);
  // Ids never issued, the next one included (ids are consumed only by
  // grants): each is refused as lapsed, and none may grow the registry's
  // dense id table.
  const ProbePost unissued = heartbeat_ids(
      {0, control.counter("grants_issued") + 1,
       std::numeric_limits<std::uint64_t>::max()});
  ProbeOutcome refused;
  ASSERT_NO_THROW(refused = probe(unissued));
  EXPECT_EQ(refused.replies, 1);
  ProbeOutcome expected = control;
  expected.counters["reg.registry.heartbeats_failed"] += 3;
  EXPECT_EQ(refused.counters, expected.counters);
  std::mt19937_64 rng{17};
  for (const ProbePost& valid :
       {grant_batch(0, 2), heartbeat_batch(3, 3), lease_query(), unissued}) {
    SCOPED_TRACE("kind " + std::to_string(valid.kind));
    ASSERT_EQ(probe(valid).replies, 1);
    for (std::size_t len = 0; len < valid.payload.size(); ++len) {
      SCOPED_TRACE("prefix " + std::to_string(len));
      ProbePost cut = valid;
      cut.payload.resize(len);
      ProbeOutcome out;
      ASSERT_NO_THROW(out = probe(cut));
      EXPECT_EQ(out.replies, 0);
      EXPECT_EQ(out.counters, control.counters);
    }
    for (int flip = 0; flip < 4; ++flip) {
      const std::size_t bit = rng() % (valid.payload.size() * 8);
      SCOPED_TRACE("bit " + std::to_string(bit));
      ProbePost flipped = valid;
      flipped.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ProbeOutcome out;
      ASSERT_NO_THROW(out = probe(flipped));
      if (out.replies == 0) {
        EXPECT_EQ(out.counters, control.counters);
      }
    }
  }
}

TEST(RegistryPlaneTest, BouncedGrantBatchFailsInOneEvent) {
  // Through the 15–35 s zone outage the storm zone's blocks re-apply and
  // bounce. Each bounced batch is answered by ONE registry.failure
  // timeout, whatever its lease count: doubling leases_per_block must not
  // move the failure events, and each is one rejected batch.
  std::vector<std::uint64_t> failures;
  for (const int leases : {40, 80}) {
    SCOPED_TRACE("leases_per_block=" + std::to_string(leases));
    auto config = small_config(2);
    config.leases_per_block = leases;
    config.profile = true;
    RegistryPlaneScenario plane{config};
    const RegistryPlaneResult r = plane.run();
    ASSERT_GT(r.grant_rejections, 0u);
    obs::EventProfiler merged;
    plane.runtime().merged_profiler_into(merged);
    const std::uint64_t executed =
        merged.stats(merged.intern("registry.failure")).executed;
    EXPECT_EQ(executed, r.grant_rejections);
    failures.push_back(executed);
  }
  EXPECT_EQ(failures[0], failures[1]);
}

}  // namespace
}  // namespace dlte::par
