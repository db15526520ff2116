// The determinism audit plane end to end (DESIGN.md §15): the merged
// digest section is byte-identical at any shard and thread count, and
// the deliberate exchange hold-back — a message missing its barrier and
// arriving one window late — is invisible to every classic artifact but
// localized by the per-shard section to the right window, shard, and
// label. This is the in-process half of the CI localization self-test
// that tools/audit_diff.py drives on the exported documents.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/audit_export.h"
#include "par/town.h"

namespace dlte::par {
namespace {

TownConfig audit_town_config(std::size_t shards, std::size_t threads) {
  TownConfig cfg;
  cfg.aps = 8;
  cfg.ues_per_ap = 4;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = 42;
  cfg.horizon = Duration::seconds(2.0);
  cfg.report_interval = Duration::millis(100);
  cfg.backbone_delay = Duration::millis(5);
  cfg.profile = true;
  cfg.audit = true;
  return cfg;
}

struct AuditRun {
  obs::AuditDoc doc;
  std::string merged_json;
  std::string metrics_json;
};

AuditRun run_audited(std::size_t shards, std::size_t threads,
                     std::int64_t inject_ms = -1,
                     std::size_t inject_shard = 0) {
  ShardedTown town{audit_town_config(shards, threads)};
  if (inject_ms >= 0) {
    town.runtime().inject_exchange_reorder(
        TimePoint{} + Duration::millis(inject_ms), inject_shard);
  }
  town.run();
  AuditRun out;
  out.doc = town.runtime().audit_doc();
  out.merged_json = obs::AuditExporter::merged_json(out.doc);
  out.metrics_json = town.runtime().merged_metrics_json();
  return out;
}

TEST(AuditDeterminism, MergedSectionByteIdenticalAcrossShardCounts) {
  const AuditRun one = run_audited(1, 1);
  EXPECT_GT(one.doc.events_total, 0u);
  EXPECT_FALSE(one.doc.merged.empty());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const AuditRun sharded = run_audited(shards, shards);
    EXPECT_EQ(one.merged_json, sharded.merged_json) << "shards=" << shards;
    // Endpoint posts route through the barrier exchange even at one
    // shard, so the merged message plane is partition-invariant too.
    EXPECT_EQ(one.doc.messages_total, sharded.doc.messages_total)
        << "shards=" << shards;
  }
}

TEST(AuditDeterminism, FullDocumentByteIdenticalAcrossThreadCounts) {
  // Same partition, different worker counts: even the per-shard chains
  // and the ledger must match byte for byte (threads only change who
  // executes a window, never what executes).
  const AuditRun a = run_audited(4, 1);
  const AuditRun b = run_audited(4, 4);
  EXPECT_EQ(obs::AuditExporter::to_json(a.doc, "t"),
            obs::AuditExporter::to_json(b.doc, "t"));
}

TEST(AuditDeterminism, HoldBackIsInvisibleToMetricsButLocalized) {
  const std::size_t kShard = 3;
  const AuditRun clean = run_audited(4, 4);
  const AuditRun injected = run_audited(4, 4, 1000, kShard);

  // The classic plane is blind: end-of-run metrics identical, merged
  // event totals identical (same events, different order/timing).
  EXPECT_EQ(clean.metrics_json, injected.metrics_json);
  EXPECT_EQ(clean.doc.events_total, injected.doc.events_total);
  EXPECT_EQ(clean.doc.messages_total, injected.doc.messages_total);

  // The audit plane is not: find the first window where any per-shard
  // timeline differs and collect the moved labels there.
  ASSERT_EQ(clean.doc.shard_timelines.size(),
            injected.doc.shard_timelines.size());
  std::int64_t first_window = -1;
  std::set<std::uint32_t> shards;
  std::set<std::string> labels;
  for (std::size_t s = 0; s < clean.doc.shard_timelines.size(); ++s) {
    const auto& ca = clean.doc.shard_timelines[s].windows;
    const auto& cb = injected.doc.shard_timelines[s].windows;
    const std::size_t n = std::min(ca.size(), cb.size());
    for (std::size_t w = 0; w < n; ++w) {
      if (ca[w].chain == cb[w].chain) continue;
      const std::int64_t index = ca[w].index;
      if (first_window < 0 || index < first_window) {
        first_window = index;
        shards.clear();
        labels.clear();
      }
      if (index == first_window) {
        shards.insert(clean.doc.shard_timelines[s].shard);
        for (const auto& label : ca[w].labels) labels.insert(label.name);
        for (const auto& label : cb[w].labels) labels.insert(label.name);
      }
      break;  // Only this shard's FIRST divergent window matters here.
    }
  }
  ASSERT_GE(first_window, 0) << "hold-back produced no chain divergence";
  // Injection arms at t=1.0s: the divergence cannot precede that window.
  EXPECT_GE(first_window,
            Duration::seconds(1.0).ns() / clean.doc.window_ns);
  // The held message's destination shard is where the chains split.
  EXPECT_TRUE(shards.count(static_cast<std::uint32_t>(kShard)))
      << "diverging shards missed the injection target";
  // The delivery label (the cross-shard injection wrapper) moved.
  EXPECT_TRUE(labels.count("par.delivery"))
      << "par.delivery not among moved labels";
}

TEST(AuditDeterminism, AuditOffYieldsEmptyDoc) {
  TownConfig cfg = audit_town_config(2, 2);
  cfg.audit = false;
  ShardedTown town{cfg};
  town.run();
  const obs::AuditDoc doc = town.runtime().audit_doc();
  EXPECT_EQ(doc.shards, 0u);
  EXPECT_EQ(doc.events_total, 0u);
  EXPECT_TRUE(doc.merged.empty());
  EXPECT_TRUE(doc.shard_timelines.empty());
  EXPECT_TRUE(doc.ledger.empty());
}

}  // namespace
}  // namespace dlte::par
