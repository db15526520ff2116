// Determinism audit plane, layer 1 (DESIGN.md §15): the digest algebra
// the whole localization story rests on. The merged section is only
// partition-invariant if MultisetDigest folds commute, the per-shard
// chains only catch reorders if the chain fold does NOT commute, and
// build_audit_doc must treat an idle shard as an identity fold — the
// same contracts the par-level determinism tests then exercise end to
// end.
#include "obs/audit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace dlte::obs {
namespace {

TEST(FnvDigest, BytesMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors: the empty string hashes to the
  // offset basis, "a" and "abc" to their well-known values.
  EXPECT_EQ(fnv_bytes("", 0), kFnvOffset);
  EXPECT_EQ(fnv_bytes("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv_bytes("abc", 3), 0xe71fa2190541574bull);
}

TEST(FnvDigest, MixIsOrderSensitive) {
  const std::uint64_t ab = fnv_mix(fnv_mix(kFnvOffset, 1), 2);
  const std::uint64_t ba = fnv_mix(fnv_mix(kFnvOffset, 2), 1);
  EXPECT_NE(ab, ba);  // Chains must see pure reorders.
}

TEST(MultisetDigest, AddCommutesAndMergeEqualsUnion) {
  MultisetDigest forward, backward, left, right;
  const std::vector<std::uint64_t> hashes{7, 42, 42, 9001, 1u << 20};
  for (const std::uint64_t h : hashes) forward.add(h);
  for (auto it = hashes.rbegin(); it != hashes.rend(); ++it)
    backward.add(*it);
  EXPECT_EQ(forward, backward);  // Add order never matters.
  for (std::size_t i = 0; i < hashes.size(); ++i)
    (i % 2 == 0 ? left : right).add(hashes[i]);
  left.merge(right);  // Partitioning + merge == observing the union.
  EXPECT_EQ(left, forward);
}

TEST(MultisetDigest, EmptyMergeIsIdentityAndDuplicatesCount) {
  MultisetDigest digest, empty;
  digest.add(13);
  const MultisetDigest before = digest;
  digest.merge(empty);  // An idle shard folds in as a no-op.
  EXPECT_EQ(digest, before);
  // xor alone would cancel a duplicated hash; count/sum must not.
  MultisetDigest once, twice;
  once.add(13);
  twice.add(13);
  twice.add(13);
  EXPECT_NE(once, twice);
}

DigestTimeline labeled_timeline() {
  DigestTimeline timeline{1000};  // 1 us windows.
  timeline.register_label(0, "sim.unlabeled");
  timeline.register_label(1, "test.alpha");
  timeline.register_label(2, "test.beta");
  return timeline;
}

TEST(DigestTimeline, WindowsOnTheFixedGrid) {
  DigestTimeline timeline = labeled_timeline();
  timeline.on_execute(0, 0, 1);
  timeline.on_execute(999, 1, 1);    // Still window 0: [0, 1000).
  timeline.on_execute(1000, 2, 2);   // First tick of window 1.
  timeline.on_execute(3500, 3, 2);   // Window 3; window 2 stays empty.
  ASSERT_EQ(timeline.windows().size(), 4u);
  EXPECT_EQ(timeline.windows()[0].events, 2u);
  EXPECT_EQ(timeline.windows()[1].events, 1u);
  EXPECT_EQ(timeline.windows()[2].events, 0u);
  EXPECT_EQ(timeline.windows()[3].events, 1u);
  EXPECT_EQ(timeline.windows()[2].chain, kFnvOffset);  // Untouched basis.
  EXPECT_EQ(timeline.events_total(), 4u);
}

TEST(DigestTimeline, ChainSeesReorderMultisetDoesNot) {
  // Two same-timestamp same-label events swapping execution order: the
  // scenario metrics cannot see it, the order-independent digests must
  // not see it, and the chain MUST.
  DigestTimeline ab = labeled_timeline();
  ab.on_execute(100, 5, 1);
  ab.on_execute(100, 6, 1);
  DigestTimeline ba = labeled_timeline();
  ba.on_execute(100, 6, 1);
  ba.on_execute(100, 5, 1);
  const DigestTimeline::Window& wab = ab.windows()[0];
  const DigestTimeline::Window& wba = ba.windows()[0];
  EXPECT_NE(wab.chain, wba.chain);
  EXPECT_EQ(wab.all, wba.all);
  ASSERT_GT(wab.labels.size(), 1u);
  EXPECT_EQ(wab.labels[1], wba.labels[1]);  // Same {h1} multiset.
}

TEST(DigestTimeline, SeqShiftMovesTheLabelMultiset) {
  // The hold-back failure mode: the same events execute with shifted
  // seq numbers. The seq-free merged digest holds; the seq-inclusive
  // per-label digest is what localizes the label.
  DigestTimeline clean = labeled_timeline();
  clean.on_execute(100, 5, 1);
  DigestTimeline shifted = labeled_timeline();
  shifted.on_execute(100, 6, 1);
  EXPECT_EQ(clean.windows()[0].all, shifted.windows()[0].all);
  EXPECT_NE(clean.windows()[0].labels[1], shifted.windows()[0].labels[1]);
}

TEST(DigestTimeline, UnregisteredLabelFoldsAsUnlabeled) {
  // An id interned before the auditor attached has no name hash; the
  // hot path must clamp to the unlabeled bucket, never read OOB.
  DigestTimeline clamped = labeled_timeline();
  clamped.on_execute(100, 0, 999);
  DigestTimeline unlabeled = labeled_timeline();
  unlabeled.on_execute(100, 0, 0);
  EXPECT_EQ(clamped.windows()[0].chain, unlabeled.windows()[0].chain);
  EXPECT_EQ(clamped.windows()[0].labels[0], unlabeled.windows()[0].labels[0]);
}

TEST(DigestTimeline, RegisterLabelIsIdempotentByIdAndGrows) {
  DigestTimeline timeline{1000};
  timeline.register_label(0, "sim.unlabeled");
  timeline.register_label(3, "test.sparse");  // Ids 1..2 fill as blanks.
  EXPECT_EQ(timeline.label_name(2), "");
  timeline.on_execute(10, 0, 3);
  const std::uint64_t chain = timeline.windows()[0].chain;
  timeline.register_label(3, "test.sparse");  // Re-intern: no state reset.
  EXPECT_EQ(timeline.windows()[0].chain, chain);
  EXPECT_EQ(timeline.label_name(3), "test.sparse");
}

TEST(MessageLedger, PairChainsSeeInjectionOrder) {
  const std::uint8_t payload[] = {0xde, 0xad};
  MessageLedger ab{1000};
  ab.on_message(100, 1, 0, 7, payload, sizeof payload, 0, 1);
  ab.on_message(100, 2, 0, 7, payload, sizeof payload, 0, 1);
  MessageLedger ba{1000};
  ba.on_message(100, 2, 0, 7, payload, sizeof payload, 0, 1);
  ba.on_message(100, 1, 0, 7, payload, sizeof payload, 0, 1);
  ASSERT_EQ(ab.windows().size(), 1u);
  const MessageLedger::Window& wab = ab.windows().at(0);
  const MessageLedger::Window& wba = ba.windows().at(0);
  EXPECT_EQ(wab.all, wba.all);  // Same multiset: merged section agrees.
  const MessageLedger::PairCell& cab = wab.pairs.at({0, 1});
  const MessageLedger::PairCell& cba = wba.pairs.at({0, 1});
  EXPECT_EQ(cab.messages, 2u);
  EXPECT_NE(cab.chain, cba.chain);  // The per-shard section does not.
}

TEST(MessageLedger, WindowsByDeliveryTimeAndPayloadMatters) {
  const std::uint8_t pay_a[] = {1};
  const std::uint8_t pay_b[] = {2};
  MessageLedger ledger{1000};
  ledger.on_message(500, 1, 0, 7, pay_a, sizeof pay_a, 0, 1);
  ledger.on_message(2500, 1, 1, 7, pay_a, sizeof pay_a, 1, 0);
  ASSERT_EQ(ledger.windows().size(), 2u);
  EXPECT_EQ(ledger.windows().count(0), 1u);
  EXPECT_EQ(ledger.windows().count(2), 1u);  // Sparse: window 1 absent.
  EXPECT_EQ(ledger.messages_total(), 2u);
  MessageLedger other{1000};
  other.on_message(500, 1, 0, 7, pay_b, sizeof pay_b, 0, 1);
  EXPECT_NE(ledger.windows().at(0).all, other.windows().at(0).all);
}

TEST(RegistryDigest, PartitionInvariantUnderMerge) {
  // The metric-window digest contract: folding per-shard registry
  // digests must equal digesting the merged registry, because the merge
  // naming contract keeps every instrument name in exactly one shard.
  MetricsRegistry left, right, merged;
  left.counter("a.attaches").inc(3);
  left.gauge("a.load").set(0.25);
  left.histogram("a.rtt").record(1.5);
  right.counter("b.attaches").inc(5);
  right.histogram("b.rtt").record(2.5);
  merge_registry(merged, left);
  merge_registry(merged, right);
  MultisetDigest folded = digest_registry(left);
  folded.merge(digest_registry(right));
  EXPECT_EQ(folded, digest_registry(merged));
}

TEST(RegistryDigest, SeesValueTypeAndNameChanges) {
  MetricsRegistry base;
  base.counter("x").inc(1);
  MetricsRegistry bumped;
  bumped.counter("x").inc(2);
  EXPECT_NE(digest_registry(base), digest_registry(bumped));
  MetricsRegistry renamed;
  renamed.counter("y").inc(1);
  EXPECT_NE(digest_registry(base), digest_registry(renamed));
  MetricsRegistry retyped;  // Same name, gauge holding the same number.
  retyped.gauge("x").set(1.0);
  EXPECT_NE(digest_registry(base), digest_registry(retyped));
  EXPECT_EQ(digest_registry(MetricsRegistry{}).count, 0u);
}

TEST(AuditDoc, EmptyShardsFoldAsIdentity) {
  // A shard that executed nothing must not perturb the merged section —
  // the same neutrality EventProfiler::merge_from grants an empty
  // profiler in the prof plane.
  DigestTimeline busy = labeled_timeline();
  busy.on_execute(100, 0, 1);
  busy.on_execute(1200, 1, 2);
  DigestTimeline idle{1000};
  idle.register_label(0, "sim.unlabeled");
  const AuditDoc solo = build_audit_doc({&busy}, {}, {});
  const AuditDoc with_idle = build_audit_doc({&busy, &idle}, {}, {});
  EXPECT_EQ(with_idle.shards, 2u);
  EXPECT_EQ(with_idle.events_total, solo.events_total);
  ASSERT_EQ(with_idle.merged.size(), solo.merged.size());
  for (std::size_t i = 0; i < solo.merged.size(); ++i) {
    EXPECT_EQ(with_idle.merged[i].events, solo.merged[i].events);
    EXPECT_EQ(with_idle.merged[i].events_digest, solo.merged[i].events_digest);
  }
}

TEST(AuditDoc, BuildCoversLedgerLabelsAndMetricWindows) {
  DigestTimeline timeline = labeled_timeline();
  timeline.on_execute(100, 0, 1);
  MessageLedger ledger{1000};
  const std::uint8_t payload[] = {9};
  ledger.on_message(100, 1, 0, 7, payload, sizeof payload, 0, 1);
  std::vector<AuditDoc::MetricWindow> metrics(1);
  metrics[0].index = 0;
  metrics[0].t_ns = 1000;
  metrics[0].digest.add(42);
  const AuditDoc doc = build_audit_doc({&timeline}, {&ledger},
                                       std::move(metrics));
  EXPECT_EQ(doc.window_ns, 1000);
  EXPECT_EQ(doc.events_total, 1u);
  EXPECT_EQ(doc.messages_total, 1u);
  ASSERT_EQ(doc.merged.size(), 1u);
  EXPECT_EQ(doc.merged[0].messages, 1u);
  ASSERT_EQ(doc.metric_windows.size(), 1u);
  EXPECT_EQ(doc.metric_windows[0].t_ns, 1000);
  ASSERT_EQ(doc.shard_timelines.size(), 1u);
  ASSERT_EQ(doc.shard_timelines[0].windows.size(), 1u);
  // Zero-count labels elide: only test.alpha shows up, by name.
  ASSERT_EQ(doc.shard_timelines[0].windows[0].labels.size(), 1u);
  EXPECT_EQ(doc.shard_timelines[0].windows[0].labels[0].name, "test.alpha");
  ASSERT_EQ(doc.ledger.size(), 1u);
  ASSERT_EQ(doc.ledger[0].pairs.size(), 1u);
  EXPECT_EQ(doc.ledger[0].pairs[0].src_shard, 0u);
  EXPECT_EQ(doc.ledger[0].pairs[0].dst_shard, 1u);
}

TEST(AuditDoc, PerDestinationLedgersFoldToOneLedger) {
  // The runtime feeds one ledger per destination shard, each in the
  // global order filtered to its shard; the folded document must equal
  // the one a single ledger fed the whole stream in global order builds.
  struct Msg {
    std::int64_t at;
    std::uint64_t src;
    std::uint64_t seq;
    std::uint32_t src_shard;
    std::uint32_t dst_shard;
  };
  const std::vector<Msg> global{{100, 1, 0, 0, 1}, {100, 2, 0, 1, 0},
                                {150, 1, 1, 0, 0}, {900, 3, 0, 1, 1},
                                {1100, 1, 2, 0, 1}, {1100, 2, 1, 1, 1},
                                {2500, 3, 1, 1, 0}};
  const std::uint8_t payload[] = {4, 2};
  MessageLedger whole{1000};
  std::vector<MessageLedger> by_dst(2, MessageLedger{1000});
  for (const Msg& m : global) {
    whole.on_message(m.at, m.src, m.seq, 7, payload, sizeof payload,
                     m.src_shard, m.dst_shard);
    by_dst[m.dst_shard].on_message(m.at, m.src, m.seq, 7, payload,
                                   sizeof payload, m.src_shard,
                                   m.dst_shard);
  }
  const AuditDoc one = build_audit_doc({}, {&whole}, {});
  const AuditDoc folded = build_audit_doc({}, {&by_dst[0], &by_dst[1]}, {});
  EXPECT_EQ(folded.messages_total, one.messages_total);
  ASSERT_EQ(folded.merged.size(), one.merged.size());
  for (std::size_t w = 0; w < one.merged.size(); ++w) {
    EXPECT_EQ(folded.merged[w].messages, one.merged[w].messages);
    EXPECT_EQ(folded.merged[w].messages_digest, one.merged[w].messages_digest);
  }
  ASSERT_EQ(folded.ledger.size(), one.ledger.size());
  for (std::size_t w = 0; w < one.ledger.size(); ++w) {
    EXPECT_EQ(folded.ledger[w].index, one.ledger[w].index);
    ASSERT_EQ(folded.ledger[w].pairs.size(), one.ledger[w].pairs.size());
    for (std::size_t i = 0; i < one.ledger[w].pairs.size(); ++i) {
      const MessageLedger::PairCell& a = folded.ledger[w].pairs[i];
      const MessageLedger::PairCell& b = one.ledger[w].pairs[i];
      EXPECT_EQ(a.src_shard, b.src_shard);
      EXPECT_EQ(a.dst_shard, b.dst_shard);
      EXPECT_EQ(a.messages, b.messages);
      EXPECT_EQ(a.chain, b.chain);
    }
  }
}

TEST(AuditDoc, EmptyProfilerMergeStaysNeutralBesideTheAudit) {
  // The audit doc and the attribution profile ride out of the same
  // runtime fold; an idle shard must be neutral in BOTH planes.
  EventProfiler busy, idle;
  const std::uint32_t id = busy.intern("test.alpha");
  busy.on_schedule(id, 500);
  busy.on_execute(id);
  const std::size_t labels_before = busy.label_count();
  busy.merge_from(idle);
  EXPECT_EQ(busy.label_count(), labels_before);
}

}  // namespace
}  // namespace dlte::obs
