// Decoder fuzzing for the lease-churn storm's reply decoders (the
// tests/lte/fuzz_decoders_test.cpp pattern applied to the registry
// plane): truncated, extended and byte-mutated grant, heartbeat and
// query replies must never crash or read out of bounds (run under
// sanitizers to enforce the latter), never push the block past its
// lease quota, and a reply addressed to another block must change
// nothing at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/lease_churn.h"

namespace dlte::workload {
namespace {

constexpr std::uint32_t kBlock = 3;
constexpr std::uint32_t kLeases = 8;
constexpr std::uint64_t kFirstId = 100;

std::vector<std::uint8_t> grant_reply(std::uint32_t block) {
  ByteWriter w;
  w.u32(block);
  w.u8(1);
  w.u32(kLeases);
  for (std::uint32_t i = 0; i < kLeases; ++i) w.u64(kFirstId + i);
  return w.take();
}

std::vector<std::uint8_t> heartbeat_reply(std::uint32_t block) {
  ByteWriter w;
  w.u32(block);
  w.u32(kLeases - 3);  // ok
  w.u32(0);            // unreachable
  w.u32(3);            // lapsed
  for (std::uint64_t id : {kFirstId, kFirstId + 2, kFirstId + 5}) w.u64(id);
  return w.take();
}

std::vector<std::uint8_t> query_reply(std::uint32_t block) {
  ByteWriter w;
  w.u32(block);
  w.u8(1);  // tier
  w.u8(1);  // stale
  w.u64(42);
  return w.take();
}

struct Storm {
  sim::Simulator sim;
  std::uint64_t sent{0};
  LeaseChurnStorm storm;

  Storm()
      : storm{sim, config(),
              [this](std::uint16_t, std::vector<std::uint8_t>) { ++sent; },
              LeaseChurnStorm::Hooks{}} {
    storm.start();
    // Fill the quota with a well-formed reply.
    storm.on_message(kLeaseGrantReply, grant_reply(kBlock));
  }

  static ChurnConfig config() {
    ChurnConfig c;
    c.block = kBlock;
    c.leases = kLeases;
    c.location = Position{1'000.0, 1'000.0};
    return c;
  }
};

std::uint16_t reply_kind(std::uint64_t pick) {
  constexpr std::uint16_t kKinds[] = {kLeaseGrantReply, kLeaseHeartbeatReply,
                                      kLeaseQueryReply};
  return kKinds[pick % 3];
}

std::vector<std::uint8_t> valid_reply(std::uint16_t kind,
                                      std::uint32_t block) {
  switch (kind) {
    case kLeaseGrantReply:
      return grant_reply(block);
    case kLeaseHeartbeatReply:
      return heartbeat_reply(block);
    default:
      return query_reply(block);
  }
}

TEST(FuzzLeaseChurn, RandomRepliesStayTotal) {
  Storm s;
  sim::RngStream rng{31};
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> bytes(rng.uniform_int(0, 64));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    s.storm.on_message(reply_kind(rng.uniform_int(0, 2)), bytes);
    ASSERT_LE(s.storm.leases_held(), kLeases);
  }
  // Backoff re-applications scheduled by the replies run cleanly too.
  s.sim.run_until(s.sim.now() + Duration::seconds(30.0));
  EXPECT_LE(s.storm.leases_held(), kLeases);
}

TEST(FuzzLeaseChurn, TruncatedExtendedAndMutatedRepliesStayTotal) {
  Storm s;
  sim::RngStream rng{32};
  for (int i = 0; i < 6000; ++i) {
    const std::uint16_t kind = reply_kind(rng.uniform_int(0, 2));
    // Addressed to this block, so the decoder runs past the block field.
    auto bytes = valid_reply(kind, kBlock);
    switch (rng.uniform_int(0, 2)) {
      case 0:  // Truncate.
        bytes.resize(rng.uniform_int(0, bytes.size()));
        break;
      case 1: {  // Extend with junk.
        const std::uint64_t extra = rng.uniform_int(1, 32);
        for (std::uint64_t k = 0; k < extra; ++k) {
          bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        }
        break;
      }
      default: {  // Flip bytes after the block field (count fields too).
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
          bytes[rng.uniform_int(4, bytes.size() - 1)] ^=
              static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        break;
      }
    }
    s.storm.on_message(kind, bytes);
    ASSERT_LE(s.storm.leases_held(), kLeases);
    if (i % 500 == 0) s.sim.run_until(s.sim.now() + Duration::seconds(5.0));
  }
}

TEST(FuzzLeaseChurn, HugeLapsedCountWithoutIdsIsHarmless) {
  // A heartbeat reply claiming 2^32-1 lapsed ids but carrying none must
  // not size anything by the claim.
  Storm s;
  ByteWriter w;
  w.u32(kBlock);
  w.u32(0);
  w.u32(0);
  w.u32(0xffffffffU);
  s.storm.on_message(kLeaseHeartbeatReply, w.take());
  EXPECT_EQ(s.storm.leases_held(), kLeases);
}

TEST(FuzzLeaseChurn, WrongBlockChangesNothing) {
  sim::RngStream rng{33};
  for (int i = 0; i < 600; ++i) {
    Storm s;
    const std::size_t held = s.storm.leases_held();
    const std::uint64_t lapses = s.storm.lapses_seen();
    const std::uint64_t confirmed = s.storm.grants_confirmed();
    const std::uint64_t answered = s.storm.queries_answered();
    const std::uint64_t sent = s.sent;
    ASSERT_EQ(held, kLeases);

    const std::uint16_t kind = reply_kind(static_cast<std::uint64_t>(i));
    auto bytes = valid_reply(kind, kBlock);
    // Corrupt the block field (never back to kBlock), sometimes mutate
    // the body as well.
    bytes[rng.uniform_int(0, 3)] ^=
        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    if (rng.uniform_int(0, 1) == 1) {
      bytes[rng.uniform_int(4, bytes.size() - 1)] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    s.storm.on_message(kind, bytes);

    EXPECT_EQ(s.storm.leases_held(), held);
    EXPECT_EQ(s.storm.lapses_seen(), lapses);
    EXPECT_EQ(s.storm.grants_confirmed(), confirmed);
    EXPECT_EQ(s.storm.queries_answered(), answered);
    EXPECT_EQ(s.sent, sent);
  }
}

TEST(FuzzLeaseChurn, ExtraGrantIdsNeverExceedQuota) {
  // A reply for this block with more ids than the block asked for (a
  // duplicated or corrupted reply) fills the quota and drops the rest,
  // so the next application cannot underflow its shortfall.
  Storm s;
  ASSERT_EQ(s.storm.leases_held(), kLeases);
  ByteWriter w;
  w.u32(kBlock);
  w.u8(1);
  w.u32(4);
  for (std::uint64_t id = 900; id < 904; ++id) w.u64(id);
  s.storm.on_message(kLeaseGrantReply, w.take());
  EXPECT_EQ(s.storm.leases_held(), kLeases);
  EXPECT_EQ(s.storm.grants_confirmed(), kLeases);
}

// A storm that keeps its last heartbeat batch: the ids it holds are read
// back off the wire, exactly as the registry would see them.
struct Recorder {
  sim::Simulator sim;
  std::vector<std::uint8_t> last_heartbeat;
  LeaseChurnStorm storm;

  Recorder()
      : storm{sim, Storm::config(),
              [this](std::uint16_t kind, std::vector<std::uint8_t> payload) {
                if (kind == kLeaseHeartbeatBatch) {
                  last_heartbeat = std::move(payload);
                }
              },
              LeaseChurnStorm::Hooks{}} {
    storm.start();
  }

  // The ids of the next heartbeat batch (one heartbeat interval on).
  std::vector<std::uint64_t> held() {
    last_heartbeat.clear();
    sim.run_until(sim.now() + Storm::config().heartbeat_interval);
    std::vector<std::uint64_t> ids;
    ByteReader r{last_heartbeat};
    (void)r.u32();
    const auto count = r.u32();
    for (std::uint32_t i = 0; count && i < *count; ++i) ids.push_back(*r.u64());
    return ids;
  }
};

std::vector<std::uint8_t> grant_reply_carrying(std::uint32_t count,
                                               std::uint64_t first_id,
                                               std::uint32_t ids,
                                               std::uint32_t tail_bytes) {
  ByteWriter w;
  w.u32(kBlock);
  w.u8(1);
  w.u32(count);
  for (std::uint32_t i = 0; i < ids; ++i) w.u64(first_id + i);
  for (std::uint32_t i = 0; i < tail_bytes; ++i) w.u8(0xee);
  return w.take();
}

// The per-field grant-reply decode: one u64() per claimed id, stopping at
// the block's quota or at the first short read.
std::vector<std::uint64_t> per_field_grants(
    const std::vector<std::uint8_t>& reply, std::size_t held) {
  ByteReader r{reply};
  (void)r.u32();
  (void)r.u8();
  const auto count = r.u32();
  std::vector<std::uint64_t> ids;
  for (std::uint32_t i = 0; count && i < *count && held + ids.size() < kLeases;
       ++i) {
    const auto id = r.u64();
    if (!id) break;
    ids.push_back(*id);
  }
  return ids;
}

// The per-field lapsed-id decode: one u64() per claimed id until the
// first short read.
std::vector<std::uint64_t> per_field_lapsed(
    const std::vector<std::uint8_t>& reply) {
  ByteReader r{reply};
  for (int i = 0; i < 3; ++i) (void)r.u32();
  const auto lapsed = r.u32();
  std::vector<std::uint64_t> ids;
  for (std::uint32_t i = 0; lapsed && i < *lapsed; ++i) {
    const auto id = r.u64();
    if (!id) break;
    ids.push_back(*id);
  }
  return ids;
}

TEST(FuzzLeaseChurn, GrantReplyAcceptsExactlyThePerFieldPrefix) {
  // Counts above the ids carried (a truncated reply, a cut final id) and
  // above the quota's room, from an empty, a part-filled and a full
  // block: the storm holds what the per-field decode accepted, no more.
  for (const std::uint32_t before : {0u, 3u, kLeases}) {
    for (const std::uint32_t count : {0u, 1u, 5u, kLeases, 12u, 0xffffffffu}) {
      for (const std::uint32_t ids : {0u, 2u, 5u, kLeases, 12u}) {
        for (const std::uint32_t tail : {0u, 5u}) {
          SCOPED_TRACE("before=" + std::to_string(before) + " count=" +
                       std::to_string(count) + " ids=" + std::to_string(ids) +
                       " tail=" + std::to_string(tail));
          Recorder c;
          if (before > 0) {
            c.storm.on_message(kLeaseGrantReply,
                               grant_reply_carrying(before, kFirstId, before,
                                                    0));
          }
          ASSERT_EQ(c.storm.leases_held(), before);
          const auto reply = grant_reply_carrying(count, 900, ids, tail);
          std::vector<std::uint64_t> expected =
              per_field_grants(reply, before);
          const std::size_t accepted = expected.size();
          for (std::uint32_t i = 0; i < before; ++i) {
            expected.push_back(kFirstId + i);
          }
          std::sort(expected.begin(), expected.end());

          c.storm.on_message(kLeaseGrantReply, reply);
          EXPECT_EQ(c.storm.grants_confirmed(), before + accepted);
          EXPECT_EQ(c.held(), expected);
        }
      }
    }
  }
}

TEST(FuzzLeaseChurn, LapsedCountAboveTheIdsCarriedDropsOnlyThoseCarried) {
  // The block holds kFirstId .. kFirstId + 7. The reply claims more
  // lapsed ids than it carries (one not held among them), sometimes with
  // a cut id after them: only the whole ids present are dropped.
  const std::vector<std::uint64_t> carried_ids = {
      kFirstId + 5, kFirstId, 999, kFirstId + 2, kFirstId + 7};
  for (const std::uint32_t lapsed : {1u, 3u, 5u, 6u, 0xffffffffu}) {
    for (std::uint32_t carried = 0; carried <= carried_ids.size();
         ++carried) {
      for (const std::uint32_t tail : {0u, 3u, 7u}) {
        SCOPED_TRACE("lapsed=" + std::to_string(lapsed) + " carried=" +
                     std::to_string(carried) + " tail=" +
                     std::to_string(tail));
        Recorder c;
        c.storm.on_message(kLeaseGrantReply,
                           grant_reply_carrying(kLeases, kFirstId, kLeases, 0));
        std::vector<std::uint64_t> held = c.held();
        ASSERT_EQ(held.size(), kLeases);
        ByteWriter w;
        w.u32(kBlock);
        w.u32(kLeases);
        w.u32(0);
        w.u32(lapsed);
        for (std::uint32_t i = 0; i < carried; ++i) w.u64(carried_ids[i]);
        for (std::uint32_t i = 0; i < tail; ++i) w.u8(0xee);
        const auto reply = w.take();
        std::vector<std::uint64_t> gone = per_field_lapsed(reply);
        std::sort(gone.begin(), gone.end());
        std::vector<std::uint64_t> expected;
        std::set_difference(held.begin(), held.end(), gone.begin(), gone.end(),
                            std::back_inserter(expected));

        c.storm.on_message(kLeaseHeartbeatReply, reply);
        EXPECT_EQ(c.storm.lapses_seen(), held.size() - expected.size());
        EXPECT_EQ(c.held(), expected);
      }
    }
  }
}

}  // namespace
}  // namespace dlte::workload
