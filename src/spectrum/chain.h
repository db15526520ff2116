// SpectrumChain: a minimal append-only blockchain backing the
// decentralized registry variant.
//
// The paper cites blockchain licensing (Kotobi & Bilén [27]) and the
// blockchain-backed distributed HSS (Jover & Lackey [25]) as ways to
// "remove all centralization from the licensing process." This is the
// data structure those schemes rest on: SHA-256-linked blocks sealed at a
// fixed interval, carrying grant and published-key records. There is no
// proof-of-work — inclusion latency (one block interval) and integrity
// (hash chaining) are the properties the registry experiments exercise.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace dlte::spectrum {

enum class ChainRecordKind : std::uint8_t {
  kGrant = 1,
  kSubscriberKey = 2,
};

struct ChainRecord {
  ChainRecordKind kind{ChainRecordKind::kGrant};
  std::vector<std::uint8_t> payload;  // Encoded grant / key bundle.
};

struct Block {
  std::uint64_t height{0};
  crypto::Digest256 previous_hash{};
  std::vector<ChainRecord> records;
  crypto::Digest256 hash{};  // Over height ‖ previous ‖ records.
};

class SpectrumChain {
 public:
  SpectrumChain(sim::Simulator& sim, Duration block_interval);

  // Queue a record for the next block; the callback fires at inclusion
  // with the block height (this is the "commit" latency of the
  // blockchain registry design).
  using InclusionCallback = std::function<void(std::uint64_t height)>;
  void submit(ChainRecord record, InclusionCallback on_included = nullptr);

  // Start sealing blocks every interval (idempotent); the seal timer's
  // events are attributed to `registry.seal`.
  void start();

  // Batched commit windows (DESIGN.md §16): cap how many queued records
  // one block may carry. Submissions beyond the cap stay pending for the
  // next interval, so commit throughput is records-per-block × blocks-
  // per-second and scales with the cap. Zero (the default) keeps the
  // historical behaviour: every pending record seals into one block.
  void set_max_records_per_block(std::size_t cap) { max_records_ = cap; }

  // Health source: counter `<prefix>registry.blocks_sealed`, histogram
  // `<prefix>registry.commits_per_block` (records sealed per block —
  // the batch-efficiency signal), gauge `<prefix>registry.commit_backlog`
  // (records still pending after a seal). Null-safe.
  void set_metrics(obs::MetricsRegistry* metrics,
                   const std::string& prefix = "");

  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  [[nodiscard]] const Block& block(std::size_t index) const {
    return blocks_[index];
  }

  // Full-chain integrity check: recomputes every hash and link. Any
  // mutation of a sealed record breaks it — this is what replaces trust
  // in a central registry operator.
  [[nodiscard]] bool verify() const;

  // Test/attack hook: expose a mutable record so tamper-evidence can be
  // demonstrated.
  [[nodiscard]] Block& mutable_block(std::size_t index) {
    return blocks_[index];
  }

 private:
  void seal_block();
  [[nodiscard]] static crypto::Digest256 block_hash(const Block& b);

  sim::Simulator& sim_;
  Duration interval_;
  bool started_{false};
  std::size_t max_records_{0};  // 0 = unbounded block size.
  std::vector<Block> blocks_;
  std::vector<std::pair<ChainRecord, InclusionCallback>> pending_;

  obs::Counter* m_blocks_sealed_{nullptr};
  obs::Histogram* m_commits_per_block_{nullptr};
  obs::Gauge* m_commit_backlog_{nullptr};
};

}  // namespace dlte::spectrum
