#include "spectrum/chain.h"

#include <algorithm>

#include "common/bytes.h"

namespace dlte::spectrum {

SpectrumChain::SpectrumChain(sim::Simulator& sim, Duration block_interval)
    : sim_(sim), interval_(block_interval) {
  // Genesis block.
  Block genesis;
  genesis.height = 0;
  genesis.hash = block_hash(genesis);
  blocks_.push_back(std::move(genesis));
}

crypto::Digest256 SpectrumChain::block_hash(const Block& b) {
  ByteWriter w;
  w.u64(b.height);
  w.bytes(b.previous_hash);
  w.u32(static_cast<std::uint32_t>(b.records.size()));
  for (const auto& r : b.records) {
    w.u8(static_cast<std::uint8_t>(r.kind));
    w.u32(static_cast<std::uint32_t>(r.payload.size()));
    w.bytes(r.payload);
  }
  return crypto::sha256(w.data());
}

void SpectrumChain::submit(ChainRecord record, InclusionCallback on_included) {
  pending_.emplace_back(std::move(record), std::move(on_included));
}

void SpectrumChain::start() {
  if (started_) return;
  started_ = true;
  sim_.every(interval_, [this] { seal_block(); }, sim_.label("registry.seal"));
}

void SpectrumChain::seal_block() {
  if (pending_.empty()) return;  // No empty blocks.
  Block b;
  b.height = blocks_.back().height + 1;
  b.previous_hash = blocks_.back().hash;
  // FIFO batch window: oldest submissions commit first; anything past
  // the per-block cap waits for the next interval.
  const std::size_t take = max_records_ == 0
                               ? pending_.size()
                               : std::min(max_records_, pending_.size());
  std::vector<InclusionCallback> callbacks;
  callbacks.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    b.records.push_back(std::move(pending_[i].first));
    callbacks.push_back(std::move(pending_[i].second));
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(take));
  b.hash = block_hash(b);
  blocks_.push_back(std::move(b));
  obs::inc(m_blocks_sealed_);
  obs::observe(m_commits_per_block_, static_cast<double>(take));
  obs::set(m_commit_backlog_, static_cast<double>(pending_.size()));
  const std::uint64_t height = blocks_.back().height;
  for (auto& cb : callbacks) {
    if (cb) cb(height);
  }
}

void SpectrumChain::set_metrics(obs::MetricsRegistry* metrics,
                                const std::string& prefix) {
  if (metrics == nullptr) {
    m_blocks_sealed_ = nullptr;
    m_commits_per_block_ = nullptr;
    m_commit_backlog_ = nullptr;
    return;
  }
  m_blocks_sealed_ = &metrics->counter(prefix + "registry.blocks_sealed");
  m_commits_per_block_ =
      &metrics->histogram(prefix + "registry.commits_per_block");
  m_commit_backlog_ = &metrics->gauge(prefix + "registry.commit_backlog");
}

bool SpectrumChain::verify() const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (block_hash(blocks_[i]) != blocks_[i].hash) return false;
    if (i > 0 && blocks_[i].previous_hash != blocks_[i - 1].hash) {
      return false;
    }
    if (blocks_[i].height != i) return false;
  }
  return true;
}

}  // namespace dlte::spectrum
