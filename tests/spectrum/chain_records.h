// Test scaffolding shared by the chain and registry tests: what a
// SpectrumChain has committed, read back through its sealed blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spectrum/chain.h"

namespace dlte::spectrum {

// Payloads of every committed record of one kind, oldest first.
inline std::vector<std::vector<std::uint8_t>> committed_payloads(
    const SpectrumChain& chain, ChainRecordKind kind) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t b = 0; b < chain.block_count(); ++b) {
    for (const ChainRecord& record : chain.block(b).records) {
      if (record.kind == kind) out.push_back(record.payload);
    }
  }
  return out;
}

}  // namespace dlte::spectrum
