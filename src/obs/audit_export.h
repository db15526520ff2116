// Exporter for the determinism audit plane (DESIGN.md §15).
//
// One AuditDoc, two renderings:
//
//   * to_json — the full `dlte-audit-v1` document: the partition-
//     invariant "merged" section (windowed event/message multiset
//     digests + metric-state digests) plus the per-configuration
//     "shards" section (order-sensitive window chains, per-label
//     digests, the shard-pair ledger). Byte-identical across double
//     runs of one configuration; the shards section differs across
//     shard counts by construction.
//
//   * merged_json — the merged section alone, as its own document.
//     This is what the in-process shard sweeps and the CI
//     par-determinism gate byte-compare across 1/2/4 shards, exactly
//     how prof_export's event_attribution_json carves out the
//     deterministic slice of the prof plane.
//
// All digest words render as decimal uint64 JSON numbers — JsonWriter
// prints integers exactly, and tools/audit_diff.py reads them back
// exactly.
#pragma once

#include <string>

#include "obs/audit.h"

namespace dlte::obs {

class AuditExporter {
 public:
  // The full dlte-audit-v1 document (merged + shards + ledger).
  [[nodiscard]] static std::string to_json(const AuditDoc& doc,
                                           const std::string& source);

  // The partition-invariant section alone — what cross-shard-count
  // comparisons byte-compare.
  [[nodiscard]] static std::string merged_json(const AuditDoc& doc);
};

}  // namespace dlte::obs
