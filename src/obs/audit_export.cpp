#include "obs/audit_export.h"

#include "obs/json.h"

namespace dlte::obs {

namespace {

void digest_object(JsonWriter& w, const MultisetDigest& digest) {
  w.begin_object();
  w.key("count").value(digest.count);
  w.key("xor").value(digest.xor_fold);
  w.key("sum").value(digest.sum);
  w.end_object();
}

void merged_object(JsonWriter& w, const AuditDoc& doc) {
  // No shard count in here: this object's contract is byte-identity
  // across shard counts, so it may carry nothing partition-derived.
  w.begin_object();
  w.key("window_ns").value(doc.window_ns);
  w.key("events_total").value(doc.events_total);
  w.key("messages_total").value(doc.messages_total);
  w.key("windows");
  w.begin_array();
  for (const AuditDoc::MergedWindow& window : doc.merged) {
    w.begin_object();
    w.key("index").value(window.index);
    w.key("events").value(window.events);
    w.key("events_digest");
    digest_object(w, window.events_digest);
    w.key("messages").value(window.messages);
    w.key("messages_digest");
    digest_object(w, window.messages_digest);
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.begin_array();
  for (const AuditDoc::MetricWindow& window : doc.metric_windows) {
    w.begin_object();
    w.key("index").value(window.index);
    w.key("t_ns").value(window.t_ns);
    w.key("digest");
    digest_object(w, window.digest);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void shards_object(JsonWriter& w, const AuditDoc& doc) {
  w.begin_object();
  w.key("count").value(std::uint64_t{doc.shards});
  w.key("timelines");
  w.begin_array();
  for (const AuditDoc::ShardTimeline& shard : doc.shard_timelines) {
    w.begin_object();
    w.key("shard").value(std::uint64_t{shard.shard});
    w.key("windows");
    w.begin_array();
    for (const AuditDoc::ShardWindow& window : shard.windows) {
      w.begin_object();
      w.key("index").value(window.index);
      w.key("events").value(window.events);
      w.key("chain").value(window.chain);
      w.key("labels");
      w.begin_object();
      for (const AuditDoc::LabelDigest& label : window.labels) {
        w.key(label.name);
        digest_object(w, label.digest);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("ledger");
  w.begin_array();
  for (const AuditDoc::LedgerWindow& window : doc.ledger) {
    w.begin_object();
    w.key("index").value(window.index);
    w.key("pairs");
    w.begin_array();
    for (const MessageLedger::PairCell& cell : window.pairs) {
      w.begin_object();
      w.key("src").value(std::uint64_t{cell.src_shard});
      w.key("dst").value(std::uint64_t{cell.dst_shard});
      w.key("messages").value(cell.messages);
      w.key("chain").value(cell.chain);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string AuditExporter::to_json(const AuditDoc& doc,
                                   const std::string& source) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dlte-audit-v1");
  w.key("source").value(source);
  w.key("merged");
  merged_object(w, doc);
  w.key("shards");
  shards_object(w, doc);
  w.end_object();
  return w.str();
}

std::string AuditExporter::merged_json(const AuditDoc& doc) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dlte-audit-v1");
  w.key("merged");
  merged_object(w, doc);
  w.end_object();
  return w.str();
}

}  // namespace dlte::obs
