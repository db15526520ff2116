// The attach path's id tables against std::unordered_map scan models.
//
// The eNodeB's pending attaches and the MME's EMM contexts sit in
// reusable slots found through dense tables indexed by the ids the AP
// issues (eNB UE id, MME UE id) and, for the MME, a flat map by IMSI.
// Seeded operation sequences drive the real components and a model side
// by side; after every step the lookups, the slot count (slots are reused
// before the table grows, so it equals the peak number live) and the id
// table sizes must agree. Ids that arrive on the wire but were never
// issued must find nothing and must not grow a table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/enodeb.h"
#include "core/s1_fabric.h"
#include "epc/epc.h"
#include "ue/nas_client.h"

namespace dlte::core {
namespace {

constexpr std::uint32_t kMaxWireId = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kFirstImsi = 7000;
constexpr std::uint64_t kKnown = 12;    // Provisioned IMSIs.
constexpr std::uint64_t kUnknown = 3;   // IMSIs the HSS rejects.

crypto::Key128 key_for(std::uint64_t imsi) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(imsi * 7 + i);
  }
  return k;
}

const crypto::Block128 kOp = [] {
  crypto::Block128 op{};
  op[0] = 0xcd;
  return op;
}();

ue::NasClient make_client(std::uint64_t imsi) {
  ue::SimProfile p{Imsi{imsi}, key_for(imsi),
                   crypto::derive_opc(key_for(imsi), kOp), true, "t"};
  return ue::NasClient{ue::Usim{p}, "n"};
}

void provision(epc::EpcCore& core) {
  for (std::uint64_t i = 0; i < kKnown; ++i) {
    core.hss().provision(Imsi{kFirstImsi + i}, key_for(kFirstImsi + i), kOp);
  }
}

// ---- eNodeB: attach, reject and guard expiry ----------------------------

struct EnbOutcomes {
  int registered{0};
  int rejected{0};
  int expired{0};
};

class EnbModel {
 public:
  explicit EnbModel(std::uint64_t seed) : rng_(seed) {
    provision(core_);
    fabric_.register_enb_direct(
        CellId{1}, Duration::micros(50),
        [this](lte::S1apMessage&& m) { enb_.on_s1ap(std::move(m)); });
  }

  void run(int steps, EnbOutcomes& outcomes) {
    outcomes_ = &outcomes;
    for (int step = 0; step < steps; ++step) {
      const auto op = rng_() % 10;
      if (op < 4) {
        attach(kFirstImsi + rng_() % kKnown);
      } else if (op == 4) {
        attach(kFirstImsi + kKnown + rng_() % kUnknown);
      } else if (op == 5) {
        core_.crash();  // In-flight dialogues now end at the guard.
      } else if (op == 6) {
        probe_wire_ids();
      } else {
        advance(Duration::millis(1 + static_cast<std::int64_t>(rng_() % 300)));
      }
      check(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    advance(kAttachGuard + Duration::seconds(1.0));  // Every guard fired.
    check(steps);
    EXPECT_TRUE(pending_.empty());
  }

 private:
  void attach(std::uint64_t imsi) {
    clients_.push_back(make_client(imsi));
    const std::uint32_t id = ++issued_;  // Ids are issued from 1 upward.
    pending_.emplace(id, sim_.now());
    peak_ = std::max(peak_, pending_.size());
    enb_.attach_ue(clients_.back(), [this, id](AttachOutcome o) {
      const auto it = pending_.find(id);
      ASSERT_NE(it, pending_.end()) << "outcome for id " << id << " twice";
      pending_.erase(it);
      if (o.success) {
        ++outcomes_->registered;
      } else if (o.elapsed >= kAttachGuard) {
        ++outcomes_->expired;
      } else {
        ++outcomes_->rejected;
      }
    });
  }

  // S1AP naming eNB UE ids that were never issued: dropped untouched.
  void probe_wire_ids() {
    for (const std::uint32_t id : {0u, issued_ + 1, kMaxWireId}) {
      enb_.on_s1ap(lte::S1apMessage{lte::DownlinkNasTransport{
          EnbUeId{id}, MmeUeId{1}, std::vector<std::uint8_t>{0x52}}});
      enb_.on_s1ap(lte::S1apMessage{lte::InitialContextSetupRequest{
          EnbUeId{id}, MmeUeId{1}, Teid{1}, {}}});
    }
  }

  void advance(Duration d) { sim_.run_until(sim_.now() + d); }

  void check(int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_EQ(enb_.pending_count(), pending_.size());
    ASSERT_EQ(enb_.pending_slots(), peak_);
    ASSERT_EQ(enb_.enb_id_table_size(), std::size_t{issued_} + 1);
    for (std::uint32_t id = 0; id <= issued_ + 1; ++id) {
      ASSERT_EQ(enb_.is_pending(EnbUeId{id}), pending_.contains(id))
          << "id " << id;
    }
    ASSERT_FALSE(enb_.is_pending(EnbUeId{kMaxWireId}));
    ASSERT_EQ(enb_.enb_id_table_size(), std::size_t{issued_} + 1);
  }

  std::mt19937_64 rng_;
  sim::Simulator sim_;
  epc::EpcCore core_{sim_, epc::EpcConfig{.network_id = "n"},
                     sim::RngStream{11}};
  S1Fabric fabric_{sim_, core_.mme()};
  EnodeB enb_{sim_, fabric_, EnbConfig{.cell = CellId{1}}};
  std::deque<ue::NasClient> clients_;
  std::unordered_map<std::uint32_t, TimePoint> pending_;
  std::size_t peak_{0};
  std::uint32_t issued_{0};
  EnbOutcomes* outcomes_{nullptr};
};

TEST(AttachTables, EnodebPendingMatchesAScanModelOverSeededRuns) {
  EnbOutcomes outcomes;
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EnbModel{seed}.run(400, outcomes);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The sequences reached every way an attach can end.
  EXPECT_GT(outcomes.registered, 0);
  EXPECT_GT(outcomes.rejected, 0);
  EXPECT_GT(outcomes.expired, 0);
}

// ---- MME: attach, reject, release_ue, admit_handover, crash -------------

class MmeModel {
 public:
  explicit MmeModel(std::uint64_t seed)
      : rng_(seed), core_{sim_, epc::EpcConfig{.network_id = "n"},
                          sim::RngStream{seed}} {
    provision(core_);
    core_.set_metrics(&metrics_);
    core_.mme().set_sender(
        [this](CellId, lte::S1apMessage m) { answer(std::move(m)); });
  }

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      // Replies the UEs produced since the last step go up first, so
      // dialogues advance to registration between the other operations.
      std::vector<lte::S1apMessage> outbox = std::move(outbox_);
      outbox_.clear();
      for (auto& m : outbox) send(std::move(m));
      const auto op = rng_() % 10;
      const Imsi imsi{kFirstImsi + rng_() % kKnown};
      if (op < 4) {
        attach(imsi);
      } else if (op == 4) {
        attach(Imsi{kFirstImsi + kKnown + rng_() % kUnknown});
      } else if (op == 5) {
        core_.mme().release_ue(imsi);
        forget(imsi);
      } else if (op == 6) {
        const std::vector<std::uint8_t> security_context{1, 2, 3};
        ASSERT_TRUE(
            core_.mme().admit_handover(imsi, CellId{1}, security_context));
        remember(imsi);
      } else if (op == 7 && rng_() % 4 == 0) {
        core_.crash();
        by_imsi_.clear();
        by_id_.clear();
        peak_ = 0;  // The context slots go with the crash.
      } else if (op == 8) {
        probe_wire_ids();
      }
      sim_.run_until(sim_.now() + Duration::millis(20));
      check(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Slots were reused: more contexts were created than slots exist.
    EXPECT_LT(max_slots_, created_);
    EXPECT_GT(metrics_.counter("epc.attaches_completed").value(), 0u);
  }

 private:
  void send(lte::S1apMessage m) {
    core_.mme().handle_s1ap(CellId{1}, std::move(m));
  }

  void attach(Imsi imsi) {
    clients_[imsi.value()] =
        std::make_unique<ue::NasClient>(make_client(imsi.value()));
    lte::InitialUeMessage init;
    init.enb_ue_id = EnbUeId{1};
    init.cell = CellId{1};
    init.nas_pdu = lte::encode_nas(clients_[imsi.value()]->start_attach());
    send(lte::S1apMessage{std::move(init)});
    if (imsi.value() >= kFirstImsi + kKnown) {
      ++issued_;  // A rejected attach spends an id on no context.
    } else {
      remember(imsi);
    }
  }

  void remember(Imsi imsi) {
    if (by_imsi_.contains(imsi.value())) return;
    const std::uint32_t id = ++issued_;
    by_imsi_.emplace(imsi.value(), id);
    by_id_.emplace(id, imsi.value());
    ++created_;
    peak_ = std::max(peak_, by_imsi_.size());
    max_slots_ = std::max(max_slots_, peak_);
  }

  void forget(Imsi imsi) {
    const auto it = by_imsi_.find(imsi.value());
    if (it == by_imsi_.end()) return;
    by_id_.erase(it->second);
    by_imsi_.erase(it);
  }

  // The UE side: downlink NAS goes to the IMSI's client, whose reply
  // waits in the outbox; a context setup request is answered likewise.
  void answer(lte::S1apMessage m) {
    if (const auto* down = std::get_if<lte::DownlinkNasTransport>(&m)) {
      const auto owner = by_id_.find(down->mme_ue_id.value());
      if (owner == by_id_.end()) return;  // A rejected attach.
      auto nas = lte::decode_nas(down->nas_pdu);
      ASSERT_TRUE(nas.ok());
      auto reply = clients_.at(owner->second)->handle(*nas);
      if (!reply) return;
      outbox_.push_back(lte::S1apMessage{lte::UplinkNasTransport{
          down->enb_ue_id, down->mme_ue_id, lte::encode_nas(*reply)}});
      return;
    }
    if (const auto* ctx = std::get_if<lte::InitialContextSetupRequest>(&m)) {
      outbox_.push_back(lte::S1apMessage{lte::InitialContextSetupResponse{
          ctx->enb_ue_id, ctx->mme_ue_id, Teid{900}}});
    }
  }

  // S1AP naming MME UE ids that were never issued: dropped untouched.
  void probe_wire_ids() {
    for (const std::uint32_t id : {0u, issued_ + 1, kMaxWireId}) {
      send(lte::S1apMessage{lte::UplinkNasTransport{
          EnbUeId{1}, MmeUeId{id},
          lte::encode_nas(lte::NasMessage{lte::AttachComplete{}})}});
      send(lte::S1apMessage{lte::InitialContextSetupResponse{
          EnbUeId{1}, MmeUeId{id}, Teid{900}}});
    }
  }

  void check(int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const epc::Mme& mme = core_.mme();
    ASSERT_EQ(mme.context_count(), by_imsi_.size());
    ASSERT_EQ(mme.context_slots(), peak_);
    ASSERT_EQ(mme.mme_id_table_size(), std::size_t{issued_} + 1);
    std::set<std::uint32_t> slots;
    for (std::uint64_t v = kFirstImsi; v < kFirstImsi + kKnown + kUnknown;
         ++v) {
      const auto view = mme.find_ue(Imsi{v});
      const auto it = by_imsi_.find(v);
      ASSERT_EQ(view.has_value(), it != by_imsi_.end()) << "imsi " << v;
      if (!view) continue;
      ASSERT_EQ(view->mme_ue_id.value(), it->second) << "imsi " << v;
      ASSERT_LT(view->slot, mme.context_slots());
      ASSERT_TRUE(slots.insert(view->slot).second) << "slot shared";
    }
    for (std::uint32_t id = 0; id <= issued_ + 1; ++id) {
      const auto view = mme.find_ue(MmeUeId{id});
      const auto it = by_id_.find(id);
      ASSERT_EQ(view.has_value(), it != by_id_.end()) << "id " << id;
      if (view) {
        ASSERT_EQ(view->imsi.value(), it->second) << "id " << id;
      }
    }
    ASSERT_FALSE(mme.find_ue(MmeUeId{kMaxWireId}).has_value());
    ASSERT_EQ(mme.mme_id_table_size(), std::size_t{issued_} + 1);
  }

  std::mt19937_64 rng_;
  sim::Simulator sim_;
  obs::MetricsRegistry metrics_;
  epc::EpcCore core_;
  std::map<std::uint64_t, std::unique_ptr<ue::NasClient>> clients_;
  std::vector<lte::S1apMessage> outbox_;
  std::unordered_map<std::uint64_t, std::uint32_t> by_imsi_;
  std::unordered_map<std::uint32_t, std::uint64_t> by_id_;
  std::uint32_t issued_{0};
  std::size_t peak_{0};
  std::size_t max_slots_{0};
  std::size_t created_{0};
};

TEST(AttachTables, MmeContextsMatchAScanModelOverSeededRuns) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MmeModel{seed}.run(600);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dlte::core
