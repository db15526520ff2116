#include "epc/hss.h"

#include <gtest/gtest.h>

namespace dlte::epc {
namespace {

crypto::Key128 test_key() {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(i);
  return k;
}

crypto::Block128 test_op() {
  crypto::Block128 op{};
  op[0] = 0xcd;
  return op;
}

TEST(Hss, ProvisionAndCount) {
  Hss hss{sim::RngStream{1}};
  EXPECT_EQ(hss.subscriber_count(), 0u);
  hss.provision(Imsi{1001}, test_key(), test_op());
  EXPECT_TRUE(hss.has_subscriber(Imsi{1001}));
  EXPECT_FALSE(hss.has_subscriber(Imsi{9999}));
  EXPECT_EQ(hss.subscriber_count(), 1u);
}

TEST(Hss, UnknownImsiFails) {
  Hss hss{sim::RngStream{1}};
  EXPECT_FALSE(hss.generate_auth_vector(Imsi{404}, "net").ok());
}

TEST(Hss, VectorsDifferPerRequest) {
  Hss hss{sim::RngStream{1}};
  hss.provision(Imsi{1001}, test_key(), test_op());
  auto v1 = hss.generate_auth_vector(Imsi{1001}, "net");
  auto v2 = hss.generate_auth_vector(Imsi{1001}, "net");
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_NE(v1->rand, v2->rand);    // Fresh RAND.
  EXPECT_NE(v1->kasme, v2->kasme);  // Fresh session key.
}

TEST(Hss, KasmeBoundToServingNetwork) {
  // The serving-network binding scopes a session to one AP even with
  // published keys: vectors for different APs yield different KASMEs.
  Hss hss{sim::RngStream{2}};
  hss.provision(Imsi{1001}, test_key(), test_op());
  // Reset RNG determinism is not required: compare two different APs only
  // through the property that same (K, RAND, SQN) but different SN id
  // differ — exercised in key_derivation tests. Here ensure the id is
  // plumbed at all: vector generation succeeds for any id.
  EXPECT_TRUE(hss.generate_auth_vector(Imsi{1001}, "dlte-ap-1").ok());
  EXPECT_TRUE(hss.generate_auth_vector(Imsi{1001}, "dlte-ap-2").ok());
}

TEST(Hss, SqnAdvancesMonotonically) {
  Hss hss{sim::RngStream{4}};
  hss.provision(Imsi{1001}, test_key(), test_op());
  auto v1 = hss.generate_auth_vector(Imsi{1001}, "net");
  auto v2 = hss.generate_auth_vector(Imsi{1001}, "net");
  // SQN⊕AK differs because both SQN and AK change.
  EXPECT_NE(v1->sqn_xor_ak, v2->sqn_xor_ak);
}

}  // namespace
}  // namespace dlte::epc
