#include "crypto/milenage.h"

#include <cstring>

namespace dlte::crypto {

namespace {
// Left-rotate a 128-bit block by a multiple of 8 bits (the standard's
// r-constants are all byte-aligned: r1=64, r2=0, r3=32, r4=64, r5=96).
Block128 rotate_left(const Block128& in, int bits) {
  const int bytes = bits / 8;
  Block128 out;
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] =
        in[static_cast<std::size_t>((i + bytes) % 16)];
  }
  return out;
}
}  // namespace

Block128 derive_opc(const Key128& k, const Block128& op) {
  return xor_blocks(Aes128{k}.encrypt(op), op);
}

Milenage::Milenage(const Key128& k, const Block128& opc)
    : cipher_(k), opc_(opc) {}

Milenage::Challenge Milenage::challenge(const Rand128& rand) const& {
  return Challenge{*this, cipher_.encrypt(xor_blocks(rand, opc_))};
}

Milenage::F1Output Milenage::Challenge::f1(const Sqn48& sqn,
                                           const Amf16& amf) const {
  // IN1 = SQN || AMF || SQN || AMF.
  Block128 in1;
  std::memcpy(in1.data(), sqn.data(), 6);
  std::memcpy(in1.data() + 6, amf.data(), 2);
  std::memcpy(in1.data() + 8, sqn.data(), 6);
  std::memcpy(in1.data() + 14, amf.data(), 2);

  // OUT1 = E_K(TEMP xor rot(IN1 xor OPc, r1) xor c1) xor OPc, with r1 = 64
  // bits and c1 = 0.
  Block128 t = rotate_left(xor_blocks(in1, m_->opc_), 64);
  t = xor_blocks(t, temp_);
  const Block128 out1 = xor_blocks(m_->cipher_.encrypt(t), m_->opc_);

  F1Output out;
  std::memcpy(out.mac_a.data(), out1.data(), 8);
  return out;
}

// OUTn = E_K(rot(TEMP xor OPc, rn) xor cn) xor OPc for n = 2..5.
Block128 Milenage::Challenge::out_block(int rotate_bits,
                                        std::uint8_t c_last_byte) const {
  Block128 t = rotate_left(xor_blocks(temp_, m_->opc_), rotate_bits);
  t[15] = static_cast<std::uint8_t>(t[15] ^ c_last_byte);
  return xor_blocks(m_->cipher_.encrypt(t), m_->opc_);
}

Milenage::F2F5Output Milenage::Challenge::f2_f5() const {
  // r2 = 0, c2 = ...0001.
  const Block128 out2 = out_block(0, 0x01);
  F2F5Output out;
  std::memcpy(out.res.data(), out2.data() + 8, 8);
  std::memcpy(out.ak.data(), out2.data(), 6);
  return out;
}

Ck128 Milenage::Challenge::f3() const {
  // r3 = 32, c3 = ...0010.
  return out_block(32, 0x02);
}

Ik128 Milenage::Challenge::f4() const {
  // r4 = 64, c4 = ...0100.
  return out_block(64, 0x04);
}

}  // namespace dlte::crypto
