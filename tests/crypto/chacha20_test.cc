#include "crypto/chacha20.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/random.h"
#include "util/byte_io.h"

namespace barb::crypto {
namespace {

ChaCha20::Key test_key() {
  ChaCha20::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

// RFC 8439 section 2.1.1.
TEST(ChaCha20, QuarterRoundVector) {
  std::uint32_t a = 0x11111111, b = 0x01020304, c = 0x9b8d6f43, d = 0x01234567;
  ChaCha20::quarter_round(a, b, c, d);
  EXPECT_EQ(a, 0xea2a92f4u);
  EXPECT_EQ(b, 0xcb1cf8ceu);
  EXPECT_EQ(c, 0x4581472eu);
  EXPECT_EQ(d, 0x5881c4bbu);
}

// RFC 8439 section 2.3.2 block function test vector.
TEST(ChaCha20, BlockFunctionVector) {
  ChaCha20::Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                           0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = ChaCha20::block(test_key(), nonce, 1);
  EXPECT_EQ(to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 section 2.4.2 encryption test vector (first 16 bytes asserted).
TEST(ChaCha20, EncryptionVectorPrefix) {
  ChaCha20::Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                           0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::vector<std::uint8_t> data(plaintext.begin(), plaintext.end());
  ChaCha20::xor_stream(test_key(), nonce, 1, data);
  EXPECT_EQ(to_hex(std::span(data).first(16)), "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(data.size(), plaintext.size());
}

TEST(ChaCha20, XorStreamIsItsOwnInverse) {
  sim::Random rng(5);
  ChaCha20::Nonce nonce{};
  nonce[0] = 0x24;
  for (std::size_t len : {0u, 1u, 63u, 64u, 65u, 128u, 1000u, 1500u}) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto original = data;
    ChaCha20::xor_stream(test_key(), nonce, 7, data);
    if (len > 0) {
      EXPECT_NE(data, original) << "len=" << len;
    }
    ChaCha20::xor_stream(test_key(), nonce, 7, data);
    EXPECT_EQ(data, original) << "len=" << len;
  }
}

TEST(ChaCha20, CounterAdvancesPerBlock) {
  ChaCha20::Nonce nonce{};
  // Encrypting 128 bytes starting at counter 1 must equal block(1)||block(2).
  std::vector<std::uint8_t> zeros(128, 0);
  ChaCha20::xor_stream(test_key(), nonce, 1, zeros);
  const auto b1 = ChaCha20::block(test_key(), nonce, 1);
  const auto b2 = ChaCha20::block(test_key(), nonce, 2);
  EXPECT_TRUE(std::memcmp(zeros.data(), b1.data(), 64) == 0);
  EXPECT_TRUE(std::memcmp(zeros.data() + 64, b2.data(), 64) == 0);
}

TEST(ChaCha20, DistinctNoncesDistinctKeystreams) {
  ChaCha20::Nonce n1{}, n2{};
  n2[11] = 1;
  EXPECT_NE(ChaCha20::block(test_key(), n1, 0), ChaCha20::block(test_key(), n2, 0));
}

TEST(ChaCha20, DistinctKeysDistinctKeystreams) {
  auto k2 = test_key();
  k2[31] ^= 0x80;
  ChaCha20::Nonce nonce{};
  EXPECT_NE(ChaCha20::block(test_key(), nonce, 0), ChaCha20::block(k2, nonce, 0));
}

}  // namespace
}  // namespace barb::crypto
