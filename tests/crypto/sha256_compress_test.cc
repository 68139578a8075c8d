// The two SHA-256 compression kernels: FIPS 180-4 and RFC 4231 vectors
// through each, and the hardware kernel checked against the portable one.
#include "crypto/detail/sha256_compress.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "sim/random.h"
#include "util/byte_io.h"

namespace barb::crypto {
namespace {

using detail::Sha256State;
using CompressFn = void (*)(Sha256State&, const std::uint8_t*, std::size_t);

constexpr Sha256State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::vector<std::uint8_t> bytes_of(const std::string& s) { return {s.begin(), s.end()}; }

std::vector<std::uint8_t> random_bytes(sim::Random& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// One-shot SHA-256 with FIPS 180-4 padding, every block through `compress`.
Sha256::Digest hash_with(CompressFn compress, std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> msg(data.begin(), data.end());
  const std::uint64_t bit_len = msg.size() * 8;
  msg.push_back(0x80);
  while (msg.size() % Sha256::kBlockSize != 56) msg.push_back(0);
  for (int i = 0; i < 8; ++i) msg.push_back(static_cast<std::uint8_t>(bit_len >> (56 - 8 * i)));
  Sha256State state = kInitialState;
  compress(state, msg.data(), msg.size() / Sha256::kBlockSize);
  Sha256::Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

// HMAC-SHA256 (RFC 2104) over hash_with, so each kernel runs the RFC 4231
// vectors on its own.
Sha256::Digest hmac_with(CompressFn compress, std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> message) {
  std::vector<std::uint8_t> k(key.begin(), key.end());
  if (k.size() > Sha256::kBlockSize) {
    const auto d = hash_with(compress, k);
    k.assign(d.begin(), d.end());
  }
  k.resize(Sha256::kBlockSize, 0);
  std::vector<std::uint8_t> inner, outer;
  for (auto b : k) inner.push_back(b ^ 0x36);
  for (auto b : k) outer.push_back(b ^ 0x5c);
  inner.insert(inner.end(), message.begin(), message.end());
  const auto inner_digest = hash_with(compress, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return hash_with(compress, outer);
}

struct Kernel {
  const char* name;
  CompressFn fn;
  bool available;
};

// Keeps the parameter's printed form (and so the ctest name) stable.
void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }

std::vector<Kernel> kernels() {
  std::vector<Kernel> out{{"portable", detail::sha256_compress_portable, true}};
#if defined(__x86_64__)
  out.push_back({"sha_ni", detail::sha256_compress_sha_ni,
                 detail::sha256_cpu_has_sha_extensions()});
#endif
  return out;
}

class Sha256Kernel : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (!GetParam().available) GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  CompressFn compress() const { return GetParam().fn; }
};

TEST_P(Sha256Kernel, Fips180Vectors) {
  const struct {
    std::string message;
    const char* digest;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(to_hex(hash_with(compress(), bytes_of(v.message))), v.digest)
        << "length " << v.message.size();
  }
}

TEST_P(Sha256Kernel, Rfc4231Vectors) {
  std::vector<std::uint8_t> key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const struct {
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> data;
    const char* mac;
  } vectors[] = {
      {std::vector<std::uint8_t>(20, 0x0b), bytes_of("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {bytes_of("Jefe"), bytes_of("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(20, 0xaa), std::vector<std::uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::vector<std::uint8_t>(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<std::uint8_t>(131, 0xaa),
       bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::vector<std::uint8_t>(131, 0xaa),
       bytes_of("This is a test using a larger than block-size key and a larger than "
                "block-size data. The key needs to be hashed before being used by the "
                "HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (std::size_t i = 0; i < std::size(vectors); ++i) {
    EXPECT_EQ(to_hex(hmac_with(compress(), vectors[i].key, vectors[i].data)), vectors[i].mac)
        << "vector " << i;
  }
}

// The hardware kernel against the portable reference from random states
// over 1..64 consecutive blocks in one call.
TEST_P(Sha256Kernel, MatchesPortableOnRandomBlockRuns) {
  sim::Random rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nblocks = rng.uniform(64) + 1;
    const auto data = random_bytes(rng, nblocks * Sha256::kBlockSize);
    Sha256State start;
    for (auto& word : start) word = static_cast<std::uint32_t>(rng.next_u64());
    Sha256State expected = start, got = start;
    detail::sha256_compress_portable(expected, data.data(), nblocks);
    compress()(got, data.data(), nblocks);
    ASSERT_EQ(got, expected) << "trial " << trial << ", " << nblocks << " blocks";
  }
}

// A run of n blocks in one call equals n single-block calls.
TEST_P(Sha256Kernel, MultiBlockCallEqualsBlockByBlock) {
  sim::Random rng(99);
  const auto data = random_bytes(rng, 64 * Sha256::kBlockSize);
  Sha256State whole = kInitialState, stepped = kInitialState;
  compress()(whole, data.data(), 64);
  for (std::size_t i = 0; i < 64; ++i) {
    compress()(stepped, data.data() + i * Sha256::kBlockSize, 1);
  }
  EXPECT_EQ(whole, stepped);
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Kernel, ::testing::ValuesIn(kernels()),
                         [](const auto& info) { return std::string(info.param.name); });

// Sha256::update under random split patterns (mixing partial blocks, whole
// runs and empty updates) against the portable one-shot reference.
TEST(Sha256Dispatch, RandomUpdateSplitsMatchPortableReference) {
  sim::Random rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    const auto data = random_bytes(rng, rng.uniform(5000));
    const auto expected = hash_with(detail::sha256_compress_portable, data);
    Sha256 h;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n = std::min<std::size_t>(data.size() - pos, rng.uniform(700));
      h.update(std::span(data).subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(h.finalize(), expected) << "trial " << trial << ", " << data.size() << " bytes";
  }
}

TEST(Sha256Dispatch, HmacOfPolicySizedMessageMatchesPortableReference) {
  sim::Random rng(5);
  const auto key = random_bytes(rng, 32);
  const auto message = random_bytes(rng, 242 * 1024 + 17);
  EXPECT_EQ(hmac_sha256(key, message),
            hmac_with(detail::sha256_compress_portable, key, message));
}

}  // namespace
}  // namespace barb::crypto
