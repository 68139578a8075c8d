#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "crypto/detail/sha256_compress.h"

namespace barb::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)
#define BARB_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

// Four rounds on schedule words w = W[4g..4g+3]; sha256rnds2 does two.
BARB_SHA_NI_TARGET inline void sha_ni_rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                              int g) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The next four schedule words from the previous sixteen (w0 oldest).
BARB_SHA_NI_TARGET inline __m128i sha_ni_schedule4(__m128i w0, __m128i w1, __m128i w2,
                                                   __m128i w3) {
  const __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(x, w3);
}
#endif

}  // namespace

namespace detail {

void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
BARB_SHA_NI_TARGET void sha256_compress_sha_ni(Sha256State& state, const std::uint8_t* data,
                                               std::size_t nblocks) {
  // The SHA instructions keep the state as two lanes, ABEF and CDGH.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    sha_ni_rounds4(abef, cdgh, w0, 0);
    sha_ni_rounds4(abef, cdgh, w1, 1);
    sha_ni_rounds4(abef, cdgh, w2, 2);
    sha_ni_rounds4(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = sha_ni_schedule4(w0, w1, w2, w3);
      sha_ni_rounds4(abef, cdgh, w0, g);
      w1 = sha_ni_schedule4(w1, w2, w3, w0);
      sha_ni_rounds4(abef, cdgh, w1, g + 1);
      w2 = sha_ni_schedule4(w2, w3, w0, w1);
      sha_ni_rounds4(abef, cdgh, w2, g + 2);
      w3 = sha_ni_schedule4(w3, w0, w1, w2);
      sha_ni_rounds4(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

bool sha256_cpu_has_sha_extensions() {
#if defined(__x86_64__)
  // A function-local static, so the CPU probe runs after the runtime has
  // initialised __builtin_cpu_supports, whatever the static-init order.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
#else
  return false;
#endif
}

void sha256_compress(Sha256State& state, const std::uint8_t* data, std::size_t nblocks) {
#if defined(__x86_64__)
  if (sha256_cpu_has_sha_extensions()) {
    sha256_compress_sha_ni(state, data, nblocks);
    return;
  }
#endif
  sha256_compress_portable(state, data, nblocks);
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      detail::sha256_compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - offset) / kBlockSize;
  if (nblocks > 0) {
    detail::sha256_compress(state_, data.data() + offset, nblocks);
    offset += nblocks * kBlockSize;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256::Digest Sha256::finalize() {
  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad[2 * kBlockSize] = {0x80};
  const std::size_t zeros_end = buffer_len_ < 56 ? 56 : 120;
  const std::size_t pad_len = zeros_end - buffer_len_ + 8;
  for (int i = 0; i < 8; ++i) {
    pad[zeros_end - buffer_len_ + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update({pad, pad_len});

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * static_cast<std::size_t>(i) + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * static_cast<std::size_t>(i) + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * static_cast<std::size_t>(i) + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

}  // namespace barb::crypto
