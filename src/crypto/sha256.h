// SHA-256 (FIPS 180-4).
//
// Used for HMAC-based policy-distribution authentication and VPG key
// derivation. Streaming interface plus a one-shot helper. Whole blocks go
// to the compression function in one call per update(); see
// crypto/detail/sha256_compress.h for how the kernel is chosen.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace barb::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  Digest finalize();

  static Digest hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace barb::crypto
