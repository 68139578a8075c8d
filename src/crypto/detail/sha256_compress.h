// SHA-256 compression functions, exposed for tests.
//
// Sha256 calls sha256_compress(), which picks one of two kernels once per
// process: the x86 SHA extensions (sha256rnds2/sha256msg1/sha256msg2) when
// the CPU has them, otherwise the portable loop. Both process any number of
// consecutive 64-byte blocks and must produce identical states; the
// portable loop is the reference the tests hold the hardware kernel to.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace barb::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

// Compresses `nblocks` consecutive 64-byte blocks at `data` into `state`.
void sha256_compress(Sha256State& state, const std::uint8_t* data, std::size_t nblocks);
void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t nblocks);

// True when the CPU has the SHA extensions the hardware kernel needs
// (always false off x86-64). Evaluated once, on first call.
bool sha256_cpu_has_sha_extensions();

#if defined(__x86_64__)
// Only callable when sha256_cpu_has_sha_extensions() is true.
void sha256_compress_sha_ni(Sha256State& state, const std::uint8_t* data,
                            std::size_t nblocks);
#endif

}  // namespace barb::crypto::detail
