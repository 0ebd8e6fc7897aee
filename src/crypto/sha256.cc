#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define TE_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define TE_SHA256_X86 0
#endif

namespace transedge::crypto {

namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr uint32_t kRound[64] = {
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
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// One byte swap and store; GCC vectorizes the equivalent shift loop
// over the eight state words into much slower code.
inline void StoreBigEndian(uint32_t v, uint8_t* out) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(out, &v, sizeof(v));
}

}  // namespace

bool Digest::IsZero() const {
  for (uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

std::string Digest::ToHex() const {
  return HexEncode(bytes.data(), bytes.size());
}

std::string Digest::ShortHex() const { return ToHex().substr(0, 8); }

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
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

#if TE_SHA256_X86

// The SHA extensions keep the state as two vectors, ABEF and CDGH, and
// take message words plus round constants four at a time; each
// sha256rnds2 runs two rounds.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t block[64]) {
  // Byte order within each 32-bit word: the block is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[i & 3] holds message words 4i..4i+3; later groups are scheduled
  // from the previous four in place.
  __m128i w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
        kByteSwap);
  }
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    if (i >= 4) {
      __m128i t = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
      t = _mm_add_epi32(t, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
      w[i & 3] = _mm_sha256msg2_epu32(t, w[(i + 3) & 3]);
    }
    __m128i wk = _mm_add_epi32(
        w[i & 3],
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool CpuHasShaExtensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return ssse3 && sse41 && sha;
}

#else

void CompressShaNi(uint32_t state[8], const uint8_t block[64]) {
  CompressPortable(state, block);
}

bool CpuHasShaExtensions() { return false; }

#endif

}  // namespace sha256_internal

namespace {

/// Chosen once, on first use, from CPUID; never changes afterwards.
void Compress(uint32_t state[8], const uint8_t block[64]) {
  static const auto kCompress =
      sha256_internal::CpuHasShaExtensions()
          ? sha256_internal::CompressShaNi
          : sha256_internal::CompressPortable;
  kCompress(state, block);
}

}  // namespace

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  std::memcpy(state_, kInit, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;  // `data` may be null; memcpy must not see it.
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    size_t take = 64 - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) return;
    Compress(state_, buffer_);
    buffer_len_ = 0;
  }
  for (; len >= 64; data += 64, len -= 64) Compress(state_, data);
  std::memcpy(buffer_, data, len);
  buffer_len_ = len;
}

Digest Sha256::Finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit count in the
  // last 8 bytes of a block; a second block when the count does not fit.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Compress(state_, buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Compress(state_, buffer_);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    StoreBigEndian(state_[i], out.bytes.data() + 4 * i);
  }
  return out;
}

Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

Digest HashPair(const Digest& left, const Digest& right) {
  Sha256 h;
  h.Update(left.bytes.data(), left.bytes.size());
  h.Update(right.bytes.data(), right.bytes.size());
  return h.Finish();
}

}  // namespace transedge::crypto
