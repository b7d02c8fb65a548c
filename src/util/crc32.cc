#include "util/crc32.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define GAEA_CRC32_HAVE_FOLD 1
#endif

namespace gaea {

namespace {

// Slicing-by-16 tables for the reflected IEEE polynomial. t[0] is the
// classic bytewise table; t[k][i] is the CRC of byte i followed by k zero
// bytes, so one step folds 16 input bytes with 16 independent lookups
// instead of a 16-long dependency chain of single-byte steps.
struct CrcTables {
  uint32_t t[16][256];
  CrcTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 16; ++k) {
      for (int i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

// Little-endian load, independent of host byte order (compilers emit one
// move on little-endian targets).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Advances the CRC register `crc` (pre- and post-inversion are the caller's)
// over `size` bytes, 16 at a time, then the tail one byte at a time.
uint32_t SliceBy16(uint32_t crc, const uint8_t* p, size_t size) {
  // Magic-static: initialization is thread-safe.
  static const CrcTables tables;
  const auto& t = tables.t;
  for (; size >= 16; size -= 16, p += 16) {
    uint32_t a = LoadLe32(p) ^ crc;
    uint32_t b = LoadLe32(p + 4);
    uint32_t c = LoadLe32(p + 8);
    uint32_t d = LoadLe32(p + 12);
    crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^ t[13][(a >> 16) & 0xFF] ^
          t[12][a >> 24] ^ t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
          t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^ t[7][c & 0xFF] ^
          t[6][(c >> 8) & 0xFF] ^ t[5][(c >> 16) & 0xFF] ^ t[4][c >> 24] ^
          t[3][d & 0xFF] ^ t[2][(d >> 8) & 0xFF] ^ t[1][(d >> 16) & 0xFF] ^
          t[0][d >> 24];
  }
  for (; size > 0; --size, ++p) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef GAEA_CRC32_HAVE_FOLD

// Every function of the folding kernel carries target("pclmul,sse4.1"): the
// intrinsics inline only into functions compiled for those extensions, and
// nothing here runs unless CpuHasPclmul() said the CPU has both.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Load128(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies the two halves of `x` by the two halves of `k` (x^d mod P for
// the distance d being folded over) and xors in `next`, the block d bytes on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(
    __m128i x, __m128i k, __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Folding by carry-less multiplication (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with
// the bit-reflected constants for 0xEDB88320 given at the end of that paper:
// k1, k2 fold 64 bytes ahead; k3, k4 fold 16 bytes ahead; k5 folds 64 bits
// to 32; mu and P drive the final Barrett reduction. Advances the CRC
// register over `size` bytes, where size >= 64 and size % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldPclmul(
    uint32_t crc, const uint8_t* p, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu, P
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four lanes, 64 bytes at a time.
  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; size -= 64, p += 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; size -= 16, p += 16) {
    x1 = Fold(x1, k3k4, Load128(p));
  }

  // 128 bits to 64: the low half times k4 into the high half, then the low
  // 32 bits times k5 into the rest.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

// Whether this CPU runs FoldPclmul; probed once (function-local static, so
// the probe is thread-safe and runs on first use, after CPU detection).
bool CpuHasPclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // GAEA_CRC32_HAVE_FOLD

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
#ifdef GAEA_CRC32_HAVE_FOLD
  if (size >= 64 && CpuHasPclmul()) {
    const size_t folded = size & ~size_t{15};
    crc = FoldPclmul(crc, p, folded);
    p += folded;
    size -= folded;
  }
#endif
  return SliceBy16(crc, p, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Portable(const void* data, size_t size) {
  return SliceBy16(0xFFFFFFFFu, static_cast<const uint8_t*>(data), size) ^
         0xFFFFFFFFu;
}

}  // namespace gaea
