// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320): the one checksum
// of every journal, snapshot, manifest and archive frame, every wire frame,
// and the params hash inside DerivationCache keys.
//
// Values are those of the classic one-byte-per-step table loop, on every
// CPU and through every code path, so stored and in-flight bytes from any
// earlier build still verify.

#ifndef GAEA_UTIL_CRC32_H_
#define GAEA_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace gaea {

// CRC-32 of `data`. On x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked
// once, at run time) inputs of 64 bytes or more are folded with carry-less
// multiplies; everything else runs Crc32Portable's loop.
uint32_t Crc32(const void* data, size_t size);

// The portable slicing-by-16 loop Crc32 falls back on: always the same value
// as Crc32. Exposed so tests can pin it on hosts where Crc32 dispatches to
// the folding kernel.
uint32_t Crc32Portable(const void* data, size_t size);

}  // namespace gaea

#endif  // GAEA_UTIL_CRC32_H_
