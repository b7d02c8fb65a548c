// Binary serialization primitives used by the storage substrate and the
// catalog to persist tuples, class definitions, processes and task records.
//
// Encoding is little-endian fixed-width for numeric types plus
// length-prefixed byte strings. BinaryReader performs bounds checking and
// reports kCorruption on truncated input, so a damaged journal or page can
// never crash the kernel.

#ifndef GAEA_UTIL_SERIALIZE_H_
#define GAEA_UTIL_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace gaea {

// Appends encoded values to an owned byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  // Starts with `initial` already in the buffer.
  explicit BinaryWriter(std::string initial) : buffer_(std::move(initial)) {}

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF32(float v);
  void PutF64(double v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  // Length-prefixed (u32) byte string.
  void PutString(std::string_view s);
  // Raw bytes, no length prefix (caller must know the size on read).
  void PutRaw(const void* data, size_t size);

  const std::string& buffer() const { return buffer_; }
  // For producers that append bytes themselves (e.g. a store read placed
  // straight into an encoded reply).
  std::string* mutable_buffer() { return &buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }
  void Clear() { buffer_.clear(); }

 private:
  std::string buffer_;
};

// Decodes values from a byte span with bounds checking.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  StatusOr<uint8_t> GetU8();
  StatusOr<uint16_t> GetU16();
  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  StatusOr<int32_t> GetI32();
  StatusOr<int64_t> GetI64();
  StatusOr<float> GetF32();
  StatusOr<double> GetF64();
  StatusOr<bool> GetBool();
  StatusOr<std::string> GetString();
  // Reads exactly `size` raw bytes.
  StatusOr<std::string> GetRaw(size_t size);

  // Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace gaea

#endif  // GAEA_UTIL_SERIALIZE_H_
