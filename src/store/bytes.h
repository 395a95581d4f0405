// Bounds-checked byte-level (de)serialization primitives for the store layer.
//
// ByteWriter appends into a growing buffer; ByteReader walks a borrowed span
// and latches a failure flag on the first out-of-bounds or malformed read.
// Every store codec is built on these two types, so "malformed input never
// crashes" reduces to one invariant: readers check ok() before trusting a
// value, and a failed reader returns zeros rather than touching memory it
// does not own.
//
// Encoding conventions (little-endian throughout):
//  * Varint: LEB128, 7 bits per byte, at most 10 bytes for a uint64_t.
//  * Zigzag: signed values map to unsigned ((v << 1) ^ (v >> 63)) before
//    varint encoding, so small negative numbers stay small.
//  * F32/F64: raw IEEE bits (memcpy), so round-trips are bit-exact.
//  * String: varint length + raw bytes.
#ifndef ANSOR_SRC_STORE_BYTES_H_
#define ANSOR_SRC_STORE_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ansor {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF32(float v);
  void PutF64(double v);
  void PutVarint(uint64_t v);
  void PutZigzag(int64_t v);
  void PutString(const std::string& s);
  void PutRaw(const void* data, size_t n);

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& bytes) : ByteReader(bytes.data(), bytes.size()) {}

  // False once any read ran past the end or hit a malformed encoding. All
  // reads after a failure return zeros/empty.
  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  float GetF32();
  double GetF64();
  uint64_t GetVarint();
  // A varint element count. Every encoded element takes at least one byte,
  // so a count above remaining() is corrupt: it fails the reader (and reads
  // as 0) before it can size an allocation.
  uint64_t GetCount();
  int64_t GetZigzag();
  std::string GetString();
  // Copies n raw bytes into out (which must have room for n).
  void GetRaw(void* out, size_t n);

  void Skip(size_t n);
  // Marks the reader failed (codecs use this for semantic violations, e.g.
  // an out-of-range table reference).
  void Fail() { ok_ = false; }

 private:
  bool Need(size_t n);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// FNV-1a over a byte span: the store's corruption checksum. Not
// cryptographic; it only needs to catch truncation and bit rot.
uint64_t Fnv1a64(const char* data, size_t n);

}  // namespace ansor

#endif  // ANSOR_SRC_STORE_BYTES_H_
