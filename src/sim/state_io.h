#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/error.h"

namespace hht::sim {

/// Byte-oriented snapshot writer. All multi-byte values are little-endian
/// regardless of host order, so a snapshot taken on one machine replays on
/// any other. Sections are framed with four-character tags (`tag()`) which
/// the reader verifies with `expectTag()` — a cheap structural checksum that
/// turns most truncation/skew bugs into a precise SimError(Checkpoint)
/// instead of silently mis-decoded state.
class StateWriter {
 public:
  StateWriter& u8(std::uint8_t v) {
    buf_.push_back(v);
    return *this;
  }
  StateWriter& b(bool v) { return u8(v ? 1u : 0u); }

  StateWriter& u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    return *this;
  }

  StateWriter& u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    return u32(static_cast<std::uint32_t>(v >> 32));
  }

  StateWriter& f32(float v) { return u32(std::bit_cast<std::uint32_t>(v)); }

  StateWriter& str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
    return *this;
  }

  StateWriter& bytes(const std::uint8_t* data, std::size_t n) {
    u64(n);
    buf_.insert(buf_.end(), data, data + n);
    return *this;
  }

  /// Write a four-character section tag, e.g. tag("SRAM").
  void tag(const char* four_cc);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Matching reader. Every accessor throws SimError(Checkpoint) on buffer
/// underrun; expectTag() additionally throws on a tag mismatch, naming both
/// the expected and the found tag so skewed snapshots diagnose themselves.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit StateReader(const std::vector<std::uint8_t>& buf)
      : StateReader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  bool b() { return u8() != 0; }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

  float f32() { return std::bit_cast<float>(u32()); }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::vector<std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  /// Consume a four-character tag and verify it matches.
  void expectTag(const char* four_cc);

  bool atEnd() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Current read position — for loaders that want to name the offset in
  /// their own validation errors (bounds checks, implausible counts).
  std::size_t offset() const { return pos_; }

  /// Reject an element count read from the stream BEFORE anything is
  /// sized by it: `count` elements of `bytes_each` serialized bytes each
  /// must fit in what remains, or the stream is corrupt. Throws
  /// SimError(Checkpoint) naming `what` and the offset of the count.
  void checkCount(std::uint64_t count, std::uint64_t bytes_each,
                  const char* what) const {
    if (bytes_each != 0 && count > remaining() / bytes_each) {
      throw SimError(ErrorKind::Checkpoint, "state-io",
                     std::string("corrupt stream: ") + what + " count " +
                         std::to_string(count) + " needs " +
                         std::to_string(bytes_each) + " bytes each but only " +
                         std::to_string(remaining()) +
                         " remain (count read just before offset " +
                         std::to_string(pos_) + ")");
    }
  }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) {
      throw SimError(ErrorKind::Checkpoint, "state-io",
                     "snapshot truncated: need " + std::to_string(n) +
                         " bytes at offset " + std::to_string(pos_) +
                         " of " + std::to_string(size_));
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace hht::sim
