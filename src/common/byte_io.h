// ByteWriter / ByteReader: the one little-endian binary codec under every
// byte format of the project — the wire protocol (serving/wire.h), the
// record element (selection/record.h) and the .rpsn container
// (serving/snapshot.h).
//
// Scalars are copied with memcpy, so they may sit unaligned and the codec
// is alignment- and strict-aliasing-safe. Aligned slabs (the compiled
// scoring tables of a selector stack) are padded to 8 bytes relative to
// the start of the buffer; a reader whose buffer itself sits 8-aligned in
// memory borrows them in place on their natural alignment.
//
// The reader is bounds-checked: every access past the end returns
// InvalidArgument ("<what> truncated"), never reads out of bounds, so it
// is safe over untrusted bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.h"
#include "common/slab.h"
#include "common/status.h"

namespace rpe {

/// Appends to a caller-owned string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(&value), sizeof value);
  }

  void PutBytes(std::string_view bytes) { out_->append(bytes); }

  /// `count` consecutive values, as Put would write them one by one.
  template <typename T>
  void PutArray(const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_->append(reinterpret_cast<const char*>(values), count * sizeof(T));
  }

  /// Zero padding up to the next 8-byte boundary of the output.
  void Pad8() { out_->append((8 - out_->size() % 8) % 8, '\0'); }

  /// u64 count, padding to 8, then the raw elements (read back in place
  /// by ByteReader::BorrowSlab).
  template <typename T>
  void AlignedSlab(const Slab<T>& s) {
    static_assert(alignof(T) <= 8);
    Put(static_cast<uint64_t>(s.size()));
    Pad8();
    PutArray(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Sequential reader over bytes the caller keeps alive.
class ByteReader {
 public:
  /// `what` names the input in error messages ("wire payload", ...).
  ByteReader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return Truncated();
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// `count` consecutive values into out[0, count).
  template <typename T>
  Status GetArray(T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return Truncated();
    // memcpy needs non-null pointers even for size 0.
    if (count != 0) std::memcpy(out, bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::OK();
  }

  Status GetBytes(std::string* out, size_t n) {
    if (remaining() < n) return Truncated();
    out->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Align8() {
    const size_t aligned = (pos_ + 7) & ~size_t{7};
    if (aligned > bytes_.size()) return Truncated();
    pos_ = aligned;
    return Status::OK();
  }

  /// An AlignedSlab, viewed in place: the result borrows the bytes, which
  /// the caller keeps alive.
  template <typename T>
  Status BorrowSlab(Slab<T>* out) {
    static_assert(alignof(T) <= 8);
    uint64_t count = 0;
    RPE_RETURN_NOT_OK(Get(&count));
    RPE_RETURN_NOT_OK(Align8());
    if (count > remaining() / sizeof(T)) return Truncated();
    const char* p = bytes_.data() + pos_;
    RPE_DCHECK(reinterpret_cast<uintptr_t>(p) % alignof(T) == 0);
    *out = Slab<T>::Borrow(reinterpret_cast<const T*>(p),
                           static_cast<size_t>(count));
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return Status::OK();
  }

  /// Exact-size inputs: trailing bytes are as much a violation as missing
  /// ones (a lying encoder, not a storage fault).
  Status ExpectEnd() const {
    if (pos_ != bytes_.size()) {
      return Status::InvalidArgument(std::string(what_) + " has " +
                                     std::to_string(remaining()) +
                                     " trailing byte(s)");
    }
    return Status::OK();
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  Status Truncated() const {
    return Status::InvalidArgument(std::string(what_) + " truncated");
  }

  std::string_view bytes_;
  const char* what_;
  size_t pos_ = 0;
};

}  // namespace rpe
