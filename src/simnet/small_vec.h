// Small-buffer vector for message metadata.
//
// MessageMeta::vars_mentioned holds 0-2 variables for every protocol in
// the repository, yet as a std::vector it cost one heap allocation per
// message constructed, copied or queued.  SmallVec stores up to N elements
// inline and only spills to the heap beyond that, so moving a Message
// through the event queue never allocates on the steady-state path.
//
// Restricted to trivially copyable element types (ids, integers): inline
// storage is copied with memcpy semantics and no destructors are run on
// elements.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "simnet/check.h"

namespace pardsm {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for trivially copyable element types");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  SmallVec() = default;

  SmallVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  SmallVec(const SmallVec& other) { append_all(other); }

  SmallVec(SmallVec&& other) noexcept { steal(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      // Reuse existing capacity (inline or heap): pooled objects assign
      // into recycled storage on every reuse, and freeing the buffer here
      // would put an allocation back on that steady-state path.
      clear();
      append_all(other);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear_storage();
      steal(other);
    }
    return *this;
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    clear();
    for (const T& v : init) push_back(v);
    return *this;
  }

  ~SmallVec() { clear_storage(); }

  void push_back(const T& v) {
    // Copy first: `v` may alias an element and grow() frees the old
    // buffer (same self-insertion safety std::vector gives).
    const T value = v;
    if (size_ == capacity_) grow();
    data()[size_++] = value;
  }

  void clear() { size_ = 0; }  // keeps any heap capacity for reuse

  /// Grow or shrink to exactly `n` elements; new elements take `fill`.
  /// Capacity is only ever kept or increased.
  void resize(std::size_t n, const T& fill = T{}) {
    while (capacity_ < n) grow();
    for (std::size_t i = size_; i < n; ++i) data()[i] = fill;
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Replace the contents with `n` copies of `value`, reusing capacity.
  void assign(std::size_t n, const T& value) {
    clear();
    resize(n, value);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool inline_storage() const { return heap_ == nullptr; }

  [[nodiscard]] T* data() { return heap_ ? heap_ : inline_; }
  [[nodiscard]] const T* data() const { return heap_ ? heap_ : inline_; }

  [[nodiscard]] T& operator[](std::size_t i) { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }

  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

  /// The doubled capacity grow() moves to.  `capacity * 2` in 32 bits
  /// wraps silently at 2³¹ elements; the check makes that failure loud
  /// (matching the kind-table overflow check) instead of a zero-sized
  /// buffer and an out-of-bounds write.  Public so the overflow guard is
  /// unit-testable without materializing 2³¹ elements.
  [[nodiscard]] static std::uint32_t next_capacity(std::uint32_t capacity) {
    PARDSM_CHECK(capacity <= (~std::uint32_t{0}) / 2,
                 "SmallVec: capacity overflow (2^31 elements)");
    return capacity * 2;
  }

 private:
  void append_all(const SmallVec& other) {
    for (const T& v : other) push_back(v);
  }

  void steal(SmallVec& other) noexcept {
    if (other.heap_) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.capacity_ = static_cast<std::uint32_t>(N);
    } else {
      std::copy(other.inline_, other.inline_ + other.size_, inline_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  void grow() {
    const auto new_capacity = next_capacity(capacity_);
    PARDSM_CHECK(new_capacity > size_,
                 "SmallVec: grown capacity must exceed the size");
    T* bigger = new T[new_capacity];
    std::copy(data(), data() + size_, bigger);
    delete[] heap_;
    heap_ = bigger;
    capacity_ = new_capacity;
  }

  void clear_storage() {
    delete[] heap_;
    heap_ = nullptr;
    size_ = 0;
    capacity_ = static_cast<std::uint32_t>(N);
  }

  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = static_cast<std::uint32_t>(N);
  T inline_[N] = {};
};

}  // namespace pardsm
