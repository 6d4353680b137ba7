// Flat hash map over 64-bit keys: packed directed-pair indices, or
// variable ids.
//
// Network keeps per-pair channel state (FIFO clamp, severed-cut counts,
// loss/duplication overrides).  Dense n×n tables cost ~28 B per pair —
// ~470 MB at n = 4096 — even when every pair sits at its default, which
// locks the engine out of the large-n regime the paper's efficiency
// argument is about.  PairMap stores only the pairs that ever diverged
// from the default: open addressing with linear probing over a
// power-of-two slot array, keyed by the packed pair index
// (from * n + to), so a lookup is one multiplicative hash plus a short
// probe — cheap enough for plan_delivery's per-send path.  NetworkStats
// reuses it as each process's exposure ledger, keyed by VarId: a process
// that hears about a dozen of m variables holds a dozen entries, not m.
//
// Restricted to trivially copyable mapped types (counters, rates, time
// points).  Entries are never erased: state only ever shrinks by a
// whole-map clear() (set_*_all) or reset(), which keeps probe chains
// tombstone-free.  reserve() sizes the slot array up front, so a map
// that stays within its reservation never allocates after set-up.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "simnet/check.h"

namespace pardsm {

template <typename V>
class PairMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "PairMap is for trivially copyable mapped types");

 public:
  PairMap() = default;

  /// Pointer to the value stored for `key`, or nullptr when the pair has
  /// never been touched (caller falls back to the default).
  [[nodiscard]] const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      // kEmpty first: the reserved key must miss, not match a vacant slot.
      if (s.key == kEmpty) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  [[nodiscard]] V* find(std::uint64_t key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  /// Value for `key`, inserting `init` first if the pair is new.  The
  /// returned reference is invalidated by the next insertion (rehash).
  /// Only an insertion can rehash.
  V& get_or_insert(std::uint64_t key, const V& init) {
    PARDSM_CHECK(key != kEmpty, "PairMap: reserved key");
    if (V* v = find(key)) return *v;
    if ((size_ + 1) * 2 > slots_.size()) grow();
    return insert_new(key, init);
  }

  /// Room for `entries` keys without a rehash (a no-op when the slot
  /// array is already that large).
  void reserve(std::size_t entries) {
    if (entries == 0) return;
    std::size_t want = 16;
    while (want < entries * 2) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  /// Drop every entry (the map falls back to "all pairs at default") and
  /// release the slot array.
  void clear() {
    slots_.clear();
    slots_.shrink_to_fit();
    size_ = 0;
  }

  /// Drop every entry but keep the slot array for reuse.
  void reset() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  /// Call `fn(key, value)` for every entry, in slot (unspecified) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) fn(s.key, s.value);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Bytes held by the slot array (capacity, not just live entries) —
  /// what the O(active pairs) memory claim is measured against.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  static constexpr std::uint64_t kEmpty = ~0ULL;

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// SplitMix64-style finalizer: packed pair indices are highly regular
  /// (consecutive `to` values share a `from` stripe), so the multiply-xor
  /// cascade is what spreads them across the table.
  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const {
    std::uint64_t z = key + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::size_t>(z ^ (z >> 31)) & mask();
  }

  /// Place a key known to be absent; the array must have room for it.
  V& insert_new(std::uint64_t key, const V& value) {
    std::size_t i = probe_start(key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask();
    slots_[i] = Slot{key, value};
    ++size_;
    return slots_[i].value;
  }

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  /// Move every entry into a fresh array of `capacity` slots.
  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmpty) insert_new(s.key, s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace pardsm
