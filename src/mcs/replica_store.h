// Per-process variable store with write provenance.
//
// Each MCS process keeps local copies of exactly the variables in X_i
// (partial replication) or of every variable (full replication).  Stored
// values carry the WriteId of the write that produced them, so that reads
// recorded into histories have an exact read-from source.
//
// Storage is sized by X_i, not by m: values live in a flat slot array
// parallel to the sorted variable list, and x's slot is its index in that
// list.  Under full replication (and any prefix 0..k-1) vars_[x] == x, so
// a lookup is one indexed load; otherwise it is a binary search over
// |X_i| entries.  A negative or unheld VarId reads as "not held" without
// ever sizing anything by its value.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "simnet/ids.h"

namespace pardsm::mcs {

/// A stored value plus its provenance.
struct Stored {
  Value value = kBottom;
  WriteId source{};  ///< kInitialWrite for the initial ⊥
};

/// The local replica set of one MCS process.
class ReplicaStore {
 public:
  /// Construct holding exactly `vars` (every entry initialized to ⊥).
  explicit ReplicaStore(const std::vector<VarId>& vars = {});

  /// True if x is locally replicated.
  [[nodiscard]] bool holds(VarId x) const { return slot_of(x) >= 0; }

  /// Current content of x.  Requires holds(x).
  [[nodiscard]] const Stored& get(VarId x) const;

  /// Overwrite x with (value, source).  Requires holds(x).
  void put(VarId x, Value value, WriteId source);

  /// Locally replicated variables (sorted).
  [[nodiscard]] const std::vector<VarId>& vars() const { return vars_; }

  /// Number of applied puts (diagnostics).
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  /// Slot of x, or -1 when x is not replicated here.  Sorted distinct
  /// non-negative ids satisfy vars_[i] >= i, so x can only sit at an
  /// index <= x — and sits exactly there under full replication.
  [[nodiscard]] std::int32_t slot_of(VarId x) const {
    if (x < 0) return -1;
    const auto xi = static_cast<std::size_t>(x);
    if (xi < vars_.size() && vars_[xi] == x) {
      return static_cast<std::int32_t>(xi);
    }
    // Lower bound over vars_[0, min(x, |X_i|)) with no data-dependent
    // branch in the halving step (a conditional move, not a jump): at
    // |X_i| ~ 12 mispredicted jumps made this lookup measurably slower.
    std::size_t len = std::min(xi, vars_.size());
    if (len == 0) return -1;
    const VarId* first = vars_.data();
    const VarId* const end = first + len;
    while (len > 1) {  // the lower bound stays within [first, first + len]
      const std::size_t half = len / 2;
      first += first[half] < x ? half : 0;
      len -= half;
    }
    first += *first < x ? 1 : 0;
    return first != end && *first == x
               ? static_cast<std::int32_t>(first - vars_.data())
               : -1;
  }

  std::vector<Stored> data_;  ///< data_[i] holds vars_[i]
  std::vector<VarId> vars_;   ///< sorted replicated variables
  std::uint64_t version_ = 0;
};

}  // namespace pardsm::mcs
