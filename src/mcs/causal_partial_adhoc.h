// Causal consistency with partial replication — distribution-aware
// ("ad-hoc", §3.3 of the paper).
//
// When the variable distribution is known a priori, Theorem 1 pins exactly
// who must learn about writes on x: the clique C(x) plus every process on
// an x-hoop.  This protocol routes metadata accordingly:
//
//   * value updates  UPDATE(x,v)  →  C(x) \ {writer}
//   * value-less     NOTIFY(x)    →  R(x) \ C(x)   (hoop members)
//   * nobody else hears about x, ever.
//
// Dependency metadata is per-variable: each process tracks, for every
// variable y with self ∈ R(y), how many writes of each C(y) member it has
// seen.  Only C(y) members ever write y, so an entry holds |C(y)|
// counters, keyed by the writer's position in C(y) (ascending ids), not n.
// A message carries the sender's counters restricted to variables both
// sender and receiver track — on the wire too, where each frame encodes
// exactly its recipient's entries — and delivery waits until the
// receiver's counters dominate them.  Correctness rests precisely on
// Theorem 1: an application-level causal chain from a write on y to a
// process r outside the metadata's reach would require an intermediary
// lying on a y-hoop — but all y-hoop members are in R(y) and do receive
// the y metadata.  (tests/test_property_sweep.cpp and
// tests/test_theorem1.cpp validate this against the exact checker over
// hoop-rich topologies.)
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "mcs/causal_buffer.h"
#include "mcs/protocol.h"
#include "sharegraph/hoops.h"

namespace pardsm::mcs {

/// Offline share-graph analysis shared by all processes of a system.
struct StaticRelevance {
  /// relevant[x] = R(x) = C(x) ∪ hoop members (Theorem 1).
  std::vector<std::set<ProcessId>> relevant;

  /// clique_size[y] = |C(y)|: y's writers, so the counters of a
  /// dependency entry on y.
  std::vector<std::uint32_t> clique_size;

  /// tracks[p] = sorted variables y with p ∈ R(y).
  std::vector<std::vector<VarId>> tracks;

  /// tracks_mask[p][y] != 0 iff p ∈ R(y): O(1) membership for the
  /// per-recipient restriction of a dependency snapshot.
  std::vector<std::vector<std::uint8_t>> tracks_mask;

  /// pair_control_bytes[w·n + q]: control_bytes(w, q), filled for every
  /// pair the protocol sends on (q ∈ R(x) \ {w} for some x ∈ X_w).
  std::vector<std::uint64_t> pair_control_bytes;

  /// Control bytes of every ad-hoc message besides its dependencies: the
  /// write id (16), the variable (8) and the per-(writer, variable)
  /// sequence number (8).
  static constexpr std::uint64_t kFixedControlBytes = 32;

  /// Control bytes of one dependency entry: its variable (8) plus one
  /// 8-byte counter per writer — |C(y)| of them for an entry on y.
  [[nodiscard]] static constexpr std::uint64_t entry_bytes(
      std::size_t counters) {
    return 8 + 8 * static_cast<std::uint64_t>(counters);
  }

  /// Control bytes of every message `w` sends `q`: the fixed part plus one
  /// entry per variable both track.  The protocol charges this per
  /// recipient and core::predict models with it.
  [[nodiscard]] std::uint64_t control_bytes(ProcessId w, ProcessId q) const {
    return pair_control_bytes[static_cast<std::size_t>(w) * tracks.size() +
                              static_cast<std::size_t>(q)];
  }

  /// Build from a distribution (enumerates nothing; polynomial).
  static std::shared_ptr<const StaticRelevance> analyze(
      const graph::Distribution& dist);
};

/// One entry of a dependency snapshot: variable y and its |C(y)|
/// counters, at [begin, begin + size) of the snapshot's flat counters.
struct DepEntry {
  VarId y = kNoVar;
  std::uint32_t begin = 0;
  std::uint32_t size = 0;
};

struct AdHocMsg;
struct DepSnapshotBody;

/// One process of the hoop-routed causal protocol.
class CausalPartialAdHocProcess final : public McsProcess {
 public:
  CausalPartialAdHocProcess(ProcessId self, const graph::Distribution& dist,
                            HistoryRecorder& recorder,
                            std::shared_ptr<const StaticRelevance> analysis);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override {
    return "causal-partial-adhoc";
  }
  [[nodiscard]] bool wait_free() const override { return true; }

  /// seen[y][k]: number of writes by k on y this process has incorporated
  /// (0 when y is untracked here or k ∉ C(y)).
  [[nodiscard]] std::int64_t seen(VarId y, ProcessId k) const;

 private:
  friend class CausalBuffer;
  static constexpr std::uint32_t kUntracked = 0xFFFF'FFFFU;
  static constexpr std::size_t kNotWriter = static_cast<std::size_t>(-1);

  /// key_base_[y], or kUntracked for any y this process does not track.
  [[nodiscard]] std::uint32_t base_of(VarId y) const;
  /// Position of `k` in C(y) (ascending ids), or kNotWriter if k ∉ C(y).
  [[nodiscard]] std::size_t writer_pos(VarId y, ProcessId k) const;

  [[nodiscard]] Readiness check(const Message& m, std::uint64_t& resume) const;
  std::uint32_t deliver(const Message& m);
  /// Key of the counter of sender `from` on `u.x` (the per-(writer, var)
  /// FIFO counter), checking that this process tracks x and that the
  /// sender is one of its writers.
  [[nodiscard]] std::uint32_t fifo_key(const AdHocMsg& u,
                                       ProcessId from) const;

  /// Pool handles cached at attach() so each write is two freelist pops
  /// (one snapshot shared by the round, one message per recipient).
  BodyPool<AdHocMsg>* msg_pool_ = nullptr;
  BodyPool<DepSnapshotBody>* snap_pool_ = nullptr;
  std::shared_ptr<const StaticRelevance> analysis_;
  /// All seen-counters in one flat array: tracked y owns the |C(y)|
  /// counters from key_base_[y] on, one per C(y) member in ascending-id
  /// order.  A counter's index is its CausalBuffer key, so the key table
  /// holds Σ|C(y)| heads over tracked y — neither m·n nor |tracks|·n —
  /// and check() stays a straight array walk with no map lookups.
  std::vector<std::int64_t> counters_;
  /// key_base_[y]: index of y's first counter, or kUntracked.
  std::vector<std::uint32_t> key_base_;
  /// The layout of this process's dependency snapshot: one entry per
  /// tracked variable, ascending, over the whole of counters_.
  std::vector<DepEntry> own_entries_;
  std::int64_t next_write_seq_ = 0;
  CausalBuffer buffer_;
};

}  // namespace pardsm::mcs
