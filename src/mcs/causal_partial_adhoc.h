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
// variable y with self ∈ R(y), how many writes per writer it has seen
// (`seen[y][k]`).  A message carries the sender's seen-counters restricted
// to variables both sender and receiver track; delivery waits until the
// receiver's counters dominate them.  Correctness rests precisely on
// Theorem 1: an application-level causal chain from a write on y to a
// process r outside the metadata's reach would require an intermediary
// lying on a y-hoop — but all y-hoop members are in R(y) and do receive
// the y metadata.  (tests/test_causal_adhoc.cpp validates this against the
// exact checker over a corpus of hoop-rich topologies.)
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

  /// tracks[p] = sorted variables y with p ∈ R(y).
  std::vector<std::vector<VarId>> tracks;

  /// tracks_mask[p][y] != 0 iff p ∈ R(y): O(1) membership for the
  /// per-recipient control-byte restriction on the write hot path.
  std::vector<std::vector<std::uint8_t>> tracks_mask;

  /// Build from a distribution (enumerates nothing; polynomial).
  static std::shared_ptr<const StaticRelevance> analyze(
      const graph::Distribution& dist);
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

  /// seen[y][k]: number of writes by k on y this process has incorporated.
  [[nodiscard]] std::int64_t seen(VarId y, ProcessId k) const;

 private:
  friend class CausalBuffer;
  [[nodiscard]] Readiness check(const Message& m, std::uint64_t& resume) const;
  std::uint32_t deliver(const Message& m);
  /// Buffer key of counter seen_[y][k].
  [[nodiscard]] std::uint32_t key_of(std::size_t y, std::size_t k) const;

  /// Pool handles cached at attach() so each write is two freelist pops
  /// (one snapshot shared by the round, one message per recipient).
  BodyPool<AdHocMsg>* msg_pool_ = nullptr;
  BodyPool<DepSnapshotBody>* snap_pool_ = nullptr;
  std::shared_ptr<const StaticRelevance> analysis_;
  /// seen_[y][k]: per-writer counters, dense by VarId (an empty inner
  /// vector means y is untracked here).  Dense indexing keeps ready() —
  /// the single hottest protocol predicate — a straight array walk with
  /// no map lookups.
  std::vector<std::vector<std::int64_t>> seen_;
  /// key_base_[y]: first buffer key of tracked y.  Tracked variables are
  /// numbered densely, so the key table holds |tracks|·n heads, not m·n.
  std::vector<std::uint32_t> key_base_;
  std::int64_t next_write_seq_ = 0;
  CausalBuffer buffer_;
};

}  // namespace pardsm::mcs
