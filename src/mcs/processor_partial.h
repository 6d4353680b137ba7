// Processor consistency with partial replication — extension №2: an
// affirmative engineering answer to the paper's open question.
//
// The paper closes asking whether a consistency criterion *stronger than
// PRAM* can be efficiently implemented under partial replication.  This
// protocol guarantees PRAM ∧ cache consistency (the classic decomposition
// of Goodman's processor consistency): all processes see each writer's
// writes in program order, *and* all processes see the writes on each
// variable in one common (home-sequenced) order — strictly stronger than
// PRAM — while every message still stays inside C(x):
//
//   * per-variable home sequencing (inherited from CachePartialProcess);
//   * writes block until their own commit returns, so a writer's next
//     write is sequenced only after its previous one — the global
//     sequencing timeline respects every writer's program order;
//   * each commit carries, per receiver q, the number of the writer's
//     prior writes on variables q replicates; q buffers a commit until it
//     has applied that many — restoring cross-variable per-writer order
//     that independent homes cannot provide.
//
// Deadlock-free: the "must apply before" relation points backward in
// sequencing time, hence is acyclic; FIFO reliable channels deliver every
// needed commit.  The price is write latency (one home round trip per
// write), NOT control-information spread: Theorem 1's impossibility is
// about causal *transitivity through hoops*, which PRAM∧cache does not
// require.  bench_open_question.cpp measures both halves.
#pragma once

#include "mcs/cache_partial.h"

namespace pardsm::mcs {

/// One process of the processor-consistency (PRAM ∧ cache) protocol.
class ProcessorPartialProcess final : public CachePartialProcess {
 public:
  ProcessorPartialProcess(ProcessId self, const graph::Distribution& dist,
                          HistoryRecorder& recorder,
                          std::shared_ptr<const CliqueTable> cliques);

  [[nodiscard]] std::string name() const override {
    return "processor-partial";
  }

 protected:
  /// Re-veto what CachePartialProcess allows: PC buffers commits behind
  /// the prior-count gate, so an adopted copy could surface before the
  /// commits it depends on — recovery relies on the (gated) ARQ backlog.
  [[nodiscard]] bool resync_adoptable(VarId, ProcessId,
                                      const WriteId&) const override {
    return false;
  }

  [[nodiscard]] detail::PriorCounts prior_counts_for(VarId x) override;
  [[nodiscard]] bool commit_ready(const Message& m) override;
  void on_applied(ProcessId writer) override;

 private:
  /// sent_to_[q]: how many of my writes so far were on variables q holds.
  std::map<ProcessId, std::int64_t> sent_to_;
  /// applied_from_[w]: how many of w's commits I have applied.
  std::map<ProcessId, std::int64_t> applied_from_;
};

}  // namespace pardsm::mcs
