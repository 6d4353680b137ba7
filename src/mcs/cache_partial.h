// Cache consistency (Goodman) with partial replication — extension №1
// toward the paper's open question.
//
// The conclusion of the paper asks whether a criterion *stronger than
// PRAM* admits efficient partial replication.  As a stepping stone, cache
// consistency — per-variable sequential consistency, incomparable to PRAM
// (it totally orders each variable's writes but ignores cross-variable
// program order) — is efficiently implementable: each variable elects a
// home inside C(x) that sequences its writes; commits multicast within
// C(x) only; no process outside C(x) ever hears about x.
//
// Writes block until the writer receives its own commit (so a process's
// later reads of the variable see its own write — required by
// per-variable SC); reads are wait-free local reads.
//
// The class is deliberately subclassable: ProcessorPartialProcess layers
// cross-variable per-writer ordering on top (see processor_partial.h).
#pragma once

#include <deque>
#include <map>

#include "mcs/cache_messages.h"
#include "mcs/protocol.h"
#include "simnet/recycling_alloc.h"

namespace pardsm::mcs {

/// One process of the per-variable-sequencer cache-consistency protocol.
class CachePartialProcess : public McsProcess {
 public:
  CachePartialProcess(ProcessId self, const graph::Distribution& dist,
                      HistoryRecorder& recorder,
                      std::shared_ptr<const CliqueTable> cliques);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override { return "cache-partial"; }
  [[nodiscard]] bool wait_free() const override { return false; }

  /// Home of variable x: the lowest-id member of C(x).
  [[nodiscard]] ProcessId home_of(VarId x) const;

 protected:
  /// Commits for x reach this process only from x's home, so a re-synced
  /// copy served by the home rides the same FIFO channel as any backlog
  /// and can safely be adopted.  (The PC subclass re-vetoes: its
  /// prior-count buffering is a delivery gate adoption must not jump.)
  [[nodiscard]] bool resync_adoptable(VarId x, ProcessId responder,
                                      const WriteId&) const override {
    return responder == home_of(x);
  }

  struct PendingWrite {
    VarId x = kNoVar;
    Value v = kBottom;
    WriteId id{};
    WriteCallback done;
    TimePoint invoked{};
  };

  /// Metadata the processor-consistency subclass attaches to a write: per
  /// prospective receiver, the count of this writer's prior writes the
  /// receiver replicates.  Plain cache consistency returns {}.
  [[nodiscard]] virtual detail::PriorCounts prior_counts_for(VarId x);

  /// Hook: may this commit be applied now?  (PC buffers out-of-order
  /// cross-variable commits; plain cache never buffers.)
  [[nodiscard]] virtual bool commit_ready(const Message& m);

  /// Hook: a commit by `writer` has just been applied here.
  virtual void on_applied(ProcessId writer);

  /// Deliver a commit: apply immediately or buffer until ready.
  void handle_commit(const Message& m);

  /// Apply one commit (store update + completion of own writes).
  void apply_commit(const Message& m);

  /// Home side: assign the next per-variable sequence number & multicast.
  void sequence(VarId x, Value v, WriteId id, ProcessId requester,
                TimePoint invoked, std::int64_t writer_seq,
                const detail::PriorCounts& prior_counts);

  /// Pool handles cached at attach() so each request/commit is a freelist
  /// pop (shared with the processor-consistency subclass).
  BodyPool<detail::CacheWriteReq>* request_pool_ = nullptr;
  BodyPool<detail::CacheCommit>* commit_pool_ = nullptr;
  std::int64_t next_write_seq_ = 0;
  std::map<VarId, std::int64_t> var_seq_;  ///< home-side per-var counters
  /// Node freelist for the per-in-flight-write map below (declared first:
  /// the container must die before its pool).
  RecyclingPool node_pool_;
  std::map<WriteId, PendingWrite, std::less<WriteId>,
           RecyclingAlloc<std::pair<const WriteId, PendingWrite>>>
      waiting_{RecyclingAlloc<std::pair<const WriteId, PendingWrite>>(
          &node_pool_)};
  std::deque<Message> buffer_;  ///< commits awaiting commit_ready (PC)
  /// Duplicate suppression: highest var_seq applied per variable.
  std::map<VarId, std::int64_t> applied_var_seq_;
};

}  // namespace pardsm::mcs
