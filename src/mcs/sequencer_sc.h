// Sequential consistency via a sequencer (total-order write broadcast).
//
// Process 0 doubles as the sequencer.  Writes are blocking: the writer
// sends its write to the sequencer, which assigns a global sequence number
// and multicasts the commit to C(x); the writer's operation completes when
// its own commit comes back.  Reads are wait-free local reads.
//
// Correctness: all writes are totally ordered by the sequencer; each
// process applies the FIFO-ordered projection of that total order onto its
// replicated variables; a process's read sees a prefix that includes all
// of its own completed writes.  The classical fast-read/slow-write SC
// construction.
//
// Partial-replication relevance: commits go only to C(x) — but every
// write's request crosses the sequencer, which therefore is relevant to
// *every* variable: centralisation, the other way stronger criteria defeat
// efficient partial replication (bench_theorem1_relevance reports it).
#pragma once

#include <map>

#include "mcs/protocol.h"
#include "mcs/write_id_dedup.h"
#include "simnet/recycling_alloc.h"

namespace pardsm::mcs {

struct SeqWriteRequest;
struct SeqWriteCommit;

/// One process of the sequencer-based sequentially-consistent protocol.
class SequencerScProcess final : public McsProcess {
 public:
  /// The sequencer role is held by process `kSequencer` (0).
  static constexpr ProcessId kSequencer = 0;

  SequencerScProcess(ProcessId self, const graph::Distribution& dist,
                     HistoryRecorder& recorder,
                     std::shared_ptr<const CliqueTable> cliques);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override { return "sequencer-sc"; }
  [[nodiscard]] bool wait_free() const override { return false; }

  /// Sequencer-side count of sequenced writes (0 on non-sequencers).
  [[nodiscard]] std::uint64_t sequenced() const { return sequenced_; }

 protected:
  /// Commits reach every process only from the sequencer, so copies the
  /// sequencer serves ride the same FIFO channel as any backlog and can
  /// safely be adopted.  The sequencer itself adopts nothing: its own
  /// state is ahead of (or equal to) every standby's by construction.
  [[nodiscard]] bool resync_adoptable(VarId, ProcessId responder,
                                      const WriteId&) const override {
    return responder == kSequencer && id() != kSequencer;
  }

  /// Standbys re-sync from the sequencer (the only FIFO-safe source, see
  /// resync_adoptable); the sequencer falls back to the clique default.
  [[nodiscard]] ProcessId resync_source(VarId x) const override {
    return id() == kSequencer ? McsProcess::resync_source(x) : kSequencer;
  }

 private:
  void sequence_write(VarId x, Value v, WriteId id, ProcessId requester,
                      TimePoint invoked);
  void apply_commit(VarId x, Value v, WriteId id, ProcessId requester,
                    TimePoint invoked, std::int64_t gseq);

  /// Pool handles cached at attach() so each request/commit is a
  /// freelist pop.
  BodyPool<SeqWriteRequest>* request_pool_ = nullptr;
  BodyPool<SeqWriteCommit>* commit_pool_ = nullptr;
  std::int64_t next_write_seq_ = 0;
  std::int64_t global_seq_ = 0;  ///< sequencer only
  std::uint64_t sequenced_ = 0;  ///< sequencer only
  /// Node freelist for the per-in-flight-write maps below (declared
  /// first: containers must die before their pool).
  RecyclingPool node_pool_;
  /// Writer-side: write completions waiting for their commit.
  std::map<WriteId, WriteCallback, std::less<WriteId>,
           RecyclingAlloc<std::pair<const WriteId, WriteCallback>>>
      waiting_{RecyclingAlloc<std::pair<const WriteId, WriteCallback>>(
          &node_pool_)};
  /// Writer-side: invocation times for interval recording.
  std::map<WriteId, TimePoint, std::less<WriteId>,
           RecyclingAlloc<std::pair<const WriteId, TimePoint>>>
      invoked_at_{RecyclingAlloc<std::pair<const WriteId, TimePoint>>(
          &node_pool_)};
  /// Sequencer-side duplicate suppression of write requests (watermark +
  /// frontier — a std::set would grow one node per write forever).
  WriteIdDedup sequenced_ids_;
  /// Receiver-side duplicate suppression: highest gseq applied.
  std::int64_t last_gseq_applied_ = 0;
};

}  // namespace pardsm::mcs
