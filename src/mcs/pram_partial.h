// PRAM consistency with partial replication — the paper's efficient case.
//
// Theorem 2: under PRAM no dependency chain crosses a hoop, so only C(x)
// members are x-relevant.  The protocol is correspondingly minimal:
//
//   write(x)v : apply locally, send UPDATE(x, v, writer-seq) to C(x)\{self};
//   receive   : apply immediately (FIFO channels preserve each writer's
//               program order per receiver — the pipelined RAM of [13]);
//   read(x)   : wait-free local read.
//
// Control information per update: one 16-byte write id.  Nothing is ever
// sent to a process outside C(x) — bench_theorem2_pram asserts exactly
// this from observed traffic — and an update that claims to come from
// outside C(x) is rejected on receipt.
//
// Per-process state follows the share graph, not n: the duplicate filter
// keeps one counter per *neighbour* (every other member of some C(x),
// x ∈ X_i), indexed by the sender's position in the sorted neighbour list.
#pragma once

#include <vector>

#include "mcs/protocol.h"

namespace pardsm::mcs {

struct PramUpdate;

/// One process of the PRAM partial-replication protocol.
class PramPartialProcess final : public McsProcess {
 public:
  PramPartialProcess(ProcessId self, const graph::Distribution& dist,
                     HistoryRecorder& recorder);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override { return "pram-partial"; }
  [[nodiscard]] bool wait_free() const override { return true; }

 protected:
  /// Updates of x reach this process straight from each writer, so a
  /// re-synced copy of the responder's *own* writes rides the same FIFO
  /// channel as any backlog and can safely be adopted.
  [[nodiscard]] bool resync_adoptable(VarId, ProcessId responder,
                                      const WriteId& source) const override {
    return source.writer == responder;
  }

 private:
  /// Pool handle cached at attach() so each write is a freelist pop.
  BodyPool<PramUpdate>* update_pool_ = nullptr;
  std::int64_t next_write_seq_ = 0;
  /// Share-graph neighbours: ∪ C(x) over x ∈ X_i, minus self, ascending.
  /// Built at attach() from the shared clique table.
  std::vector<ProcessId> neighbours_;
  /// Duplicate suppression: highest writer-seq applied per neighbour
  /// (parallel to neighbours_, -1 = nothing applied).  FIFO channels
  /// deliver originals in order; a duplicated copy arrives late and must
  /// not overwrite newer state.
  std::vector<std::int64_t> last_applied_;
};

}  // namespace pardsm::mcs
