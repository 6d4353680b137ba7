// History recording.
//
// Protocols report every application-level operation here; the recorder
// assembles a hist::History with exact read-from provenance and real-time
// intervals, which the test suite feeds to the exact consistency checkers.
// Thread-safe: the thread and socket roots record from one mailbox thread
// per process, the parallel root from one thread per shard.
//
// Three modes:
//
//   * Direct (default): operations are pushed into the History as they
//     arrive, so the History's global order is arrival order.  This is
//     what the sequential simulator has always produced and what the
//     golden histories pin.  The one History is shared by every process,
//     so this mode takes a mutex per operation.
//   * Canonical: operations are buffered per process and the History is
//     rebuilt at take_history() in (process, program-order) — a pure
//     function of each process's own execution, independent of how
//     processes interleave.  The parallel engine uses this so the same
//     run yields a byte-identical History at any thread count.
//   * Discard: each process only counts its operations.
//
// Canonical and discard modes take no lock.  A process records only its
// own operations, from its own shard or mailbox thread, into its own
// cache-line-aligned slot (buffer and counter), so no two threads ever
// write one slot or share its cache line.  The readers — size(),
// discarded_ops(), take_history() — run after the run has joined those
// threads.
#pragma once

#include <mutex>
#include <vector>

#include "history/history.h"
#include "simnet/sim_time.h"

namespace pardsm::mcs {

/// Thread-safe builder of a hist::History from live protocol runs.
class HistoryRecorder {
 public:
  HistoryRecorder(std::size_t process_count, std::size_t var_count)
      : history_(process_count, var_count),
        process_count_(process_count),
        var_count_(var_count),
        slots_(process_count) {}

  /// Switch to canonical assembly (see file comment).  Must be called
  /// before any operation is recorded.
  void use_canonical_order();

  /// Count-only mode: record_* keep per-op counters but store nothing, so
  /// memory stays O(1) no matter how many operations stream through —
  /// what lets a generated-workload run push millions of ops with peak
  /// RSS independent of the op count.  take_history()/history() return an
  /// empty (correctly-shaped) History.  Must be called before any
  /// operation is recorded; overrides canonical buffering.
  void use_discard_mode();

  /// Operations seen while in discard mode (0 otherwise).  Sums the
  /// per-process counters: call it after the run, not during it.
  [[nodiscard]] std::uint64_t discarded_ops() const;

  /// Record a completed write (its WriteId must be the one the protocol
  /// attached to the stored value).
  void record_write(ProcessId p, VarId x, Value v, WriteId id,
                    TimePoint invoked, TimePoint responded);

  /// Record a completed read returning `got` (value + provenance).
  void record_read(ProcessId p, VarId x, Value value, WriteId source,
                   TimePoint invoked, TimePoint responded);

  /// Snapshot of the history so far (copy; safe after the run finished).
  [[nodiscard]] hist::History history() const;

  /// Move the history out (no copy).  The recorder is empty afterwards —
  /// only for drivers that are done with it.  Canonical mode builds the
  /// History here, in (process, program order).
  [[nodiscard]] hist::History take_history();

  /// Number of recorded operations (after the run in canonical and
  /// discard modes, like discarded_ops()).
  [[nodiscard]] std::size_t size() const;

 private:
  /// One buffered operation of canonical mode.
  struct PendingOp {
    bool is_write = false;
    VarId x = kNoVar;
    Value value = kBottom;
    WriteId id{};  ///< the write's own id, or a read's source
    TimePoint invoked{};
    TimePoint responded{};
  };

  /// One process's slot, written only by that process's thread or shard.
  /// Aligned to a cache line so neighbouring processes never share one.
  struct alignas(64) Slot {
    std::uint64_t discarded = 0;     ///< discard mode: operations seen
    std::vector<PendingOp> pending;  ///< canonical mode: program order
  };

  [[nodiscard]] hist::History build_canonical() const;

  mutable std::mutex mu_;  ///< direct mode only: guards history_
  hist::History history_;
  std::size_t process_count_;
  std::size_t var_count_;
  bool canonical_ = false;
  bool discard_ = false;
  std::vector<Slot> slots_;  ///< one per process
};

}  // namespace pardsm::mcs
