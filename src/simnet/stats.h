// Traffic accounting.
//
// NetworkStats reduces message traffic to the quantities the paper reasons
// about: per-process message/byte counts split into control vs payload, and
// per-(process, variable) *exposure* — how often a process received
// metadata mentioning a given variable.  The exposure table is exactly the
// empirical version of the paper's "x-relevant" notion (DESIGN.md T1/T2).
//
// Exposure is a dense per-process counter array indexed by VarId.  Rows
// are pre-sized to the run's variable count (set_var_hint — the engine
// knows m), so the per-delivery update is a plain indexed increment with
// no size branch taken; lazy growth survives only as a guarded fallback
// for callers that never declared a variable count.  Pre-sizing also
// makes row shapes — not just values — independent of receipt order,
// which the ragged lazily-grown rows were not.
//
// Ownership, not a lock.  Each process has one cache-line-aligned slot
// holding its counters and its exposure row, and a slot is written only by
// its process's owner thread: on_send writes m.from's slot, on_deliver
// m.to's, and every root calls each from the thread that runs that
// process — the Simulator's one thread, the parallel root's owning shard
// (or its coordinator while the workers are parked), a wall-clock root's
// mailbox worker.  The parallel and wall-clock roots check that the caller
// of send() owns `from`; a delivery runs on the receiver's owner by
// construction.  No two threads ever write one slot or share its cache
// line, so the per-message path takes no mutex.
//
// Readers (traffic, total, exposure_sets, ...) and the sizing calls
// (resize, set_var_hint, clear) need every writer's stores to happen
// before them.  Each root provides that edge where its runs already end:
// the parallel root joins its helpers' window through the `working_`
// release/acquire count and stops them with a join; ThreadRuntime's
// await_quiescence reads the `pending_` count with acquire after every
// handler released it by a read-modify-write (so that read synchronizes
// with all of them through the release sequence); and stop()/halt() of
// either wall-clock root join its workers.  Reading during a run is a
// data race.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "simnet/ids.h"
#include "simnet/message.h"

namespace pardsm {

/// Aggregated counters for one process.
struct ProcessTraffic {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t control_bytes_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t control_bytes_received = 0;
  std::uint64_t payload_bytes_received = 0;

  [[nodiscard]] std::uint64_t wire_bytes_sent() const {
    return control_bytes_sent + payload_bytes_sent + 16 * msgs_sent;
  }
};

/// Traffic accounting shared by every root: one slot per process, written
/// only by that process's owner thread (see the file comment).
class NetworkStats {
 public:
  explicit NetworkStats(std::size_t n = 0) { resize(n); }

  /// (Re)size for `n` processes, clearing all counters.  Exposure rows are
  /// pre-sized to the current variable-count hint.
  void resize(std::size_t n);

  /// Declare the run's variable count `m`: every exposure row (current and
  /// future) is pre-sized to m entries, keeping the per-delivery update
  /// branch-free and row shapes receipt-order independent.  Idempotent;
  /// a larger hint extends existing rows in place.
  void set_var_hint(std::size_t m);
  /// The largest variable count declared so far (0 = none).
  [[nodiscard]] std::size_t var_hint() const { return var_hint_; }

  /// Record a message leaving `m.from`; call on m.from's owner thread.
  void on_send(const Message& m);

  /// Record a message arriving at `m.to`, updating its variable exposure;
  /// call on m.to's owner thread.  A negative VarId throws and leaves the
  /// slot unchanged.
  void on_deliver(const Message& m);

  /// Counters for process `p`.
  [[nodiscard]] ProcessTraffic traffic(ProcessId p) const;

  /// Counters for every process in one pass.
  [[nodiscard]] std::vector<ProcessTraffic> per_process_snapshot() const;

  /// Sum of counters over all processes.
  [[nodiscard]] ProcessTraffic total() const;

  /// How many received messages mentioned variable `x` at process `p`.
  [[nodiscard]] std::uint64_t exposure(ProcessId p, VarId x) const;

  /// Set of processes with nonzero exposure to `x` — the *observed*
  /// x-relevant set (plus C(x) members that only send).
  [[nodiscard]] std::set<ProcessId> processes_exposed_to(VarId x) const;

  /// processes_exposed_to for every variable in [0, var_count) in one
  /// pass (what run-result collection wants).
  [[nodiscard]] std::vector<std::set<ProcessId>> exposure_sets(
      std::size_t var_count) const;

  /// Set of variables process `p` has been exposed to.
  [[nodiscard]] std::set<VarId> variables_seen_by(ProcessId p) const;

  /// Total messages delivered across all processes.
  [[nodiscard]] std::uint64_t messages_delivered() const;

  /// Reset all counters, keeping the size.
  void clear();

 private:
  /// One process's ledger, on cache lines of its own.
  struct alignas(64) Slot {
    ProcessTraffic traffic;
    /// exposure[x] = number of received messages mentioning x; dense over
    /// VarId, pre-sized to var_hint_ and grown past it only by the guarded
    /// fallback in on_deliver.
    std::vector<std::uint64_t> exposure;
  };

  /// `p` as a slot index; throws `what` when out of range.
  [[nodiscard]] std::size_t index(ProcessId p, const char* what) const;

  std::vector<Slot> slots_;  ///< one per process
  std::size_t var_hint_ = 0;
};

}  // namespace pardsm
