// Traffic accounting.
//
// NetworkStats reduces message traffic to the quantities the paper reasons
// about: per-process message/byte counts split into control vs payload, and
// per-(process, variable) *exposure* — how often a process received
// metadata mentioning a given variable.  The exposure table is exactly the
// empirical version of the paper's "x-relevant" notion (DESIGN.md T1/T2).
//
// Exposure is a sparse per-process VarId → count map (PairMap keyed by
// VarId), so a process's ledger is sized by the variables it actually
// hears about — under partial replication a handful, whatever m is.
// Each map is reserved at set-up (resize/set_var_hint) with room for
// min(m, kReservedVars) variables, so no round of a perfbench workload
// grows one (on the wall-clock roots that growth would also land on a
// mailbox worker); a process that hears about more variables grows its
// map like any hash table.  The counts — and hence every reader below —
// are a pure function of the delivered set, independent of receipt order.
//
// Ownership, not a lock.  Each process has one cache-line-aligned slot
// holding its counters and its exposure map, and a slot is written only by
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
#include "simnet/pair_map.h"

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

  /// (Re)size for `n` processes, clearing all counters.  Each exposure
  /// map is reserved for min(var_hint(), 64) variables.
  void resize(std::size_t n);

  /// Declare the run's variable count `m` (SocketTransport rejects frames
  /// naming a variable outside [0, m)) and reserve every exposure map,
  /// current and future, for min(m, 64) variables.
  /// Idempotent; only a larger hint has an effect.
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

  /// Reset all counters, keeping the size and every map's capacity.
  void clear();

 private:
  /// One process's ledger, on cache lines of its own.
  struct alignas(64) Slot {
    ProcessTraffic traffic;
    /// x → number of received messages mentioning x; only variables
    /// with a nonzero count have an entry.
    PairMap<std::uint64_t> exposure;
  };

  /// `p` as a slot index; throws `what` when out of range.
  [[nodiscard]] std::size_t index(ProcessId p, const char* what) const;

  /// Exposure entries reserved per process at set-up (at most m): enough
  /// that no perfbench workload grows a map during a round.
  static constexpr std::size_t kReservedVars = 64;

  /// Entries each exposure map is reserved for.
  [[nodiscard]] std::size_t reserved_vars() const {
    return var_hint_ < kReservedVars ? var_hint_ : kReservedVars;
  }

  std::vector<Slot> slots_;  ///< one per process
  std::size_t var_hint_ = 0;
};

}  // namespace pardsm
