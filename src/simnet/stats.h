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
#pragma once

#include <cstdint>
#include <mutex>
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

/// Thread-safe traffic accounting shared by both runtimes.
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
  [[nodiscard]] std::size_t var_hint() const;

  /// Pre-size only process `p`'s exposure row to `m` entries, for a ledger
  /// that records deliveries to some processes only (a parallel shard's
  /// slice); the other rows stay empty and merge_from skips them.
  void presize_exposure_row(ProcessId p, std::size_t m);

  /// Record a message leaving `m.from`.
  void on_send(const Message& m);

  /// Record a message arriving at `m.to`; updates variable exposure.
  void on_deliver(const Message& m);

  /// Counters for process `p`.
  [[nodiscard]] ProcessTraffic traffic(ProcessId p) const;

  /// Counters for every process in one pass (single lock).
  [[nodiscard]] std::vector<ProcessTraffic> per_process_snapshot() const;

  /// Sum of counters over all processes.
  [[nodiscard]] ProcessTraffic total() const;

  /// How many received messages mentioned variable `x` at process `p`.
  [[nodiscard]] std::uint64_t exposure(ProcessId p, VarId x) const;

  /// Set of processes with nonzero exposure to `x` — the *observed*
  /// x-relevant set (plus C(x) members that only send).
  [[nodiscard]] std::set<ProcessId> processes_exposed_to(VarId x) const;

  /// processes_exposed_to for every variable in [0, var_count) in one
  /// pass (single lock; what run-result collection wants).
  [[nodiscard]] std::vector<std::set<ProcessId>> exposure_sets(
      std::size_t var_count) const;

  /// Set of variables process `p` has been exposed to.
  [[nodiscard]] std::set<VarId> variables_seen_by(ProcessId p) const;

  /// Total messages delivered across all processes.
  [[nodiscard]] std::uint64_t messages_delivered() const;

  /// Element-wise add another instance's counters into this one.  The
  /// parallel engine keeps one NetworkStats per shard (each process's row
  /// is written only by its owning shard) and folds them into the engine's
  /// shared instance after the run; `other` must cover no more processes
  /// than this instance.
  void merge_from(const NetworkStats& other);

  /// Reset all counters, keeping the size.
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<ProcessTraffic> per_process_;
  /// exposure_[p][x] = number of received messages mentioning x; each row
  /// is dense over VarId, pre-sized to var_hint_ and grown past it only
  /// by the guarded fallback in on_deliver.
  std::vector<std::vector<std::uint64_t>> exposure_;
  std::size_t var_hint_ = 0;
};

}  // namespace pardsm
