// Event tracing for debugging and figure regeneration.
//
// A Trace is an append-only log of network-level events.  It is disabled by
// default (protocol benchmarks should not pay for it); when enabled it can
// be dumped in a stable, diffable text format.
//
// Only the sequential Simulator records into a Trace, from its one
// thread, so the log takes no lock; read it after the run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "simnet/ids.h"
#include "simnet/sim_time.h"

namespace pardsm {

/// One trace record.
struct TraceEntry {
  enum class Type { kSend, kDeliver, kDrop, kTimer };
  Type type = Type::kSend;
  TimePoint when{};
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  std::uint64_t msg_id = 0;
  std::string kind;  ///< MessageMeta::kind or timer tag description
};

/// Append-only event log, written by the Simulator's thread only.
class Trace {
 public:
  /// Enable or disable recording (disabled by default).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Append one entry if enabled.
  void record(TraceEntry e);

  /// Snapshot of all entries so far.
  [[nodiscard]] std::vector<TraceEntry> entries() const { return entries_; }

  /// Number of entries recorded.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Human-readable dump, one line per entry.
  void dump(std::ostream& os) const;

  void clear() { entries_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<TraceEntry> entries_;
};

/// Short label for a trace entry type ("SEND", "DELV", "DROP", "TIMR").
[[nodiscard]] const char* to_string(TraceEntry::Type t);

}  // namespace pardsm
