// Channel behaviour: latency, FIFO ordering, loss, duplication, partitions
// and process downtime.
//
// Network decides *when* (and whether, and how many times) each sent
// message is delivered.  It is deliberately independent of the event queue
// so channel semantics can be unit-tested in isolation.
//
// RNG stream isolation: latency sampling and fault decisions draw from two
// decorrelated generators.  The latency stream is consumed once per send
// in a fixed position (sampled *before* any fault decision), so changing
// loss or duplication rates — statically via ChannelOptions or dynamically
// via the per-pair setters a Scenario drives — never perturbs the latency
// a surviving message would have received in the fault-free run.  The
// extra copy of a duplicated message samples its latency from the fault
// stream for the same reason.  tests/test_scenario.cpp pins this.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/check.h"
#include "simnet/ids.h"
#include "simnet/latency.h"
#include "simnet/pair_map.h"
#include "simnet/rng.h"
#include "simnet/sim_time.h"

namespace pardsm {

/// Per-channel fault and ordering knobs.
struct ChannelOptions {
  /// Deliver messages of each directed pair in send order.  PRAM and slow
  /// protocols rely on FIFO; causal protocols tolerate reordering.
  bool fifo = true;

  /// Probability that a message is silently dropped.
  double drop_probability = 0.0;

  /// Probability that a message is delivered twice.
  double duplicate_probability = 0.0;
};

/// Delivery times of one sent message: empty if dropped, two entries if
/// duplicated.  A fixed-capacity value type so planning a delivery never
/// touches the heap.
struct DeliveryPlan {
  std::array<TimePoint, 2> at{};
  std::uint8_t count = 0;

  void push(TimePoint t) {
    PARDSM_CHECK(count < at.size(),
                 "DeliveryPlan: more deliveries than the fixed capacity "
                 "(one original + one duplicate)");
    at[count++] = t;
  }
  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] TimePoint operator[](std::size_t i) const { return at[i]; }
  [[nodiscard]] const TimePoint* begin() const { return at.data(); }
  [[nodiscard]] const TimePoint* end() const { return at.data() + count; }
};

/// Time-dependent per-pair probability source installed by a scenario:
/// consulted at planning time, so probability windows need no simulator
/// events (a window that outlasts the traffic never delays quiescence).
/// Returning a negative value falls back to the network's own table.
class RateOverride {
 public:
  virtual ~RateOverride() = default;
  virtual double loss(ProcessId from, ProcessId to, TimePoint now) const = 0;
  virtual double duplicate(ProcessId from, ProcessId to,
                           TimePoint now) const = 0;
};

/// Why messages were dropped (scenario benches report the split).
struct DropCounters {
  std::uint64_t loss = 0;       ///< probabilistic channel loss
  std::uint64_t severed = 0;    ///< partitioned directed pair
  std::uint64_t down = 0;       ///< sender or receiver process down
  std::uint64_t in_flight = 0;  ///< delivery suppressed: receiver went down
  /// Frames discarded by the ARQ layer on a channel it declared dead
  /// after max_retransmits; the engine folds
  /// ReliableTransport::dead_channel_drops() in here.
  std::uint64_t dead_channel = 0;

  [[nodiscard]] std::uint64_t total() const {
    return loss + severed + down + in_flight + dead_channel;
  }
};

/// Computes delivery schedules for messages.
class Network {
 public:
  /// Build a network over `n` processes.  `latency` may be null, meaning
  /// a default 1ms constant latency.  `rng` seeds both internal streams:
  /// the latency stream is a verbatim copy (so fault-free executions are
  /// unchanged by the stream split) and the fault stream is forked from it.
  Network(std::size_t n, ChannelOptions options,
          std::unique_ptr<LatencyModel> latency, Rng rng);

  /// Decide the fate of one message sent at `send_time`.  FIFO clamping
  /// guarantees strictly increasing delivery times per directed pair when
  /// options.fifo is set.
  DeliveryPlan plan_delivery(ProcessId from, ProcessId to,
                             TimePoint send_time);

  [[nodiscard]] std::size_t process_count() const { return n_; }
  [[nodiscard]] const ChannelOptions& options() const { return options_; }

  /// Partition control: while a directed pair is severed, messages are
  /// dropped.  Cuts are counted, not flagged — overlapping partitions
  /// compose, and a pair stays severed until every cut covering it heals.
  void sever(ProcessId from, ProcessId to);
  void heal(ProcessId from, ProcessId to);
  [[nodiscard]] bool severed(ProcessId from, ProcessId to) const;

  /// Dynamic per-pair loss/duplication rates: a default (seeded from
  /// ChannelOptions) plus sparse per-pair overrides.  set_*_all rewrites
  /// the default and drops every override, which is observably what
  /// overwriting a dense table did.
  void set_loss(ProcessId from, ProcessId to, double probability);
  void set_loss_all(double probability);
  [[nodiscard]] double loss(ProcessId from, ProcessId to) const;
  void set_duplicate(ProcessId from, ProcessId to, double probability);
  void set_duplicate_all(double probability);
  [[nodiscard]] double duplicate(ProcessId from, ProcessId to) const;

  /// Install (or clear, with null) a time-dependent rate source; it must
  /// outlive the network's use of it.  Scenario::apply installs one over
  /// its probability windows.
  void set_rate_override(std::shared_ptr<const RateOverride> override_src) {
    override_ = std::move(override_src);
    refresh_fault_flag();
  }

  /// The probability a message planned now would face: the override when
  /// one is installed and covers the instant, else the table.
  [[nodiscard]] double effective_loss(ProcessId from, ProcessId to,
                                      TimePoint now) const;
  [[nodiscard]] double effective_duplicate(ProcessId from, ProcessId to,
                                           TimePoint now) const;

  /// Process downtime (crash windows): a down process neither sends nor
  /// receives; both directions drop.  The runtime additionally consults
  /// is_down() for messages already in flight at crash time.
  void set_down(ProcessId p, bool down);
  [[nodiscard]] bool is_down(ProcessId p) const;

  /// Record a delivery suppressed by the runtime because the receiver was
  /// down when the message arrived (in-flight at crash time).
  void count_in_flight_drop() { ++drops_.in_flight; }

  /// Directed pairs holding FIFO clamp state (pairs that carried at least
  /// one surviving message) — the "active pairs" of the memory model.
  [[nodiscard]] std::size_t fifo_pairs() const {
    return last_delivery_.size();
  }

  /// Explicit override entries across the loss, duplication and cut
  /// tables.  An entry count, not a pair count: a pair carrying several
  /// kinds of override contributes once per kind, and a healed pair keeps
  /// its (zero-valued) cut entry.
  [[nodiscard]] std::size_t override_entries() const {
    return loss_.size() + duplicate_.size() + severed_.size();
  }

  /// Bytes of per-pair channel state currently held (slot arrays of the
  /// four sparse tables).  O(active pairs), not O(n²): an idle or sharded
  /// system pays only for the pairs that diverged from the defaults.
  [[nodiscard]] std::size_t state_bytes() const {
    return last_delivery_.memory_bytes() + severed_.memory_bytes() +
           loss_.memory_bytes() + duplicate_.memory_bytes();
  }

  /// Messages dropped so far (fault injection, loss, downtime), total and
  /// by cause.
  [[nodiscard]] std::uint64_t dropped_count() const { return drops_.total(); }
  [[nodiscard]] const DropCounters& drop_counters() const { return drops_; }

 private:
  /// Flat index of the directed pair (from, to).
  [[nodiscard]] std::size_t pair(ProcessId from, ProcessId to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }
  void check_pair(ProcessId from, ProcessId to, const char* what) const;

  /// Recompute `has_faults_` after any fault-config mutation.  The flag is
  /// conservative: a healed cut or zero-valued override entry keeps it set
  /// (the slow path re-derives the truth), but a network nobody ever
  /// configured a fault on plans every delivery without touching the
  /// severed/down/rate tables.  Observably identical either way —
  /// Rng::chance(0.0) consumes no draw, so the fast path leaves the fault
  /// stream exactly where the slow path would.
  void refresh_fault_flag() {
    has_faults_ = override_ != nullptr || default_loss_ > 0.0 ||
                  default_duplicate_ > 0.0 || loss_.size() != 0 ||
                  duplicate_.size() != 0 || severed_.size() != 0 ||
                  down_count_ != 0;
  }

  std::size_t n_;
  ChannelOptions options_;
  std::unique_ptr<LatencyModel> latency_;
  /// Latency sampling stream: consumed exactly once per plan_delivery.
  Rng latency_rng_;
  /// Fault decision stream (loss/duplication draws, duplicate-copy
  /// latency): isolated so fault knobs never shift latency sampling.
  Rng fault_rng_;
  /// Last planned delivery time per directed pair (FIFO clamp state),
  /// allocated lazily on a pair's first surviving message: an idle pair
  /// costs nothing, so total channel state is O(active pairs), not O(n²).
  PairMap<TimePoint> last_delivery_;
  /// Cut count per directed pair (> 0 = severed); only pairs a partition
  /// ever touched have an entry.
  PairMap<std::uint32_t> severed_;
  /// Per-pair rate overrides over the ChannelOptions defaults.  The
  /// defaults answer for every absent pair; set_*_all rewrites the
  /// default and drops the overrides — observably identical to the dense
  /// tables these replaced (every pair seeded, set_*_all overwrote all).
  double default_loss_;
  double default_duplicate_;
  PairMap<double> loss_;
  PairMap<double> duplicate_;
  std::shared_ptr<const RateOverride> override_;
  std::vector<std::uint8_t> down_;
  std::size_t down_count_ = 0;  ///< processes currently down
  /// False only when no fault configuration exists at all; gates the
  /// per-message severed/down/loss/duplicate lookups in plan_delivery.
  bool has_faults_ = false;
  DropCounters drops_;
};

}  // namespace pardsm
