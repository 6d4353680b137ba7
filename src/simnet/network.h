// Channel behaviour: latency, FIFO ordering, loss, duplication, partitions
// and process downtime.
//
// ChannelFaults is every root's fault state, and its fate() alone decides
// whether (and how many times) a sent message arrives.  On both
// deterministic roots ChannelState::plan adds *when*, updating one owner's
// ChannelState (the Simulator's Network holds one, each ParallelSimulator
// shard another); the wall-clock roots ask fate() in their send.  Nothing
// here touches the event queue, so channel semantics can be unit-tested
// in isolation.
//
// RNG stream isolation: the caller supplies a latency stream and a fault
// stream.  The latency stream is drawn exactly once per send, before any
// fault decision, so changing loss or duplication rates — statically via
// ChannelOptions or dynamically via the per-pair setters a Scenario
// drives — never perturbs the latency a surviving message would have
// received in the fault-free run.  The extra copy of a duplicated message
// samples its latency from the fault stream for the same reason.
// tests/test_scenario.cpp pins this.
#pragma once

#include <array>
#include <atomic>
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

/// Relaxed atomic load of a field that one writer may update while other
/// threads read it (std::atomic_ref): a plain load on x86.
template <typename T>
[[nodiscard]] T relaxed_load(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field))
      .load(std::memory_order_relaxed);
}

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

/// What the run's faults do to one sent message: the copies that arrive
/// (0, 1 or 2) and, when none does, the counter of the drop's cause.
struct SendFate {
  int copies = 1;
  std::uint64_t DropCounters::*cause = nullptr;
};

/// Fault state of a run's channels, shared by every owner of channel
/// state.  Scenario events change cut counts and down flags while owner
/// threads read them, so those and the has-faults flag are relaxed
/// atomics.  Each has one writer: on the simulators the event loop or the
/// stop-the-world global; on a wall-clock root the timeline thread for
/// cuts and each process's own worker for its down flag (the has-faults
/// flag is only ever set).  Rates, the RateOverride and the cut table's
/// entries are set before the run starts (Scenario::apply reserves them).
class ChannelFaults {
 public:
  /// `options` seeds the default loss and duplication rates.
  ChannelFaults(std::size_t n, const ChannelOptions& options);

  [[nodiscard]] std::size_t process_count() const { return n_; }

  /// Partition control: while a directed pair is severed, messages are
  /// dropped.  Cuts are counted, not flagged — overlapping partitions
  /// compose, and a pair stays severed until every cut covering it heals.
  void sever(ProcessId from, ProcessId to);
  void heal(ProcessId from, ProcessId to);
  [[nodiscard]] bool severed(ProcessId from, ProcessId to) const;
  /// Insert the pair's zero cut entry before readers run: a later
  /// sever/heal of it then neither inserts nor rehashes.
  void reserve_cut(ProcessId from, ProcessId to);

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
  /// outlive the run's use of it.  Scenario::apply installs one over its
  /// probability windows.
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

  /// False only while no fault was ever configured (see has_faults_).
  [[nodiscard]] bool has_faults() const { return relaxed_load(has_faults_); }

  /// The fate of a message (from, to) sent at `now` on a checked pair: a
  /// cut pair, then a down endpoint drop it without a draw; else loss and
  /// then duplication are drawn from `fault_rng()` (returning Rng&) at the
  /// effective rates.  A zero rate calls no fault_rng().
  template <typename FaultRng>
  [[nodiscard]] SendFate fate(ProcessId from, ProcessId to, TimePoint now,
                              FaultRng&& fault_rng) const;

  /// Explicit override entries across the loss, duplication and cut
  /// tables.  An entry count, not a pair count: a pair carrying several
  /// kinds of override contributes once per kind, and a healed pair keeps
  /// its (zero-valued) cut entry.
  [[nodiscard]] std::size_t override_entries() const {
    return loss_.size() + duplicate_.size() + severed_.size();
  }

  /// Bytes held by the three sparse override tables.
  [[nodiscard]] std::size_t table_bytes() const {
    return severed_.memory_bytes() + loss_.memory_bytes() +
           duplicate_.memory_bytes();
  }

  /// Flat index of the directed pair (from, to): the key of every
  /// per-pair table, these and each owner's FIFO clamp.
  [[nodiscard]] std::size_t pair(ProcessId from, ProcessId to) const {
    return static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to);
  }
  void check_pair(ProcessId from, ProcessId to, const char* what) const;

 private:
  /// Only ever sets the flag, so concurrent writers all store `true`.
  void refresh_fault_flag(bool down = false) {
    if (down || override_ != nullptr || default_loss_ > 0.0 ||
        default_duplicate_ > 0.0 || loss_.size() != 0 ||
        duplicate_.size() != 0 || severed_.size() != 0) {
      std::atomic_ref<bool>(has_faults_).store(true, std::memory_order_relaxed);
    }
  }

  std::size_t n_;
  /// Cut count per directed pair (> 0 = severed); only pairs a partition
  /// ever touched have an entry.
  PairMap<std::uint32_t> severed_;
  /// Per-pair rate overrides over the ChannelOptions defaults; the
  /// defaults answer for every absent pair.
  double default_loss_;
  double default_duplicate_;
  PairMap<double> loss_;
  PairMap<double> duplicate_;
  std::shared_ptr<const RateOverride> override_;
  std::vector<std::uint8_t> down_;
  /// False only while no fault was ever configured: fate() then skips
  /// every lookup here and never touches the fault stream.  Sticky (a
  /// cleared rate, a healed or reserved cut, a recovered process keep it
  /// set) and observably free, since Rng::chance(0.0) consumes no draw.
  bool has_faults_ = false;
};

template <typename FaultRng>
SendFate ChannelFaults::fate(ProcessId from, ProcessId to, TimePoint now,
                             FaultRng&& fault_rng) const {
  if (!has_faults()) return {};
  if (const std::uint32_t* cuts = severed_.find(pair(from, to));
      cuts != nullptr && relaxed_load(*cuts) != 0) {
    return {0, &DropCounters::severed};
  }
  if (relaxed_load(down_[static_cast<std::size_t>(from)]) != 0 ||
      relaxed_load(down_[static_cast<std::size_t>(to)]) != 0) {
    return {0, &DropCounters::down};
  }
  const double loss = effective_loss(from, to, now);
  if (loss > 0.0 && fault_rng().chance(loss)) return {0, &DropCounters::loss};
  const double duplicate = effective_duplicate(from, to, now);
  return {duplicate > 0.0 && fault_rng().chance(duplicate) ? 2 : 1};
}

/// One owner's channel state: its latency model, the FIFO clamp of the
/// directed pairs it sends on, and its drop counters.
struct ChannelState {
  /// Decide the fate of one message sent at `send_time` (the pair must be
  /// valid).  Draws latency once from `latency_rng`; fate() calls
  /// `fault_rng()` only when a fault is configured, so a caller that
  /// builds its fault stream per message builds none on a fault-free run.
  /// With `fifo`, delivery times per directed pair strictly increase.
  template <typename FaultRng>
  DeliveryPlan plan(const ChannelFaults& faults, ProcessId from,
                    ProcessId to, TimePoint send_time, Rng& latency_rng,
                    FaultRng&& fault_rng);

  bool fifo = true;
  std::unique_ptr<LatencyModel> latency;  ///< never null
  /// Smallest latency any sample may take: the parallel root's quantum (a
  /// shorter hop would land inside the window it was sent in), else zero.
  Duration floor{};
  /// Last planned delivery per directed pair, inserted on the pair's
  /// first surviving message: O(active pairs), not O(n²).
  PairMap<TimePoint> last_delivery{};
  DropCounters drops{};
};

template <typename FaultRng>
DeliveryPlan ChannelState::plan(const ChannelFaults& faults, ProcessId from,
                                ProcessId to, TimePoint send_time,
                                Rng& latency_rng, FaultRng&& fault_rng) {
  const auto sample = [&](Rng& rng) {
    const Duration lat = latency->sample(from, to, rng);
    PARDSM_CHECK(lat >= floor,
                 "latency sample below the quantum — conservative window "
                 "invariant violated");
    return lat;
  };
  // Drawn unconditionally, before any fault decision: this pins the
  // latency stream position per send.
  const Duration lat = sample(latency_rng);
  const SendFate fate = faults.fate(from, to, send_time, fault_rng);
  if (fate.copies == 0) {
    ++(drops.*fate.cause);
    return {};
  }

  DeliveryPlan deliveries;
  const std::size_t ij = faults.pair(from, to);
  const auto clamp_push = [&](TimePoint at) {
    if (fifo) {
      // The reference is used before any further insertion can rehash.
      TimePoint& last = last_delivery.get_or_insert(ij, TimePoint{});
      if (at <= last) at = last + micros(1);
      last = at;
    }
    deliveries.push(at);
  };
  clamp_push(send_time + lat);
  if (fate.copies == 2) {
    // The extra copy must not displace anyone's latency-stream draw.
    clamp_push(send_time + sample(fault_rng()));
  }
  return deliveries;
}

/// The sequential root's channel: the run's fault state plus its one
/// owner's channel state, planning over two persistent streams.
class Network : public ChannelFaults {
 public:
  /// `latency` may be null (constant 1ms).  `rng` seeds both streams: the
  /// latency stream is a verbatim copy (so fault-free executions are
  /// unchanged by the stream split), the fault stream is forked from it.
  Network(std::size_t n, ChannelOptions options,
          std::unique_ptr<LatencyModel> latency, Rng rng);

  /// Decide the fate of one message sent at `send_time`.
  DeliveryPlan plan_delivery(ProcessId from, ProcessId to,
                             TimePoint send_time);

  /// Record a delivery suppressed by the runtime because the receiver was
  /// down when the message arrived (in-flight at crash time).
  void count_in_flight_drop() { ++channel_.drops.in_flight; }

  /// Directed pairs holding FIFO clamp state (pairs that carried at least
  /// one surviving message) — the "active pairs" of the memory model.
  [[nodiscard]] std::size_t fifo_pairs() const {
    return channel_.last_delivery.size();
  }
  /// Bytes of per-pair channel state: clamp plus override tables.
  [[nodiscard]] std::size_t state_bytes() const {
    return channel_.last_delivery.memory_bytes() + table_bytes();
  }
  /// Messages dropped so far, by cause.
  [[nodiscard]] const DropCounters& drop_counters() const {
    return channel_.drops;
  }

 private:
  ChannelState channel_;
  Rng latency_rng_;  ///< drawn exactly once per plan_delivery
  Rng fault_rng_;    ///< loss/duplication draws, the duplicate's latency
};

}  // namespace pardsm
