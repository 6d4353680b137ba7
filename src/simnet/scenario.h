// Scripted fault scenarios: deterministic timelines of partitions, crashes
// and channel-quality changes.
//
// A Scenario is a value: a list of timed fault events built fluently —
//
//   Scenario s("lossy-partition");
//   s.set_loss(0.01)                                  // from t=0, forever
//    .partition({{0, 1, 2}, {3, 4, 5}}, after(millis(2)), after(millis(6)))
//    .crash(1, after(millis(3)), after(millis(5)));
//
// apply() installs the probability windows as the run's send-time rate
// source and turns the structural events (partitions, crashes) into
// scheduled closures mutating the run's ChannelFaults (severed pairs,
// down flags) — simulator events, parallel globals, or entries on a
// wall-clock root's timeline, where 1 simulated µs is 1 µs.  On the
// simulators the same Scenario replays bit-identically for a given seed:
// fault *timing* is scripted, fault *draws* (which message is lost) come
// from the channel's dedicated fault RNG stream.
// Crash and recovery additionally call back into the driver (hooks) so
// the MCS layer can drop in-flight state and re-sync replicas; the simnet
// layer itself knows nothing about protocols.  Both the rate source and
// the scheduled closures reference the Scenario, which must therefore
// outlive the run.
//
// Probability windows are *state*, not deltas, and they are resolved per
// message at its send time through a RateOverride (network.h): a message
// sent at t faces "the most recently opened window covering the pair at
// t, else the ChannelOptions base".  Nested, crossed and same-instant
// windows therefore all compose without ordering surprises, and a window
// that outlasts the traffic never delays quiescence on any root (window
// edges are no events).  Partitions are counted cuts: overlapping
// partitions keep a pair severed until every cut covering it heals.
// Crash windows of one process must not overlap (enforced at build time).
//
// Liveness contract: every partition must heal and every crash must
// recover (enforced at build time).  Messages lost to faults are repaired
// by the ARQ layer when the run is routed through ReliableTransport —
// mcs::run does that automatically whenever faulty() is true —
// so a run always quiesces with every channel drained.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "simnet/ids.h"
#include "simnet/sim_time.h"

namespace pardsm {

class ChannelFaults;
class ParallelSimulator;
class Simulator;

/// Timeline helper: the absolute simulated time `d` after the epoch.
/// Scenario call sites read `s.crash(1, after(millis(3)), after(millis(5)))`.
constexpr TimePoint after(Duration d) { return kTimeZero + d; }

/// Driver callbacks for crash events, invoked where the event fires: in
/// the event loop at its simulated time, or on a wall-clock root on the
/// victim's own worker.
struct ScenarioHooks {
  std::function<void(ProcessId, TimePoint)> on_crash;
  std::function<void(ProcessId, TimePoint)> on_recover;
};

/// One primitive timeline entry (the builders below expand high-level
/// calls into these).
struct FaultEvent {
  enum class Type : std::uint8_t {
    kSever,    ///< cut every cross-group directed pair
    kHeal,     ///< restore every cross-group directed pair
    kCrash,    ///< mark process `a` down; invoke on_crash
    kRecover,  ///< mark process `a` up; invoke on_recover
  };

  Type type = Type::kSever;
  TimePoint at{};
  /// The victim for kCrash/kRecover (unused otherwise).
  ProcessId a = kNoProcess;
  /// Partition groups for kSever/kHeal (see Scenario::partition: a process
  /// not listed in any group forms its own singleton group).
  std::vector<std::vector<ProcessId>> groups;
};

/// One probability window: `prob` on pair (a, b) — or every pair when
/// a == kNoProcess — while open <= t < close.
struct ProbWindow {
  ProcessId a = kNoProcess;
  ProcessId b = kNoProcess;
  double prob = 0.0;
  TimePoint open{};
  TimePoint close = kTimeForever;
};

/// A deterministic, scriptable timeline of faults.
class Scenario {
 public:
  explicit Scenario(std::string name = "scenario") : name_(std::move(name)) {}

  // -- builders (all return *this for chaining) ----------------------------

  /// Loss probability on every directed pair, from `from` until `until`
  /// (exclusive).  Windows compose by plan-time resolution: a message
  /// sent at t faces the most recently opened window covering its pair
  /// at t (builder order breaks ties), else the run's ChannelOptions
  /// value.  kTimeForever = hold to the end of the run.
  Scenario& set_loss(double probability, TimePoint from = kTimeZero,
                     TimePoint until = kTimeForever);

  /// Loss probability on one directed pair.
  Scenario& set_loss(ProcessId from_p, ProcessId to_p, double probability,
                     TimePoint from = kTimeZero,
                     TimePoint until = kTimeForever);

  /// Duplication probability on every directed pair (same window
  /// semantics as set_loss).
  Scenario& duplicate(double probability, TimePoint from = kTimeZero,
                      TimePoint until = kTimeForever);

  /// Duplication probability on one directed pair.
  Scenario& duplicate(ProcessId from_p, ProcessId to_p, double probability,
                      TimePoint from = kTimeZero,
                      TimePoint until = kTimeForever);

  /// Cut the network into `groups` at `at`: every directed pair whose
  /// endpoints are in different groups (a process not listed in any group
  /// forms its own singleton) is severed; at `heal_at` exactly those pairs
  /// are healed.  heal_at must be a real time (liveness).
  Scenario& partition(std::vector<std::vector<ProcessId>> groups,
                      TimePoint at, TimePoint heal_at);

  /// Crash process `p` at `at`: deliveries to and sends from p drop until
  /// `recover_at`, when the driver hook re-syncs its replicas.  recover_at
  /// must be a real time (liveness), and one process's crash windows must
  /// not overlap (enforced here).
  Scenario& crash(ProcessId p, TimePoint at, TimePoint recover_at);

  // -- introspection --------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const {
    return events_.empty() && loss_windows_.empty() && dup_windows_.empty();
  }

  /// True if the timeline can lose or reorder traffic (loss, duplication,
  /// partitions, crashes): the run must then go through ReliableTransport
  /// for the protocols' reliable-FIFO liveness assumption to hold.
  [[nodiscard]] bool faulty() const { return faulty_; }

  // -- execution ------------------------------------------------------------

  /// Schedule the whole timeline on `sim`.  Events at t <= now are applied
  /// immediately (before any same-time traffic); later events become
  /// simulator closures referencing this Scenario (which must outlive the
  /// run).  All endpoints must already be registered — this freezes
  /// registration via Simulator::ensure_network().
  void apply(Simulator& sim, ScenarioHooks hooks = {}) const;

  /// Parallel-engine variant: the same body over the parallel root's
  /// fault state, except that every later structural event becomes a
  /// *stop-the-world* global event — it mutates fault state (and runs the
  /// crash/recovery hooks) on the coordinator with all workers parked,
  /// which is the only time that state may change.
  void apply(ParallelSimulator& sim, ScenarioHooks hooks = {}) const;

  /// The body both variants above wrap, which a wall-clock root calls
  /// before it starts: install the windows on `faults`, reserve the cut
  /// entry of every pair a partition will cut, fire events at t <= now at
  /// once and hand each later one to `schedule(at, victim, fn)`.  `fn`
  /// changes the fault state and runs the hooks; `victim` is the crashed
  /// or recovered process, kNoProcess for a sever or heal.  A wall-clock
  /// root runs `fn` for a victim on the victim's own worker, so none of
  /// its deliveries falls between its down flag and its hook.
  using Schedule =
      std::function<void(TimePoint, ProcessId, std::function<void()>)>;
  void apply(ChannelFaults& faults, TimePoint now, const ScenarioHooks& hooks,
             const Schedule& schedule) const;

 private:
  /// RateOverride over the window lists (defined in scenario.cpp).
  class Rates;

  Scenario& add(FaultEvent e);
  Scenario& add_window(std::vector<ProbWindow>& windows, ProcessId a,
                       ProcessId b, double probability, TimePoint from,
                       TimePoint until, const char* what);
  void fire(const FaultEvent& e, ChannelFaults& faults,
            const ScenarioHooks& hooks) const;
  /// Call `fn(from, to)` for every directed pair partition event `e` cuts
  /// (or heals) over `n` processes.  Checks every listed id.
  template <typename Fn>
  static void for_each_cut(const FaultEvent& e, std::size_t n, Fn&& fn);
  /// The structural timeline in execution order (by time, closing edges
  /// before opening edges, builder order as the tie break).
  [[nodiscard]] std::vector<const FaultEvent*> execution_order() const;
  /// The rate the most recently opened active window imposes on (from,
  /// to) at `now`, or -1 when no window covers it.
  [[nodiscard]] static double window_rate(
      const std::vector<ProbWindow>& windows, ProcessId from, ProcessId to,
      TimePoint now);

  std::string name_;
  std::vector<FaultEvent> events_;
  std::vector<ProbWindow> loss_windows_;
  std::vector<ProbWindow> dup_windows_;
  /// Crash windows per process (overlap rejection), as (at, recover_at).
  std::vector<std::tuple<ProcessId, TimePoint, TimePoint>> crash_windows_;
  bool faulty_ = false;
  /// Largest process id mentioned anywhere (checked against the run's).
  ProcessId max_process_ = kNoProcess;
};

}  // namespace pardsm
