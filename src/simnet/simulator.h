// Deterministic discrete-event simulator.
//
// The Simulator is the primary runtime for all tests and benchmarks: a
// single-threaded event loop over a seeded Network.  Executions are a pure
// function of (seed, endpoint logic), which is what lets the test suite
// assert byte-exact metric values and replay failures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/event_queue.h"
#include "simnet/network.h"
#include "simnet/stats.h"
#include "simnet/trace.h"
#include "simnet/transport.h"

namespace pardsm {

/// Configuration for a simulation run.
struct SimOptions {
  std::uint64_t seed = 1;
  ChannelOptions channel;
  /// Latency model; null means constant 1ms.
  std::unique_ptr<LatencyModel> latency;
  /// Abort (throw) if more than this many events fire — guards against
  /// non-terminating protocols in tests.
  std::uint64_t max_events = 50'000'000;
};

/// Single-threaded deterministic event-loop Transport implementation.
class Simulator final : public RootTransport {
 public:
  explicit Simulator(SimOptions options = {});
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Register the endpoint for the next free ProcessId (0, 1, 2, ...).
  /// The endpoint must outlive the simulator.  Returns the assigned id.
  ProcessId add_endpoint(Endpoint* ep) override;

  // -- Transport interface ------------------------------------------------
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] TimePoint now() const override { return now_; }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override;
  [[nodiscard]] std::size_t process_count() const override {
    return endpoints_.size();
  }
  /// Serial arena: this runtime is single-threaded, so its bodies use
  /// non-atomic refcounts and unlocked freelists.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    (void)owner;
    return arena_;
  }

  // -- Execution control ---------------------------------------------------
  /// Schedule an arbitrary closure at an absolute time (drivers use this to
  /// inject initial operations).
  void schedule_at(TimePoint when, std::function<void()> fn);
  /// The root seam: one event loop, so `owner` plays no part.
  void schedule_at(TimePoint when, ProcessId owner,
                   std::function<void()> fn) override {
    (void)owner;
    schedule_at(when, std::move(fn));
  }

  /// Run one event; returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains (quiescence).
  void run();

  /// Run while events exist and their time is <= deadline; returns true if
  /// the queue drained (quiescent before the deadline).
  bool run_until(TimePoint deadline);

  /// Materialize the network now (it is otherwise created lazily at the
  /// first send).  Endpoint registration freezes here.  Scenario timelines
  /// call this so fault events can be applied before any traffic flows.
  Network& ensure_network();

  // -- Introspection --------------------------------------------------------
  [[nodiscard]] NetworkStats& stats() { return stats_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] Network& network() { return *network_; }
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  void deliver(Message& m);

  SimOptions options_;
  Rng rng_;
  BodyArena arena_{/*concurrent=*/false};
  std::unique_ptr<Network> network_;  // created lazily once size is known
  std::vector<Endpoint*> endpoints_;
  EventQueue queue_;
  NetworkStats stats_;
  Trace trace_;
  TimePoint now_{};
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t events_fired_ = 0;
  bool network_frozen_ = false;
};

}  // namespace pardsm
