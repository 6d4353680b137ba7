// Runtime-independent interface between protocols and the world.
//
// Protocols (src/mcs) are written once against Transport + Endpoint and run
// unchanged under the deterministic discrete-event simulator and under the
// std::thread runtime.  This is the boundary that makes the "multi-node
// emulation" substitution of DESIGN.md §2 possible.
#pragma once

#include <cstdint>
#include <functional>

#include "simnet/message.h"
#include "simnet/sim_time.h"

namespace pardsm {

/// Opaque timer identity passed back to Endpoint::on_timer.
using TimerTag = std::uint64_t;

/// Something that receives messages and timer callbacks: one per process.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// A message addressed to this endpoint has been delivered.
  virtual void on_message(const Message& m) = 0;

  /// A timer armed via Transport::set_timer has fired.
  virtual void on_timer(TimerTag tag) { (void)tag; }
};

/// Facilities a protocol may use: sending, clock, timers, body pools.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Queue a message for asynchronous delivery.  Ownership of the body is
  /// shared; the same body object may be multicast to several receivers.
  virtual void send(ProcessId from, ProcessId to, BodyRef body,
                    MessageMeta meta) = 0;

  /// Current time (simulated or wall-derived, depending on runtime).
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Arm a one-shot timer for process `who`, firing after `delay`.
  virtual void set_timer(ProcessId who, Duration delay, TimerTag tag) = 0;

  /// Number of processes in the system.
  [[nodiscard]] virtual std::size_t process_count() const = 0;

  /// Body pools for messages sent by `owner`.  Root runtimes override:
  /// the single-threaded Simulator hands out a serial arena (non-atomic
  /// refcounts, unlocked freelists); threaded roots hand out concurrent
  /// ones.  Decorators forward to the layer below.  The default is a
  /// process-wide concurrent arena, safe on any root.
  [[nodiscard]] virtual BodyArena& arena(ProcessId owner) {
    (void)owner;
    static BodyArena shared{/*concurrent=*/true};
    return shared;
  }
};

/// A Transport that also owns endpoint registration.  Both root runtimes
/// (Simulator, ThreadRuntime) and every stackable decorator
/// (ReliableTransport, BatchingTransport) implement it, so decorators can
/// wrap *any* HostTransport rather than the simulator specifically — that
/// is what lets the transport stack compose in either order:
///
///   app → BatchingTransport → ReliableTransport → Simulator   (default)
///   app → ReliableTransport → BatchingTransport → Simulator
///
/// A decorator's add_endpoint interposes a shim endpoint on the layer
/// below; registration therefore always proceeds top-down and each layer
/// sees the same ProcessId numbering.
class HostTransport : public Transport {
 public:
  /// Register the endpoint for the next free ProcessId (0, 1, 2, ...).
  /// The endpoint must outlive the transport.  Returns the assigned id.
  virtual ProcessId add_endpoint(Endpoint* ep) = 0;
};

/// The bottom of a stack: a HostTransport that owns the clock and can run
/// a closure on a process's behalf.  The four roots (Simulator,
/// ParallelSimulator, ThreadRuntime, SocketTransport) implement it; the
/// decorators do not.  Together with now() this is the whole scheduling
/// seam the engine's client drives its operations through, so one client
/// runs unchanged on every root.
class RootTransport : public HostTransport {
 public:
  /// Run `fn` at `when` on behalf of process `owner`.  The simulator
  /// ignores `owner`; the parallel simulator routes by it (shard and
  /// canonical ordering slot); the wall-clock roots run `fn` on `owner`'s
  /// mailbox worker once their clock reaches `when`.
  virtual void schedule_at(TimePoint when, ProcessId owner,
                           std::function<void()> fn) = 0;
};

}  // namespace pardsm
