// Reliable exactly-once FIFO delivery over a lossy transport (ARQ).
//
// The consistency protocols assume reliable FIFO channels for liveness.
// ReliableTransport restores that assumption on top of a lossy/duplicating
// Network: every payload is wrapped in a DATA frame with a per-directed-
// pair sequence number; the receiver delivers in sequence exactly once and
// answers every DATA frame with a cumulative ACK.  The sender resends a
// frame only when it looks lost: when its own deadline — a fixed
// retransmit_after past its last send — passes without an ACK covering
// it, or straight away when a duplicate ACK says the receiver holds a
// later frame past it and the frame has not been resent yet (selective
// repeat, no go-back-N).  Unacked and out-of-order frames live in
// seq-indexed rings that stop allocating once warm.
//
// Usage mirrors a plain Transport:
//
//   Simulator sim(...);                        // lossy channel options
//   ReliableTransport rel(sim, {});            // wraps it
//   ProcessId id = rel.add_endpoint(&proc);    // instead of sim.add_...
//   proc.attach(rel);
//
// Overhead accounting: DATA frames add 16 control bytes (seq + ack), ACK
// frames cost 24 bytes total; both are charged to the real NetworkStats,
// so loss-recovery traffic shows up in every efficiency measurement.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/transport.h"

namespace pardsm {

/// Options for the ARQ layer.
///
/// Byte-accounting contract (everything lands in the run's NetworkStats —
/// there is no side ledger, so loss-recovery cost is visible in every
/// efficiency measurement):
///
///   * DATA frame: the wrapped message's own meta plus 16 control bytes
///     (sequence number + ack piggyback space); `vars_mentioned` passes
///     through unchanged, so exposure accounting (the paper's x-relevance)
///     covers ARQ traffic too.
///   * ACK frame: 24 wire bytes (8 control + 16 header), no variables.
///   * Retransmission: the full DATA frame is re-charged on every attempt
///     (on_send fires again), and a duplicated delivery is re-counted by
///     on_deliver — received <= sent stays invariant under loss only.
///
/// Scenario timelines must heal partitions and recover crashes; liveness
/// then follows because every frame is eventually acknowledged.  Recovery
/// latency is set by the per-frame deadline, not by protocol complexity:
/// a frame lost to a fault window is resent at its first deadline after
/// the window closes, or at once if a later frame draws a duplicate ACK
/// before the frame was ever resent (bench_scenarios measures this).  The
/// timeout is fixed: it neither backs off nor jitters, so a simulated
/// run's resend schedule is a function of its loss draws alone.
///
/// When one frame exhausts `max_retransmits` the directed channel is
/// declared dead: its pending frames are dropped (counted in
/// dead_channel_drops()), later sends on it are silently discarded, and
/// the run continues degraded.  RunResult surfaces the dead pairs.
struct ReliableOptions {
  /// Retransmission timeout: a frame is resent when this long has passed
  /// since it was last sent without an ACK covering it.
  Duration retransmit_after = millis(40);
  /// Declare a directed channel dead after this many retransmissions of
  /// one frame.  The one-shot duplicate-ACK resend counts too.  The one
  /// bound of every root and of pardsm_node: effectively never (11 hours
  /// of 40 ms timeouts), since scenario liveness comes from healing
  /// timelines, not retransmit caps.
  std::uint32_t max_retransmits = 1'000'000;
};

/// Exactly-once, per-pair-FIFO transport decorator.
class ReliableTransport final : public HostTransport {
 public:
  /// Wraps `lower` — the raw simulator, or another decorator (e.g. a
  /// BatchingTransport) in a deeper stack.  The underlying channel may
  /// drop and duplicate; FIFO ordering of it is NOT required.
  ReliableTransport(HostTransport& lower, ReliableOptions options);
  ~ReliableTransport() override;

  /// Register an application endpoint (do not register it with the layer
  /// below yourself — the decorator interposes a shim).  The id is the one
  /// the layer below assigns, so one node of a multi-process deployment
  /// (a SocketTransport with local_ids = {i}) registers as process i.
  ProcessId add_endpoint(Endpoint* ep) override;

  // -- Transport ------------------------------------------------------------
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] TimePoint now() const override { return lower_.now(); }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override;
  [[nodiscard]] std::size_t process_count() const override;
  /// Decorators allocate from the root runtime's pools.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    return lower_.arena(owner);
  }

  /// Retransmissions performed so far (all senders).
  [[nodiscard]] std::uint64_t retransmissions() const;

  /// Directed (from, to) channels declared dead after exhausting
  /// max_retransmits, in the order they died.
  [[nodiscard]] std::vector<std::pair<ProcessId, ProcessId>> dead_channels()
      const;

  /// Frames discarded because their channel was (or became) dead: the
  /// pending frames dropped at the moment of death plus every later send
  /// attempted on a dead channel.
  [[nodiscard]] std::uint64_t dead_channel_drops() const;

  /// A receiver buffers out-of-order frames at most this many sequence
  /// numbers past the last one it delivered; a DATA frame further ahead
  /// is discarded (counted in window_discards()) and its sender resends
  /// it after its deadline.  An honest sender only gets that far ahead
  /// after a long outage: the sim-adhoc-lossy benchmark sends a few
  /// hundred frames per second on a directed pair, so 2^14 frames are
  /// most of a minute of sending while one frame stays missing.  Frames
  /// beyond the window are delayed, never lost.  The bound is for hostile
  /// or corrupt frames (seq 2^63): the out-of-order ring is one 8-byte
  /// slot per sequence number, so no peer can make a receiver hold more
  /// than 128 KiB of ring per directed pair.
  static constexpr std::uint64_t kReceiveWindow = std::uint64_t{1} << 14;

  /// DATA frames discarded for lying beyond kReceiveWindow.
  [[nodiscard]] std::uint64_t window_discards() const;

 private:
  class Shim;

  HostTransport& lower_;
  ReliableOptions options_;
  std::vector<std::unique_ptr<Shim>> shims_;  ///< by ProcessId; null = remote
};

}  // namespace pardsm
