// Message batching: per-sender coalescing windows with piggybacked frames.
//
// The paper's efficiency argument is about control-message and byte
// counts; batching is the classic orthogonal axis that amortizes exactly
// the per-message overhead those counts price.  BatchingTransport is a
// stackable decorator (see HostTransport in transport.h): protocol sends
// to the same destination are held in a per-(sender, destination) queue
// and flushed as one piggybacked BatchFrame when the sender's coalescing
// window expires, when the queue reaches 64 messages, or immediately
// when an urgent message (MessageMeta::urgent) arrives for that
// destination.
//
// Byte-accounting contract (docs/BATCHING.md; NetworkStats sees frames,
// the application sees the original messages):
//
//   * singleton flush: a queue holding one message at flush time is sent
//     unwrapped — identical bytes to the unbatched send, just delayed.
//   * k >= 2 messages flush as ONE frame: control bytes are the sum of
//     the members' control bytes plus kPerItemFramingBytes per member
//     (length + kind marker), payload bytes are the exact sum, and
//     vars_mentioned is the concatenation — per-(process, variable)
//     exposure counts are preserved exactly.  The 16-byte wire header is
//     paid once per frame instead of once per message, so a k-frame saves
//     16*(k-1) - kPerItemFramingBytes*k wire bytes (> 0 for k >= 2) and
//     k-1 messages.
//
// Ordering: per-pair FIFO is preserved — queues flush in enqueue order,
// an urgent send flushes its destination's queue *including itself*, and
// the layer below delivers frames FIFO per pair.  Receivers unpack frames
// in order and hand each member to the application endpoint with its
// original metadata, so protocols cannot tell they were batched (except
// by the clock).
//
// Stacking: the engine always places the layer above ReliableTransport
// when both are configured, so a frame becomes one ARQ DATA frame and is
// acknowledged and resent whole (fewer acks).  The layer itself composes
// over any HostTransport — the conformance tests also stack it under ARQ
// by hand.  On the wall-clock roots the per-sender state is only touched
// by the owning process's thread (sends and flush timers both run
// there), so batching is preemption-safe too.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "simnet/transport.h"
#include "simnet/wire.h"

namespace pardsm {

/// Options for the batching layer.
struct BatchingOptions {
  /// Coalescing window per sender: the longest a non-urgent message waits
  /// in a queue.  The engine builds no layer at zero; the layer itself
  /// requires a positive window.
  Duration window{};
};

/// Per-member framing overhead inside a BatchFrame (length + kind marker).
inline constexpr std::uint64_t kPerItemFramingBytes = 4;

/// A piggybacked frame: several application messages to one destination.
struct BatchFrame final : MessageBody {
  struct Item {
    BodyRef body;
    MessageMeta meta;
    TimePoint enqueued{};  ///< send_time the application observed
  };
  std::vector<Item> items;

  /// Pool recycle hook: drop member bodies now, keep the items vector's
  /// capacity for the next frame.
  void reset() { items.clear(); }

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kBatchFrame;
  }
  void wire_encode(WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(items.size()));
    for (const Item& item : items) {
      wire::put_time(w, item.enqueued);
      wire::encode_meta(w, item.meta);
      wire::encode_body(w, *item.body);
    }
  }
};

/// Aggregate batching counters (all senders).
struct BatchingStats {
  std::uint64_t frames_sent = 0;      ///< multi-message frames (k >= 2)
  std::uint64_t messages_batched = 0; ///< messages that travelled in frames
  std::uint64_t singleton_flushes = 0;///< queues flushed with one message
  std::uint64_t urgent_flushes = 0;   ///< flushes forced by an urgent send
};

/// Coalescing transport decorator.
class BatchingTransport final : public HostTransport {
 public:
  BatchingTransport(HostTransport& lower, BatchingOptions options);
  ~BatchingTransport() override;

  /// Register an application endpoint (the decorator interposes a shim on
  /// the layer below).
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

  /// Counters summed over all senders.
  [[nodiscard]] BatchingStats stats() const;

 private:
  class Shim;

  HostTransport& lower_;
  BatchingOptions options_;
  std::vector<std::unique_ptr<Shim>> shims_;
};

}  // namespace pardsm
