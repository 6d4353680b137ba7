// Discrete-event priority queue with pooled typed events.
//
// Events are ordered by (time, insertion sequence), which makes simulation
// runs fully deterministic: ties are broken by insertion order, never by
// container internals.
//
// The hot path of every benchmark is schedule-deliver/pop, so the queue is
// engineered to be allocation-free per event in steady state:
//
//   * Events are *typed* (Deliver / Timer / Closure) instead of captured
//     std::function closures; a delivery carries its Message in place and
//     a timer is two integers.  Closures remain only for the driver-
//     injection path (the engine's Client, scenario events, tests).
//   * Event payloads live in a free-list pool of stable slots (a deque, so
//     scheduling from inside a firing handler never invalidates anything).
//     The pool grows to the peak queue depth once and is then reused.
//   * The priority queue itself is an explicit 4-ary heap over 24-byte
//     (when, seq, slot) entries — sift operations move handles (hole
//     insertion, one final store instead of swap chains), never the event
//     payload, and popping detaches the payload with a move.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "simnet/check.h"
#include "simnet/ids.h"
#include "simnet/message.h"
#include "simnet/sim_time.h"

namespace pardsm {

/// A scheduled simulation event.
struct Event {
  enum class Type : std::uint8_t { kClosure, kDeliver, kTimer };

  Type type = Type::kClosure;
  TimePoint when{};
  std::uint64_t seq = 0;      ///< tie-breaker: insertion order
  std::uint32_t slot = 0;     ///< pool slot (for EventQueue::release)

  /// kDeliver payload: the message, stored in place (no indirection).
  Message msg;

  /// kTimer payload.
  ProcessId timer_who = kNoProcess;
  std::uint64_t timer_tag = 0;

  /// kClosure payload.
  std::function<void()> fire;
};

/// Min-heap of pooled events keyed by (when, seq).
class EventQueue {
 public:
  /// Schedule `fn` to run at absolute time `when` (driver/test path).
  void schedule(TimePoint when, std::function<void()> fn);

  /// Schedule delivery of `msg` at `when` (allocation-free in steady state).
  void schedule_deliver(TimePoint when, Message msg);

  /// Schedule a timer callback for process `who` at `when`.
  void schedule_timer(TimePoint when, ProcessId who, std::uint64_t tag);

  /// True if no events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the next event; only valid when !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Remove and return the next event.  Only valid when !empty().  The
  /// returned Event owns its payload; its pool slot is recycled
  /// immediately.
  Event pop();

  /// In-place variant of pop(): removes the next event from the heap but
  /// leaves the payload in its pooled slot, returning a reference that
  /// stays valid across schedule_* calls (slots are deque-stable and this
  /// one is not recycled until release()).  Saves the payload move on the
  /// hottest path.
  Event& pop_ref();

  /// Recycle the slot of an event obtained via pop_ref().
  void release(Event& e);

  /// Total number of events ever scheduled (diagnostics).
  [[nodiscard]] std::uint64_t scheduled_total() const { return next_seq_; }

  /// Pool slots ever allocated (== peak queue depth; tests assert reuse).
  [[nodiscard]] std::size_t pool_slots() const { return pool_.size(); }

  /// Slot handles are 32-bit (they ride in every 24-byte heap entry), so
  /// a pool asked to grow past 2^32 slots — four billion *simultaneously
  /// pending* events — must fail loudly instead of wrapping the new
  /// slot's index into an alias of slot 0.  Public static so the wrap
  /// regression test can probe the boundary without four billion live
  /// events (the same seeded-harness discipline as
  /// SmallVec::next_capacity).
  [[nodiscard]] static std::uint32_t checked_slot(std::size_t pool_size) {
    PARDSM_CHECK(pool_size <= 0xFFFF'FFFFULL,
                 "event pool exceeds 2^32 slots");
    return static_cast<std::uint32_t>(pool_size);
  }

 private:
  /// What the heap actually stores and moves.
  struct HeapEntry {
    TimePoint when{};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// 4-ary: half the levels of a binary heap, and the four children of a
  /// node share two cache lines — pop-heavy simulation loops spend most
  /// of their heap time in sift_down, which this roughly halves.  The
  /// comparator's (when, seq) order is total (seq is unique), so the pop
  /// sequence — and with it simulation determinism — is independent of
  /// the heap's shape.
  static constexpr std::size_t kArity = 4;

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Take a slot from the free list (growing the pool if exhausted), stamp
  /// (type, when, seq) and push its heap entry.  Caller fills the payload.
  Event& alloc(TimePoint when, Event::Type type);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::deque<Event> pool_;            ///< stable payload slots
  std::vector<std::uint32_t> free_;   ///< recycled slot indices
  std::vector<HeapEntry> heap_;       ///< explicit binary min-heap
  std::uint64_t next_seq_ = 0;
};

}  // namespace pardsm
