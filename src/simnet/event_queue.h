// Discrete-event priority queue with pooled typed events.
//
// Events are ordered by (time, tie-break key), which makes simulation runs
// fully deterministic: ties are broken by the key, never by container
// internals.  The schedule_* calls key an event by its insertion sequence
// (the sequential Simulator's order); alloc() takes the key from its
// caller (the ParallelSimulator's shards pass their canonical key, see
// parallel_sim.h).
//
// The hot path of every benchmark is schedule-deliver/pop, so the queue is
// engineered to be allocation-free per event in steady state:
//
//   * Events are *typed* (Deliver / Timer / Closure) instead of captured
//     std::function closures; a delivery carries its Message in place and
//     a timer is two integers.  Closures remain only for the driver-
//     injection path (the engine's Client, scenario events, tests).
//   * Event payloads live in a free-list pool of stable slots (fixed-size
//     chunks, so scheduling from inside a firing handler never invalidates
//     anything).  The pool grows to the peak queue depth once, a chunk of
//     kPoolChunk events per allocation, and is then reused.
//   * The priority queue is a sorted run in front of a 4-ary heap, both
//     over 24-byte (when, key, slot) entries that never move the payload.
//     A push whose (when, key) is not earlier than the run's tail (or
//     finds the run empty) is appended to the run, a power-of-two ring,
//     in O(1); any other push goes to the heap (hole-insertion sifts).
//     Simulations push mostly in order (a constant latency, clients on a
//     common tick grid, insertion-sequence keys), so most events never
//     touch the heap.  The run is sorted by construction and a pop takes
//     the earlier of its front and the heap's top, so the pop sequence is
//     the same total (when, key) order a heap alone would give.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
  std::uint64_t seq = 0;      ///< tie-break key (insertion order by default)
  std::uint32_t slot = 0;     ///< pool slot (for EventQueue::release)

  /// kDeliver payload: the message, stored in place (no indirection).
  Message msg;

  /// kTimer payload.
  ProcessId timer_who = kNoProcess;
  std::uint64_t timer_tag = 0;

  /// kClosure payload.
  std::function<void()> fire;
};

/// Priority queue of pooled events keyed by (when, tie-break key).
class EventQueue {
 public:
  /// Take a slot from the free list (growing the pool if exhausted), stamp
  /// (type, when, key) and push its entry onto the run or the heap; the
  /// caller fills the payload.  Keys must be unique among pending events,
  /// so the pop order is a total order independent of which side an event
  /// took and of the heap's shape.
  Event& alloc(TimePoint when, Event::Type type, std::uint64_t key);

  /// Schedule `fn` to run at absolute time `when` (driver/test path).
  void schedule(TimePoint when, std::function<void()> fn);

  /// Schedule delivery of `msg` at `when` (allocation-free in steady state).
  void schedule_deliver(TimePoint when, Message msg);

  /// Schedule a timer callback for process `who` at `when`.
  void schedule_timer(TimePoint when, ProcessId who, std::uint64_t tag);

  /// True if no events remain.
  [[nodiscard]] bool empty() const { return run_size_ == 0 && heap_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return run_size_ + heap_.size(); }

  /// Time of the next event; only valid when !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Remove and return the next event.  Only valid when !empty().  The
  /// returned Event owns its payload; its pool slot is recycled
  /// immediately.
  Event pop();

  /// In-place variant of pop(): removes the next event from the queue but
  /// leaves the payload in its pooled slot, returning a reference that
  /// stays valid across schedule_* calls (slots never move and this
  /// one is not recycled until release()).  Saves the payload move on the
  /// hottest path.
  Event& pop_ref();

  /// Recycle the slot of an event obtained via pop_ref().
  void release(Event& e);

  /// Events ever scheduled through schedule_* (diagnostics; keyed
  /// alloc() calls are not counted).
  [[nodiscard]] std::uint64_t scheduled_total() const { return next_seq_; }

  /// Pool slots ever allocated (== peak queue depth; tests assert reuse).
  [[nodiscard]] std::size_t pool_slots() const { return pool_size_; }

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
  /// What the run and the heap actually store and move.
  struct HeapEntry {
    TimePoint when{};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// 4-ary: half the levels of a binary heap, and the four children of a
  /// node share two cache lines — pop-heavy simulation loops spend most
  /// of their heap time in sift_down, which this roughly halves.  The
  /// comparator's (when, key) order is total (keys are unique), so the pop
  /// sequence — and with it simulation determinism — is independent of
  /// the heap's shape.
  static constexpr std::size_t kArity = 4;

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  /// Index of the run's i-th entry from its front (i < run_.size()).
  [[nodiscard]] std::size_t run_index(std::size_t i) const {
    return (run_head_ + i) & (run_.size() - 1);
  }

  /// True when the next event is the run's front rather than the heap's
  /// top.  Only valid when !empty().
  [[nodiscard]] bool run_is_next() const {
    return heap_.empty() ||
           (run_size_ != 0 && earlier(run_[run_head_], heap_.front()));
  }

  /// Append to the run's tail, doubling the ring when it is full.
  void run_push(const HeapEntry& e);

  /// Slot `s` lives at pool_[s / kPoolChunk][s % kPoolChunk].  A deque
  /// would allocate a node per two events as the pool grows.
  static constexpr std::size_t kPoolChunk = 64;
  [[nodiscard]] Event& slot_at(std::uint32_t s) {
    return pool_[s / kPoolChunk][s % kPoolChunk];
  }

  std::vector<std::unique_ptr<Event[]>> pool_;  ///< stable payload slots
  std::size_t pool_size_ = 0;                   ///< slots handed out
  std::vector<std::uint32_t> free_;   ///< recycled slot indices
  std::vector<HeapEntry> heap_;       ///< explicit 4-ary min-heap
  /// Sorted run: a ring of power-of-two size (empty until the first
  /// push), live entries at [run_head_, run_head_ + run_size_) mod size.
  std::vector<HeapEntry> run_;
  std::size_t run_head_ = 0;
  std::size_t run_size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace pardsm
