// Wake-indexed causal delivery buffer, shared by the three causal
// protocols (causal-full, causal-partial-naive, causal-partial-adhoc).
//
// A causal receiver holds an update back until its own counters dominate
// the update's dependency metadata.  Rescanning the whole buffer after
// every delivery costs O(d²) readiness checks for a buffer of depth d.
// This buffer re-checks an update only when the counter it waits on rises:
//
//   * A waiting update is parked on the first counter key it waits on.
//     Keys are the owner's counter indices: writer k for the vector-clock
//     protocols, the counter of C(y) member k on y for ad-hoc.
//   * Each slot keeps a resume point for the dependency walk.  Counters
//     only grow, so the entries before it stay satisfied.  The owner's
//     per-(writer, var) FIFO test is re-evaluated on every check.
//   * A delivery reports the one counter it raised; only the updates
//     parked on that key are re-checked.
//   * Updates found ready wait in a min-heap keyed by arrival number and
//     delivery always pops the oldest.  Readiness is monotone, so this is
//     exactly the rescan's "first ready update in arrival order": the
//     delivery sequence does not change.
//   * A copy whose sender counter already covers it (a second copy of a
//     delivered update on a duplicating channel) can never become ready;
//     the owner reports it stale and it is dropped, on arrival or on wake.
//
// Storage follows EventQueue: messages sit in deque-stable slots with a
// free list, and waiters are intrusive per-slot links under one flat head
// per key, so the buffer stops allocating once it reached its peak depth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "mcs/protocol.h"
#include "mcs/vector_clock.h"
#include "simnet/check.h"
#include "simnet/message.h"

namespace pardsm::mcs {

/// Outcome of one readiness check of a buffered update.
struct Readiness {
  enum class State : std::uint8_t { kReady, kWait, kStale };
  State state = State::kReady;
  std::uint32_t key = 0;  ///< kWait: the counter key the update waits on

  static Readiness ready() { return {State::kReady, 0}; }
  static Readiness wait(std::uint32_t key) { return {State::kWait, key}; }
  static Readiness stale() { return {State::kStale, 0}; }
};

/// Vector-clock readiness of `msg` from `sender` at a receiver whose clock
/// is `mine` (the VectorClock::ready_from test, resumable): stale once
/// mine[sender] ≥ msg[sender], waiting on `sender` until mine[sender] + 1
/// reaches it, then waiting on the first k with msg[k] > mine[k].
/// `resume` is the first writer index the walk has not yet cleared.
[[nodiscard]] inline Readiness clock_readiness(const VectorClock& mine,
                                               const VectorClock& msg,
                                               ProcessId sender,
                                               std::uint64_t& resume) {
  PARDSM_CHECK(msg.size() == mine.size(), "causal: vector clock size mismatch");
  const std::int64_t have = mine.at(sender);
  if (msg.at(sender) <= have) return Readiness::stale();
  if (msg.at(sender) != have + 1) {
    return Readiness::wait(static_cast<std::uint32_t>(sender));
  }
  for (; resume < mine.size(); ++resume) {
    const auto k = static_cast<ProcessId>(resume);
    if (k != sender && msg.at(k) > mine.at(k)) {
      return Readiness::wait(static_cast<std::uint32_t>(k));
    }
  }
  return Readiness::ready();
}

/// The causal buffer of one process.  The owner supplies the readiness
/// check and the delivery:
///
///   Readiness owner.check(const Message&, std::uint64_t& resume) const;
///   std::uint32_t owner.deliver(const Message&);  // returns the key raised
///
/// `resume` starts at 0 for each update and is the owner's own cursor.
/// Only deliveries wake waiters: the owner's own writes raise only its own
/// counter, which no peer's update can be ahead of.
/// ProtocolStats::updates_buffered counts every check that parks an
/// update; max_buffer_depth the buffered updates, the arrival included.
class CausalBuffer {
 public:
  /// Size the waiter table: keys are [0, key_count).
  void set_key_count(std::size_t key_count) { heads_.assign(key_count, kNil); }

  /// Updates held (waiting or ready, not yet delivered or dropped).
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Take `m` and deliver every update that becomes ready, oldest arrival
  /// first.
  template <class Owner>
  void arrive(const Message& m, Owner& owner, ProtocolStats& stats) {
    std::uint32_t s = acquire(m);
    stats.max_buffer_depth =
        std::max(stats.max_buffer_depth, static_cast<std::uint64_t>(live_));
    // No update is ready between arrivals, so a ready arrival is delivered
    // at once.  A popped update is the oldest ready one, and only its FIFO
    // test can fail again (a copy overtaken by its twin is now stale).
    for (;;) {
      const Readiness v = owner.check(slots_[s].msg, slots_[s].resume);
      if (v.state == Readiness::State::kReady) {
        const std::uint32_t raised = owner.deliver(slots_[s].msg);
        release(s);
        wake(raised, owner, stats);
      } else {
        route(s, v, stats);
      }
      if (ready_.empty()) return;
      std::pop_heap(ready_.begin(), ready_.end(), later);
      s = ready_.back().slot;
      ready_.pop_back();
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFFU;

  struct Slot {
    Message msg;
    std::uint64_t arrival = 0;
    std::uint64_t resume = 0;    ///< the owner's dependency-walk cursor
    std::uint32_t next = kNil;   ///< next waiter on the same key
  };

  struct ReadyEntry {
    std::uint64_t arrival = 0;
    std::uint32_t slot = 0;
  };

  /// Heap order for a min-heap on arrival number.
  static bool later(const ReadyEntry& a, const ReadyEntry& b) {
    return a.arrival > b.arrival;
  }

  /// Counter `key` rose: re-check the updates parked on it.
  template <class Owner>
  void wake(std::uint32_t key, Owner& owner, ProtocolStats& stats) {
    PARDSM_DCHECK(key < heads_.size(), "causal buffer: key out of range");
    std::uint32_t s = heads_[key];
    heads_[key] = kNil;
    while (s != kNil) {
      const std::uint32_t next = slots_[s].next;
      route(s, owner.check(slots_[s].msg, slots_[s].resume), stats);
      s = next;
    }
  }

  std::uint32_t acquire(const Message& m) {
    std::uint32_t s;
    if (free_.empty()) {
      PARDSM_CHECK(slots_.size() < kNil, "causal buffer exceeds 2^32 slots");
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      s = free_.back();
      free_.pop_back();
    }
    Slot& slot = slots_[s];
    slot.msg = m;
    slot.arrival = next_arrival_++;
    slot.resume = 0;
    ++live_;
    return s;
  }

  void release(std::uint32_t s) {
    slots_[s].msg.body.reset();  // recycle the pooled body now
    free_.push_back(s);
    --live_;
  }

  void route(std::uint32_t s, Readiness v, ProtocolStats& stats) {
    switch (v.state) {
      case Readiness::State::kReady:
        ready_.push_back({slots_[s].arrival, s});
        std::push_heap(ready_.begin(), ready_.end(), later);
        break;
      case Readiness::State::kWait:
        PARDSM_DCHECK(v.key < heads_.size(), "causal buffer: key out of range");
        ++stats.updates_buffered;
        slots_[s].next = heads_[v.key];
        heads_[v.key] = s;
        break;
      case Readiness::State::kStale:
        release(s);
        break;
    }
  }

  std::deque<Slot> slots_;             ///< stable message slots
  std::vector<std::uint32_t> free_;    ///< recycled slot indices
  std::vector<std::uint32_t> heads_;   ///< per-key first waiter (or kNil)
  std::vector<ReadyEntry> ready_;      ///< min-heap on arrival number
  std::uint64_t next_arrival_ = 0;
  std::size_t live_ = 0;
};

}  // namespace pardsm::mcs
