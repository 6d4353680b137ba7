#include "simnet/event_queue.h"

#include <utility>

#include "simnet/check.h"

namespace pardsm {

Event& EventQueue::alloc(TimePoint when, Event::Type type,
                         std::uint64_t key) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = checked_slot(pool_size_);
    if (pool_size_ % kPoolChunk == 0) {
      pool_.push_back(std::make_unique<Event[]>(kPoolChunk));
    }
    ++pool_size_;
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Event& e = slot_at(slot);
  e.type = type;
  e.when = when;
  e.seq = key;
  e.slot = slot;
  const HeapEntry entry{when, key, slot};
  // Best fit.  The live runs' tails decrease with their index: a run opens
  // only for a push earlier than every tail, and a push joins the first
  // run whose tail is not after it, so every run before that one keeps a
  // later tail.  The first run that fits is therefore the one whose tail
  // is latest, and a one-cadence workload stops at run 0.
  for (std::size_t i = 0; i < live_runs_; ++i) {
    if (!earlier(entry, runs_[i].tail)) {
      runs_[i].push(entry);
      return e;
    }
  }
  if (live_runs_ < kMaxRuns) {
    runs_[live_runs_++].push(entry);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
  return e;
}

void EventQueue::Run::grow() {
  // The first ring holds as many entries as one pool chunk holds events.
  std::vector<HeapEntry> grown(ring.empty() ? kPoolChunk : 2 * ring.size());
  for (std::size_t i = 0; i < size; ++i) grown[i] = ring[index(i)];
  ring.swap(grown);
  head = 0;
}

std::size_t EventQueue::size() const {
  std::size_t n = heap_.size();
  for (std::size_t i = 0; i < live_runs_; ++i) n += runs_[i].size;
  return n;
}

void EventQueue::schedule(TimePoint when, std::function<void()> fn) {
  Event& e = alloc(when, Event::Type::kClosure, next_seq_++);
  e.fire = std::move(fn);
}

void EventQueue::schedule_deliver(TimePoint when, Message msg) {
  Event& e = alloc(when, Event::Type::kDeliver, next_seq_++);
  e.msg = std::move(msg);
}

void EventQueue::schedule_timer(TimePoint when, ProcessId who,
                                std::uint64_t tag) {
  Event& e = alloc(when, Event::Type::kTimer, next_seq_++);
  e.timer_who = who;
  e.timer_tag = tag;
}

TimePoint EventQueue::next_time() const {
  PARDSM_CHECK(!empty(), "next_time on empty queue");
  const std::size_t src = next_source();
  return src == kHeap ? heap_.front().when : runs_[src].front().when;
}

Event EventQueue::pop() {
  Event out = std::move(pop_ref());
  release(slot_at(out.slot));
  return out;
}

Event& EventQueue::pop_ref() {
  PARDSM_CHECK(!empty(), "pop on empty queue");
  const std::size_t src = next_source();
  if (src != kHeap) {
    Run& r = runs_[src];
    const std::uint32_t slot = r.front().slot;
    r.head = r.index(1);
    if (--r.size == 0) {
      // Its tail was pending after every event of a run with an earlier
      // tail, so those runs are empty already: this is the last live run.
      PARDSM_DCHECK(src + 1 == live_runs_, "event queue: runs out of order");
      --live_runs_;
    }
    return slot_at(slot);
  }
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return slot_at(top.slot);
}

void EventQueue::release(Event& e) {
  // Drop payload resources now rather than when the slot is reused.
  e.msg.body.reset();
  e.fire = nullptr;
  free_.push_back(e.slot);
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t smallest = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[smallest])) smallest = c;
    }
    if (!earlier(heap_[smallest], e)) break;
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  heap_[i] = e;
}

}  // namespace pardsm
