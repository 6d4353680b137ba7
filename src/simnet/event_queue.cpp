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
  heap_.push_back(HeapEntry{when, key, slot});
  sift_up(heap_.size() - 1);
  return e;
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
  PARDSM_CHECK(!heap_.empty(), "next_time on empty queue");
  return heap_.front().when;
}

Event EventQueue::pop() {
  Event out = std::move(pop_ref());
  release(slot_at(out.slot));
  return out;
}

Event& EventQueue::pop_ref() {
  PARDSM_CHECK(!heap_.empty(), "pop on empty queue");
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
