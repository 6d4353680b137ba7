#include "simnet/thread_runtime.h"

#include <utility>

#include "simnet/check.h"

namespace pardsm {

// -- MailboxExecutor ----------------------------------------------------------

MailboxExecutor::MailboxExecutor(Delivery& delivery)
    : delivery_(delivery), start_time_(std::chrono::steady_clock::now()) {}

MailboxExecutor::~MailboxExecutor() { halt(); }

std::size_t MailboxExecutor::add(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  PARDSM_CHECK(!running_.load(), "add_endpoint: runtime already started");
  auto mb = std::make_unique<Mailbox>();
  mb->ep = ep;
  mailboxes_.push_back(std::move(mb));
  return mailboxes_.size() - 1;
}

void MailboxExecutor::start() {
  PARDSM_CHECK(!running_.exchange(true), "start: already running");
  start_time_ = std::chrono::steady_clock::now();
  for (auto& mb : mailboxes_) {
    Mailbox* raw = mb.get();
    raw->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
}

void MailboxExecutor::stop() {
  halt();
  rethrow_failure();
}

void MailboxExecutor::halt() {
  if (!running_.exchange(false)) return;
  for (auto& mb : mailboxes_) {
    std::lock_guard lock(mb->mu);
    mb->cv.notify_all();
  }
  for (auto& mb : mailboxes_) {
    if (mb->worker.joinable()) mb->worker.join();
  }
}

MailboxExecutor::Mailbox& MailboxExecutor::mailbox(std::size_t slot) {
  PARDSM_CHECK(slot < mailboxes_.size(), "mailbox: bad process");
  return *mailboxes_[slot];
}

void MailboxExecutor::post(std::size_t slot, std::function<void()> task) {
  auto& mb = mailbox(slot);
  add_pending();
  {
    std::lock_guard lock(mb.mu);
    mb.tasks.push_back(std::move(task));
  }
  mb.cv.notify_one();
}

void MailboxExecutor::enqueue(std::size_t slot, Message m) {
  auto& mb = mailbox(slot);
  {
    std::lock_guard lock(mb.mu);
    mb.messages.push_back(std::move(m));
  }
  mb.cv.notify_one();
}

void MailboxExecutor::set_timer(std::size_t slot, Duration delay,
                                TimerTag tag) {
  auto& mb = mailbox(slot);
  add_pending();
  {
    std::lock_guard lock(mb.mu);
    mb.timers.push(TimerItem{std::chrono::steady_clock::now() +
                                 std::chrono::microseconds(delay.us),
                             tag});
  }
  mb.cv.notify_one();
}

TimePoint MailboxExecutor::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_time_;
  return TimePoint{
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()};
}

void MailboxExecutor::finish_item() {
  if (pending_.fetch_sub(1) == 1) {
    std::lock_guard lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

bool MailboxExecutor::await_quiescence(std::chrono::milliseconds timeout) {
  std::unique_lock lock(quiesce_mu_);
  quiesce_cv_.wait_for(lock, timeout, [this] {
    return pending_.load() == 0 || failure_ != nullptr;
  });
  const bool quiet = pending_.load() == 0;
  lock.unlock();
  rethrow_failure();
  return quiet;
}

void MailboxExecutor::record_failure(std::exception_ptr e) {
  std::lock_guard lock(quiesce_mu_);
  if (failure_) return;
  failure_ = std::move(e);
  quiesce_cv_.notify_all();
}

void MailboxExecutor::rethrow_failure() {
  std::exception_ptr e;
  {
    std::lock_guard lock(quiesce_mu_);
    e = std::exchange(failure_, nullptr);
  }
  if (e) std::rethrow_exception(e);
}

bool MailboxExecutor::has_queued() const {
  for (const auto& mb : mailboxes_) {
    std::lock_guard lock(mb->mu);
    if (!mb->messages.empty() || !mb->tasks.empty()) return true;
  }
  return false;
}

void MailboxExecutor::worker_loop(Mailbox& mb) {
  std::unique_lock lock(mb.mu);
  while (true) {
    const auto timer_due = [&] {
      return !mb.timers.empty() &&
             mb.timers.top().deadline <= std::chrono::steady_clock::now();
    };
    const auto has_work = [&] {
      return !running_.load() || !mb.messages.empty() || !mb.tasks.empty() ||
             timer_due();
    };

    // Re-pick the wait flavour on every wakeup: a timer armed after this
    // thread parked in the untimed wait must convert the next wait into a
    // deadline wait, or the deadline passes with nobody left to notify.
    while (!has_work()) {
      if (mb.timers.empty()) {
        mb.cv.wait(lock);
      } else {
        mb.cv.wait_until(lock, mb.timers.top().deadline);
      }
    }
    if (!running_.load()) break;

    // One item per iteration, tasks first, then messages, then due timers;
    // the handler runs unlocked so other threads can keep enqueueing.  A
    // throwing handler is recorded for the caller instead of escaping the
    // thread (which would std::terminate); the try costs nothing until
    // something throws.
    std::exception_ptr failure;
    try {
      if (!mb.tasks.empty()) {
        auto task = std::move(mb.tasks.front());
        mb.tasks.pop_front();
        lock.unlock();
        task();
      } else if (!mb.messages.empty()) {
        Message m = std::move(mb.messages.front());
        mb.messages.pop_front();
        lock.unlock();
        delivery_.deliver(*mb.ep, m);
      } else {
        const TimerTag tag = mb.timers.top().tag;
        mb.timers.pop();
        lock.unlock();
        mb.ep->on_timer(tag);
      }
    } catch (...) {
      failure = std::current_exception();
    }
    // Published only after the catch block has let go of the exception,
    // so the thread that rethrows it is its one remaining user.
    if (failure) {
      if (lock.owns_lock()) lock.unlock();
      record_failure(std::move(failure));
    }
    note_activity();
    finish_item();
    lock.lock();
  }
}

// -- ThreadRuntime ------------------------------------------------------------

ProcessId ThreadRuntime::add_endpoint(Endpoint* ep) {
  return static_cast<ProcessId>(exec_.add(ep));
}

void ThreadRuntime::start() {
  stats_.resize(exec_.size());
  exec_.start();
}

void ThreadRuntime::send(ProcessId from, ProcessId to, BodyRef body,
                         MessageMeta meta) {
  PARDSM_CHECK(to >= 0 && static_cast<std::size_t>(to) < exec_.size(),
               "send: bad destination");
  Message m;
  m.from = from;
  m.to = to;
  m.body = std::move(body);
  m.meta = std::move(meta);
  m.id = next_msg_id_.fetch_add(1);
  m.send_time = now();
  stats_.on_send(m);
  exec_.add_pending();
  exec_.enqueue(static_cast<std::size_t>(to), std::move(m));
}

}  // namespace pardsm
