#include "simnet/thread_runtime.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <ctime>
#include <utility>

#include "simnet/check.h"
#include "simnet/rng.h"

namespace pardsm {

// -- MailboxExecutor ----------------------------------------------------------

namespace {
/// The mailbox whose worker is the calling thread (null off the workers).
thread_local const void* tl_mailbox = nullptr;
}  // namespace

MailboxExecutor::MailboxExecutor(Delivery& delivery)
    : delivery_(delivery), start_time_(std::chrono::steady_clock::now()) {}

MailboxExecutor::~MailboxExecutor() { halt(); }

MailboxExecutor::Mailbox::~Mailbox() {
  for (const int fd : {epoll_fd, wake_fd, timer_fd}) {
    if (fd >= 0) ::close(fd);
  }
}

std::size_t MailboxExecutor::add(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  PARDSM_CHECK(!running_.load(), "add_endpoint: runtime already started");
  auto mb = std::make_unique<Mailbox>();
  mb->ep = ep;
  mb->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  mb->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  // steady_clock is CLOCK_MONOTONIC, so deadlines arm it as they are.
  mb->timer_fd =
      ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  PARDSM_CHECK(mb->epoll_fd >= 0 && mb->wake_fd >= 0 && mb->timer_fd >= 0,
               "mailbox: epoll/eventfd/timerfd creation failed (three "
               "descriptors per process: check ulimit -n)");
  for (const auto& [fd, tag] :
       {std::pair<int, void*>{mb->wake_fd, nullptr}, {mb->timer_fd, mb.get()}}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = tag;
    PARDSM_CHECK(::epoll_ctl(mb->epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0,
                 "mailbox: epoll_ctl failed");
  }
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
  if (!timeline_.empty()) {
    std::stable_sort(
        timeline_.begin(), timeline_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    timeline_thread_ = std::jthread(
        [this](const std::stop_token& stop) { timeline_loop(stop); });
  }
}

void MailboxExecutor::at_time(TimePoint when, std::function<void()> fn) {
  PARDSM_CHECK(!running_.load(), "at_time: runtime already started");
  add_pending();
  timeline_.emplace_back(when, std::move(fn));
}

void MailboxExecutor::timeline_loop(const std::stop_token& stop) {
  // A private mutex: the stop request alone wakes the wait.
  std::mutex mu;
  std::unique_lock lock(mu);
  std::condition_variable_any sleep;
  for (auto& [when, fn] : timeline_) {
    if (sleep.wait_until(lock, stop,
                         start_time_ + std::chrono::microseconds(when.us),
                         [&stop] { return stop.stop_requested(); })) {
      return;
    }
    std::exception_ptr failure;
    try {
      fn();
    } catch (...) {
      failure = std::current_exception();
    }
    finish_handled(std::move(failure));
  }
}

void MailboxExecutor::halt() {
  if (!running_.exchange(false)) return;
  for (auto& mb : mailboxes_) {
    const std::uint64_t one = 1;
    (void)!::write(mb->wake_fd, &one, sizeof(one));
  }
  for (auto& mb : mailboxes_) {
    if (mb->worker.joinable()) mb->worker.join();
  }
  timeline_thread_ = {};  // requests stop and joins
}

bool MailboxExecutor::on_worker(std::size_t slot) const {
  return slot < mailboxes_.size() && tl_mailbox == mailboxes_[slot].get();
}

MailboxExecutor::Mailbox& MailboxExecutor::mailbox(std::size_t slot) {
  PARDSM_CHECK(slot < mailboxes_.size(), "mailbox: bad process");
  return *mailboxes_[slot];
}

void MailboxExecutor::wake(Mailbox& mb, std::unique_lock<std::mutex>& lock) {
  const bool parked = std::exchange(mb.parked, false);
  lock.unlock();
  if (parked) {
    const std::uint64_t one = 1;
    (void)!::write(mb.wake_fd, &one, sizeof(one));
  }
}

void MailboxExecutor::post(std::size_t slot, std::function<void()> task) {
  auto& mb = mailbox(slot);
  add_pending();
  std::unique_lock lock(mb.mu);
  mb.tasks.push_back(std::move(task));
  wake(mb, lock);
}

void MailboxExecutor::enqueue(std::size_t slot, Message m) {
  auto& mb = mailbox(slot);
  std::unique_lock lock(mb.mu);
  mb.messages.push_back(std::move(m));
  wake(mb, lock);
}

void MailboxExecutor::set_timer(std::size_t slot, Duration delay,
                                TimerTag tag) {
  auto& mb = mailbox(slot);
  push_timer(mb,
             std::chrono::steady_clock::now() +
                 std::chrono::microseconds(delay.us),
             [ep = mb.ep, tag] { ep->on_timer(tag); });
}

void MailboxExecutor::post_at(std::size_t slot, TimePoint when,
                              std::function<void()> task) {
  if (when <= now()) {
    post(slot, std::move(task));
  } else {
    push_timer(mailbox(slot),
               start_time_ + std::chrono::microseconds(when.us),
               std::move(task));
  }
}

void MailboxExecutor::push_timer(
    Mailbox& mb, std::chrono::steady_clock::time_point deadline, Task task) {
  add_pending();
  std::unique_lock lock(mb.mu);
  mb.timers.push_back(TimerItem{deadline, std::move(task)});
  std::push_heap(mb.timers.begin(), mb.timers.end(), std::greater<>{});
  wake(mb, lock);
}

void MailboxExecutor::watch(std::size_t slot, int fd, void* tag) {
  auto& mb = mailbox(slot);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.ptr = tag;
  PARDSM_CHECK(::epoll_ctl(mb.epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0,
               "watch: epoll_ctl failed");
}

void MailboxExecutor::unwatch(std::size_t slot, int fd) {
  (void)::epoll_ctl(mailbox(slot).epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
}

void MailboxExecutor::deliver_now(std::size_t slot, Message&& m) {
  std::exception_ptr failure;
  try {
    // Released before the pending unit, like a dequeued message.
    const Message item = std::move(m);
    delivery_.deliver(*mailbox(slot).ep, item);
  } catch (...) {
    failure = std::current_exception();
  }
  finish_handled(std::move(failure));
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

void MailboxExecutor::poll_descriptors(Mailbox& mb, bool block) {
  std::array<epoll_event, 16> events{};
  const int ready =
      ::epoll_wait(mb.epoll_fd, events.data(), static_cast<int>(events.size()),
                   block ? -1 : 0);
  for (int i = 0; i < ready; ++i) {
    void* tag = events[static_cast<std::size_t>(i)].data.ptr;
    if (tag == nullptr || tag == &mb) {
      std::uint64_t count = 0;
      (void)!::read(tag == nullptr ? mb.wake_fd : mb.timer_fd, &count,
                    sizeof(count));
      if (tag == &mb) mb.armed.reset();
    } else {
      delivery_.readable(tag);
    }
  }
}

void MailboxExecutor::worker_loop(Mailbox& mb) {
  tl_mailbox = &mb;
  int since_poll = 0;
  std::unique_lock lock(mb.mu);
  while (true) {
    const auto timer_due = [&] {
      return !mb.timers.empty() &&
             mb.timers.front().deadline <= std::chrono::steady_clock::now();
    };
    if (!running_.load()) break;
    const bool ready = !mb.messages.empty() || !mb.tasks.empty() || timer_due();

    if (!ready || since_poll >= kItemsPerPoll) {
      // Park in epoll until a descriptor, the eventfd or the timerfd wakes
      // it — or, with items queued, only peek at the descriptors.  A timer
      // armed after this point writes the eventfd, and the next pass
      // re-arms the timerfd.
      std::optional<std::chrono::steady_clock::time_point> deadline;
      if (!ready && !mb.timers.empty()) deadline = mb.timers.front().deadline;
      mb.parked = !ready;
      lock.unlock();
      if (deadline && deadline != mb.armed) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            deadline->time_since_epoch())
                            .count();
        itimerspec at{};
        at.it_value.tv_sec = static_cast<std::time_t>(ns / 1'000'000'000);
        at.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
        PARDSM_CHECK(::timerfd_settime(mb.timer_fd, TFD_TIMER_ABSTIME, &at,
                                       nullptr) == 0,
                     "mailbox: timerfd_settime failed");
        mb.armed = deadline;
      }
      poll_descriptors(mb, /*block=*/!ready);
      lock.lock();
      mb.parked = false;
      since_poll = 0;
      continue;
    }
    ++since_poll;

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
        std::pop_heap(mb.timers.begin(), mb.timers.end(), std::greater<>{});
        const Task task = std::move(mb.timers.back().task);
        mb.timers.pop_back();
        lock.unlock();
        task();
      }
    } catch (...) {
      failure = std::current_exception();
    }
    if (lock.owns_lock()) lock.unlock();
    finish_handled(std::move(failure));
    lock.lock();
  }
}

void MailboxExecutor::finish_handled(std::exception_ptr failure) {
  // Published only after the catch block has let go of the exception, so
  // the thread that rethrows it is its one remaining user.
  if (failure) record_failure(std::move(failure));
  note_activity();
  finish_item();
}

// -- WallClockRoot ------------------------------------------------------------

namespace {
/// Draw stream tag (counter_rng).
constexpr std::uint64_t kFaultStreamTag = 0x4641554CULL;  // "FAUL"
}  // namespace

ChannelFaults& WallClockRoot::faults() {
  if (!faults_) {
    const std::size_t n = process_count();
    faults_.emplace(n, channel_);
    pair_streams_.assign(n * n, 0);
  }
  return *faults_;
}

Message WallClockRoot::stamp(ProcessId from, ProcessId to, BodyRef body,
                             MessageMeta meta) {
  Message m;
  m.from = from;
  m.to = to;
  m.body = std::move(body);
  m.meta = std::move(meta);
  m.id = next_msg_id_.fetch_add(1);
  m.send_time = now();
  stats_.on_send(m);
  return m;
}

Rng& WallClockRoot::draws(const Message& m, std::optional<Rng>& stream) {
  if (!stream) {
    const std::size_t ij = faults_->pair(m.from, m.to);
    stream.emplace(counter_rng(seed_, static_cast<std::uint64_t>(m.from),
                               static_cast<std::uint64_t>(m.to),
                               pair_streams_[ij]++, kFaultStreamTag));
  }
  return *stream;
}

void WallClockRoot::enqueue(Message&& m, int copies) {
  const std::size_t to = slot(m.to);
  for (int c = copies; c > 0; --c) {
    exec_.add_pending();
    exec_.enqueue(to, c > 1 ? Message(m) : std::move(m));
  }
}

void WallClockRoot::deliver(Endpoint& ep, const Message& m) {
  if (faults_->has_faults() && faults_->is_down(m.to)) {
    bump(drops_.in_flight);
    return;
  }
  stats_.on_deliver(m);
  ep.on_message(m);
}

// -- ThreadRuntime ------------------------------------------------------------

ProcessId ThreadRuntime::add_endpoint(Endpoint* ep) {
  return static_cast<ProcessId>(exec_.add(ep));
}

void ThreadRuntime::start() {
  (void)faults();
  stats_.resize(exec_.size());
  exec_.start();
}

void ThreadRuntime::send(ProcessId from, ProcessId to, BodyRef body,
                         MessageMeta meta) {
  PARDSM_CHECK(to >= 0 && static_cast<std::size_t>(to) < exec_.size(),
               "send: bad destination");
  PARDSM_CHECK(exec_.on_worker(static_cast<std::size_t>(from)),
               "send: caller is not the sender's mailbox worker");
  Message m = stamp(from, to, std::move(body), std::move(meta));
  std::optional<Rng> stream;
  const SendFate f = fate(m, stream);
  enqueue(std::move(m), f.copies);
}

}  // namespace pardsm
