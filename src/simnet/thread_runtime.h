// Real-thread runtime: one std::thread per MCS process.
//
// Protocols validated under the deterministic simulator also run here,
// under genuine preemptive parallelism with lock-guarded mailboxes.  This
// is the repository's "multi-node emulation": each process has private
// state touched only by its own thread, and all interaction happens through
// messages — a faithful shared-nothing execution on one machine.
//
// The per-process automaton lives in MailboxExecutor: one worker thread
// per registered endpoint, reacting to one task, message or due timer at
// a time, plus the quiescence ledger that tells a driver when every queue
// has drained.  Both wall-clock roots run on it: ThreadRuntime is the
// executor plus an in-memory send, and SocketTransport (socket_transport.h)
// registers each process's inbound TCP connections with its worker, which
// reads and delivers their frames itself.
//
// Delivery guarantees: per sender-receiver pair, FIFO (a mailbox is a
// mutex-protected queue appended in program order), lossless and
// duplicate-free.  There is no artificial latency; asynchrony comes from
// the OS scheduler.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/network.h"
#include "simnet/recycling_alloc.h"
#include "simnet/stats.h"
#include "simnet/transport.h"

namespace pardsm {

/// One mailbox worker thread per registered endpoint.  Slots are numbered
/// in add() order; the owning root maps its ProcessIds onto them.
///
/// Quiescence: every queued task, message and timer holds one unit of the
/// pending count from when it is announced (add_pending(), or implicitly by
/// post()/set_timer()) until its handler returns (finish_item()).  A root
/// whose items leave through another path (socket frames on the wire)
/// takes and releases units itself.
///
/// Parking: an idle worker parks in epoll on an eventfd, which
/// post/enqueue/set_timer write only while it is parked, a timerfd armed
/// to its next timer deadline, and whatever descriptors the root gave it
/// with watch() (the socket root's inbound connections); it hands each
/// readable descriptor to the root.  A worker with items queued still
/// polls its descriptors every kItemsPerPoll items, so a busy mailbox
/// cannot starve its sockets.  Each slot holds three descriptors of its
/// own (epoll, eventfd, timerfd).
class MailboxExecutor {
 public:
  /// The root's steps, called on the worker thread.  deliver() runs for
  /// every dequeued message: implementations account the delivery and
  /// hand the message to `ep` — or suppress it (the socket root's
  /// fail-pause window).  readable() runs for each watched descriptor
  /// epoll reports readable.
  /// Virtual calls, so the per-message path allocates nothing.
  class Delivery {
   public:
    virtual void deliver(Endpoint& ep, const Message& m) = 0;
    virtual void readable(void* tag) { (void)tag; }

   protected:
    ~Delivery() = default;
  };

  explicit MailboxExecutor(Delivery& delivery);
  ~MailboxExecutor();

  MailboxExecutor(const MailboxExecutor&) = delete;
  MailboxExecutor& operator=(const MailboxExecutor&) = delete;

  /// Register an endpoint; returns its slot.  Must precede start().
  std::size_t add(Endpoint* ep);
  [[nodiscard]] std::size_t size() const { return mailboxes_.size(); }
  /// True iff the calling thread is `slot`'s worker: the one thread that
  /// may act for that process (send on its behalf, write its ledger slot).
  [[nodiscard]] bool on_worker(std::size_t slot) const;

  /// Reset the clock epoch and spawn one worker per slot.
  void start();
  /// Wake and join every worker; queued items are abandoned (pair with
  /// await_quiescence for a clean shutdown).  Idempotent.  Then rethrows
  /// a handler exception no earlier call has rethrown (see
  /// await_quiescence).
  void stop();
  /// stop() without the rethrow: for destructors, and for a root that
  /// still has threads of its own to join before it reports.
  void halt();

  /// Run `task` on `slot`'s worker.
  void post(std::size_t slot, std::function<void()> task);
  /// Queue `m` for `slot`'s endpoint.  The caller has already taken its
  /// pending unit (add_pending()) — possibly long before, on another
  /// thread, as a loopback socket frame does.
  void enqueue(std::size_t slot, Message m);
  /// Fire `ep->on_timer(tag)` on `slot`'s worker after `delay`.
  void set_timer(std::size_t slot, Duration delay, TimerTag tag);

  /// On `slot`'s worker: park on `fd` too, and call
  /// readable(tag) on that worker whenever it has bytes (or EOF) to read.
  void watch(std::size_t slot, int fd, void* tag);
  /// Stop watching `fd` (before it is closed).
  void unwatch(std::size_t slot, int fd);
  /// On `slot`'s worker (inside readable()): run the delivery step for `m`
  /// now, exactly as for a dequeued message — failure capture, activity,
  /// and the release of one pending unit the caller has taken.
  void deliver_now(std::size_t slot, Message&& m);

  /// Wall time since start() (since construction before it).
  [[nodiscard]] TimePoint now() const;

  void add_pending() { pending_.fetch_add(1); }
  void finish_item();
  /// Block until the pending count reaches zero, a handler throws, or
  /// `timeout` elapses.  Returns true on quiescence; rethrows a handler
  /// exception no earlier call has rethrown.
  ///
  /// Handler failures: a task, delivery or timer handler that throws does
  /// not end the process.  Its worker keeps the first exception (later
  /// ones are dropped until that one is rethrown), releases the item's
  /// pending unit and carries on; await_quiescence, rethrow_failure or
  /// stop() hands it to the caller, once.  An exception nobody collects is
  /// dropped by the destructor.  The other workers carry on too, so a
  /// caller that unwinds must halt the root before destroying what its
  /// handlers touch (HaltOnExit).
  bool await_quiescence(std::chrono::milliseconds timeout);
  /// Rethrow (and release) the held handler exception, if any: for a
  /// driver that waits on its own conditions instead of await_quiescence.
  void rethrow_failure();

  /// Monotone activity counter: bumped after every handled item and by
  /// the root for its own events; an unchanged value over a window means
  /// nothing happened.
  void note_activity() { activity_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t activity() const { return activity_.load(); }
  /// True while any mailbox holds an unhandled task or message.
  [[nodiscard]] bool has_queued() const;

 private:
  struct TimerItem {
    std::chrono::steady_clock::time_point deadline;
    TimerTag tag = 0;
    friend bool operator>(const TimerItem& a, const TimerItem& b) {
      return a.deadline > b.deadline;
    }
  };

  using Task = std::function<void()>;

  /// One per slot: its queues, timers, endpoint and worker thread.
  struct Mailbox {
    std::mutex mu;
    /// Recycles the queues' chunks, so a steady stream of messages and
    /// tasks stops allocating once the queues reach their depth.  Every
    /// push and pop runs under `mu`, so the pool, which is not
    /// thread-safe, is only ever touched under that lock.
    RecyclingPool chunk_pool;
    std::deque<Message, RecyclingAlloc<Message>> messages{
        RecyclingAlloc<Message>(&chunk_pool)};
    std::deque<Task, RecyclingAlloc<Task>> tasks{
        RecyclingAlloc<Task>(&chunk_pool)};
    std::priority_queue<TimerItem, std::vector<TimerItem>, std::greater<>>
        timers;
    Endpoint* ep = nullptr;
    std::thread worker;
    int epoll_fd = -1;
    int wake_fd = -1;     ///< eventfd, watched with a null tag
    int timer_fd = -1;    ///< timerfd, watched with this Mailbox as tag
    bool parked = false;  ///< in epoll without queued items; guarded by mu
    /// The timerfd's deadline (none: disarmed or fired); worker only.
    std::optional<std::chrono::steady_clock::time_point> armed;
    ~Mailbox();
  };

  /// A worker with queued items polls its descriptors after this many.
  static constexpr int kItemsPerPoll = 32;

  [[nodiscard]] Mailbox& mailbox(std::size_t slot);
  void worker_loop(Mailbox& mb);
  /// Wait on `mb`'s descriptors (`block`: until one is readable, else
  /// just peek) and hand every readable one to the root.
  void poll_descriptors(Mailbox& mb, bool block);
  /// After a queue push under `lock`: release it and wake the worker.
  static void wake(Mailbox& mb, std::unique_lock<std::mutex>& lock);
  /// Close out a handled item: keep its failure, note activity, release
  /// its pending unit.
  void finish_handled(std::exception_ptr failure);
  /// Keep `e` if no failure is held, and wake await_quiescence.
  void record_failure(std::exception_ptr e);

  Delivery& delivery_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  std::exception_ptr failure_;  ///< guarded by quiesce_mu_
  std::atomic<std::uint64_t> activity_{0};
  std::chrono::steady_clock::time_point start_time_;
};

/// Transport implementation where every endpoint runs on its own thread.
class ThreadRuntime final : public RootTransport,
                            private MailboxExecutor::Delivery {
 public:
  ThreadRuntime() = default;
  ~ThreadRuntime() override { halt(); }

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  /// Register an endpoint; must be called before start().
  ProcessId add_endpoint(Endpoint* ep) override;

  /// Spawn one thread per endpoint and begin processing.
  void start();

  /// Block until no queued work, no running handler and no pending timer
  /// remains, or until `timeout` elapses.  Returns true on quiescence.
  bool await_quiescence(std::chrono::milliseconds timeout) {
    return exec_.await_quiescence(timeout);
  }

  /// Stop all threads (after draining is the caller's responsibility —
  /// pair with await_quiescence for clean shutdown) and join them.
  /// Rethrows a handler exception await_quiescence has not.
  void stop() { exec_.stop(); }
  /// stop() without the rethrow.  Idempotent.
  void halt() { exec_.halt(); }

  /// Run `task` on the thread owning process `who`.  This is how drivers
  /// invoke protocol operations without data races.
  void post(ProcessId who, std::function<void()> task) {
    exec_.post(static_cast<std::size_t>(who), std::move(task));
  }
  /// The root seam: posts `fn` to `owner`'s mailbox.  There is no
  /// virtual clock to wait on, so `when` (think time) is ignored.
  void schedule_at(TimePoint when, ProcessId owner,
                   std::function<void()> fn) override {
    (void)when;
    post(owner, std::move(fn));
  }

  // -- Transport interface ---------------------------------------------------
  /// Runs on `from`'s worker only (checked): post() it there.
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] TimePoint now() const override { return exec_.now(); }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override {
    exec_.set_timer(static_cast<std::size_t>(who), delay, tag);
  }
  [[nodiscard]] std::size_t process_count() const override {
    return exec_.size();
  }
  /// Concurrent arena: bodies cross worker threads, so refcounts are
  /// atomic and freelists locked.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    (void)owner;
    return arena_;
  }

  /// Each process's slot is written by its worker (send and delivery);
  /// read after await_quiescence() or stop().
  [[nodiscard]] NetworkStats& stats() { return stats_; }

 private:
  void deliver(Endpoint& ep, const Message& m) override {
    stats_.on_deliver(m);
    ep.on_message(m);
  }

  // Declaration order is destruction order reversed: the executor (whose
  // queued messages hold arena bodies and whose workers touch stats_)
  // goes first.
  BodyArena arena_{/*concurrent=*/true};
  NetworkStats stats_;
  std::atomic<std::uint64_t> next_msg_id_{1};
  MailboxExecutor exec_{*this};
};

/// Halts a wall-clock root (ThreadRuntime, SocketTransport) when it goes
/// out of scope.  Declared after everything the root's handlers touch, it
/// joins the workers before that state is destroyed, also when a rethrown
/// handler exception or a failed check unwinds the scope.
template <class Root>
class HaltOnExit {
 public:
  explicit HaltOnExit(Root& root) : root_(root) {}
  ~HaltOnExit() { root_.halt(); }

  HaltOnExit(const HaltOnExit&) = delete;
  HaltOnExit& operator=(const HaltOnExit&) = delete;

 private:
  Root& root_;
};

}  // namespace pardsm
