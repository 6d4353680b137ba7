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
// has drained.  Both wall-clock roots run on it through WallClockRoot
// (clock, ledger, fault state): ThreadRuntime adds an in-memory send, and
// SocketTransport (socket_transport.h) registers each process's inbound
// TCP connections with its worker, which reads and delivers their frames
// itself.
//
// Delivery guarantees: per sender-receiver pair, FIFO (a mailbox is a
// mutex-protected queue appended in program order); lossless and
// duplicate-free unless the run's faults say otherwise.  There is no
// artificial latency; asynchrony comes from the OS scheduler.
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
#include <stop_token>
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
///
/// Timeline: at_time() entries run in time order, each at its time on the
/// executor's clock, on one more thread (the root's scenario timeline).
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

  /// Reset the clock epoch and spawn one worker per slot, and the
  /// timeline thread when at_time() scheduled anything.
  void start();
  /// Wake and join every worker and the timeline thread; queued items and
  /// timeline entries are abandoned (pair with await_quiescence for a
  /// clean shutdown).  Idempotent.  A held handler exception stays for
  /// rethrow_failure().
  void halt();

  /// Run `task` on `slot`'s worker.
  void post(std::size_t slot, std::function<void()> task);
  /// Queue `m` for `slot`'s endpoint.  The caller has already taken its
  /// pending unit (add_pending()) — possibly long before, on another
  /// thread, as a loopback socket frame does.
  void enqueue(std::size_t slot, Message m);
  /// Fire `ep->on_timer(tag)` on `slot`'s worker after `delay`.
  void set_timer(std::size_t slot, Duration delay, TimerTag tag);
  /// Run `task` on `slot`'s worker once now() reaches `when` (at once if
  /// it already has): a wall-clock root's schedule_at.
  void post_at(std::size_t slot, TimePoint when, std::function<void()> task);
  /// Before start(): run `fn` on the timeline thread once now() reaches
  /// `when`, after every entry with an earlier time or an earlier call.
  /// It holds a pending unit until it has run; a throw is kept like a
  /// handler's.
  void at_time(TimePoint when, std::function<void()> fn);

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
  /// pending unit and carries on; await_quiescence or rethrow_failure
  /// (the roots' stop()) hands it to the caller, once.  An exception nobody collects is
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
  using Task = std::function<void()>;

  struct TimerItem {
    std::chrono::steady_clock::time_point deadline;
    Task task;
    friend bool operator>(const TimerItem& a, const TimerItem& b) {
      return a.deadline > b.deadline;
    }
  };

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
    /// Min-heap on deadline (std::push_heap/pop_heap with greater<>), so
    /// a due item's task can be moved out before it is popped.
    std::vector<TimerItem> timers;
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
  /// Run `task` on `mb`'s worker at `deadline` (set_timer, post_at).
  void push_timer(Mailbox& mb, std::chrono::steady_clock::time_point deadline,
                  Task task);
  /// Run the timeline entries at their times until stopped.
  void timeline_loop(const std::stop_token& stop);
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
  /// Entries in call order, stable-sorted by time at start(); only the
  /// timeline thread reads them after that.
  std::vector<std::pair<TimePoint, Task>> timeline_;
  std::jthread timeline_thread_;
};

/// What both wall-clock roots (ThreadRuntime, SocketTransport) build on
/// their MailboxExecutor: the clock, the concurrent arena, the traffic
/// ledger, message ids, the fault state and its draws.  Process p runs on
/// slot(p).
///
/// Faults: one ChannelFaults, which Scenario::apply drives from the
/// timeline thread (at_time()) and, for a crash or recovery, from the
/// victim's worker.  A send asks its fate as the simulators' plan does; a
/// message reaching a down receiver is dropped below the decorator shims,
/// counted as in flight as on the simulators, so the ARQ layer repairs it
/// after recovery.
///
/// Draws: each sent message has its own counter stream, seeded by the
/// run's seed and keyed on (sender, receiver, the pair's message index),
/// so the i-th message of a pair meets the same draws however the OS
/// interleaves other traffic.  A stream is built on its first draw only,
/// and only then takes its index: a fault-free send makes none.
class WallClockRoot : public RootTransport,
                      protected MailboxExecutor::Delivery {
 public:
  WallClockRoot(const WallClockRoot&) = delete;
  WallClockRoot& operator=(const WallClockRoot&) = delete;

  /// Spawn the root's threads and begin processing (after every
  /// add_endpoint and any fault configuration).
  virtual void start() = 0;
  /// Join every thread; queued work is abandoned (pair with
  /// await_quiescence for a clean shutdown).  Idempotent.
  virtual void halt() = 0;
  /// halt(), then rethrow a handler exception await_quiescence has not.
  void stop() {
    halt();
    rethrow_failure();
  }

  /// Run `task` on the worker owning process `who`.  This is how drivers
  /// invoke protocol operations without data races.
  void post(ProcessId who, std::function<void()> task) {
    exec_.post(slot(who), std::move(task));
  }
  /// The root seam: runs `fn` on `owner`'s worker once now() reaches
  /// `when`, so a script's think time is wall time here.
  void schedule_at(TimePoint when, ProcessId owner,
                   std::function<void()> fn) override {
    exec_.post_at(slot(owner), when, std::move(fn));
  }
  [[nodiscard]] TimePoint now() const override { return exec_.now(); }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override {
    exec_.set_timer(slot(who), delay, tag);
  }
  /// Concurrent arena: bodies cross worker threads, so refcounts are
  /// atomic and freelists locked.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    (void)owner;
    return arena_;
  }

  /// Block until no queued work, running handler, pending timer or
  /// timeline entry remains, or `timeout` elapses.  True on quiescence.
  bool await_quiescence(std::chrono::milliseconds timeout) {
    return exec_.await_quiescence(timeout);
  }
  /// Rethrow (and release) a held handler exception, if any.
  void rethrow_failure() { exec_.rethrow_failure(); }

  /// Each process's slot is written by its worker (send and delivery);
  /// read after await_quiescence() or stop().
  [[nodiscard]] NetworkStats& stats() { return stats_; }

  /// The run's fault state over process_count() processes; the first
  /// call fixes n.  Configure it, or Scenario::apply it, before start().
  [[nodiscard]] ChannelFaults& faults();
  /// Run `fn` at `when` on the root's timeline thread (before start()).
  void at_time(TimePoint when, std::function<void()> fn) {
    exec_.at_time(when, std::move(fn));
  }
  /// Messages dropped by the faults so far, by cause.
  [[nodiscard]] DropCounters drops() const {
    return {relaxed_load(drops_.loss), relaxed_load(drops_.severed),
            relaxed_load(drops_.down), relaxed_load(drops_.in_flight)};
  }

 protected:
  /// `channel` seeds the default loss and duplication rates (its fifo
  /// flag is moot: mailboxes and TCP connections are FIFO); `seed` seeds
  /// every draw the root makes.
  WallClockRoot(const ChannelOptions& channel, std::uint64_t seed)
      : channel_(channel), seed_(seed) {}
  ~WallClockRoot() override = default;

  [[nodiscard]] virtual std::size_t slot(ProcessId p) const = 0;
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// A message from `from` to `to`, stamped with its id and send time and
  /// entered in the sender's ledger.
  Message stamp(ProcessId from, ProcessId to, BodyRef body, MessageMeta meta);
  /// ChannelFaults::fate of `m`, sent now, drawn from draws(m, stream); a
  /// drop is counted by cause.  Runs on the sender's worker.
  SendFate fate(const Message& m, std::optional<Rng>& stream) {
    const SendFate f = faults_->fate(
        m.from, m.to, m.send_time, [&]() -> Rng& { return draws(m, stream); });
    if (f.copies == 0) bump(drops_.*f.cause);
    return f;
  }
  /// `m`'s draw stream, built into `stream` on the first call.
  Rng& draws(const Message& m, std::optional<Rng>& stream);
  /// Queue `copies` of `m` on its receiver's mailbox.
  void enqueue(Message&& m, int copies);
  /// Counters many threads bump are plain fields updated atomically.
  static void bump(std::uint64_t& field, std::uint64_t by = 1) {
    std::atomic_ref<std::uint64_t>(field).fetch_add(
        by, std::memory_order_relaxed);
  }

  BodyArena arena_{/*concurrent=*/true};
  NetworkStats stats_;

 private:
  void deliver(Endpoint& ep, const Message& m) override;

  ChannelOptions channel_;
  std::uint64_t seed_;
  std::optional<ChannelFaults> faults_;
  /// Draw streams built so far per directed pair [from * n + to]; row
  /// `from` is written only by from's worker.
  std::vector<std::uint64_t> pair_streams_;
  DropCounters drops_;  ///< bumped by every worker
  std::atomic<std::uint64_t> next_msg_id_{1};

 protected:
  // Last, so it is destroyed first: its queued messages hold arena bodies
  // and its workers touch stats_ and the faults.  (A derived root halts
  // it in its own destructor, before its own members go.)
  MailboxExecutor exec_{*this};
};

/// Transport implementation where every endpoint runs on its own thread.
/// Its loss and duplication draw from WallClockRoot's per-message streams;
/// there is no latency model.
class ThreadRuntime final : public WallClockRoot {
 public:
  explicit ThreadRuntime(ChannelOptions channel = {}, std::uint64_t seed = 1)
      : WallClockRoot(channel, seed) {}
  ~ThreadRuntime() override { halt(); }

  /// Register an endpoint; must be called before start() and faults().
  ProcessId add_endpoint(Endpoint* ep) override;

  /// Spawn one thread per endpoint and begin processing.
  void start() override;
  void halt() override { exec_.halt(); }

  /// Runs on `from`'s worker only (checked): post() it there.
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] std::size_t process_count() const override {
    return exec_.size();
  }

 private:
  [[nodiscard]] std::size_t slot(ProcessId p) const override {
    return static_cast<std::size_t>(p);
  }
};

/// Halts a wall-clock root (ThreadRuntime, SocketTransport) when it goes
/// out of scope.  Declared after everything the root's handlers touch, it
/// joins the workers before that state is destroyed, also when a rethrown
/// handler exception or a failed check unwinds the scope.
class HaltOnExit {
 public:
  explicit HaltOnExit(WallClockRoot& root) : root_(root) {}
  ~HaltOnExit() { root_.halt(); }

  HaltOnExit(const HaltOnExit&) = delete;
  HaltOnExit& operator=(const HaltOnExit&) = delete;

 private:
  WallClockRoot& root_;
};

}  // namespace pardsm
