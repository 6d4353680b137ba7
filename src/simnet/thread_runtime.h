// Real-thread runtime: one std::thread per MCS process.
//
// Protocols validated under the deterministic simulator also run here,
// under genuine preemptive parallelism with lock-guarded mailboxes.  This
// is the repository's "multi-node emulation": each process has private
// state touched only by its own thread, and all interaction happens through
// messages — a faithful shared-nothing execution on one machine.
//
// Delivery guarantees: per sender-receiver pair, FIFO (a mailbox is a
// mutex-protected queue appended in program order).  Loss/duplication can
// be injected like in the simulator.  There is no artificial latency;
// asynchrony comes from the OS scheduler.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "simnet/network.h"
#include "simnet/rng.h"
#include "simnet/stats.h"
#include "simnet/transport.h"

namespace pardsm {

/// Options for the thread runtime.
struct ThreadRuntimeOptions {
  std::uint64_t seed = 1;
  /// Loss / duplication (FIFO ordering is inherent and cannot be disabled).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

/// Transport implementation where every endpoint runs on its own thread.
class ThreadRuntime final : public RootTransport {
 public:
  explicit ThreadRuntime(ThreadRuntimeOptions options = {});
  ~ThreadRuntime() override;

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  /// Register an endpoint; must be called before start().
  ProcessId add_endpoint(Endpoint* ep) override;

  /// Spawn one thread per endpoint and begin processing.
  void start();

  /// Block until no queued work, no running handler and no pending timer
  /// remains, or until `timeout` elapses.  Returns true on quiescence.
  bool await_quiescence(std::chrono::milliseconds timeout);

  /// Stop all threads (after draining is the caller's responsibility —
  /// pair with await_quiescence for clean shutdown) and join them.
  void stop();

  /// Run `task` on the thread owning process `who`.  This is how drivers
  /// invoke protocol operations without data races.
  void post(ProcessId who, std::function<void()> task);
  /// The root seam: posts `fn` to `owner`'s mailbox.  There is no
  /// virtual clock to wait on, so `when` (think time) is ignored.
  void schedule_at(TimePoint when, ProcessId owner,
                   std::function<void()> fn) override {
    (void)when;
    post(owner, std::move(fn));
  }

  // -- Transport interface ---------------------------------------------------
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override;
  [[nodiscard]] TimePoint now() const override;
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override;
  [[nodiscard]] std::size_t process_count() const override;
  /// Concurrent arena: bodies cross worker threads, so refcounts are
  /// atomic and freelists locked.
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    (void)owner;
    return arena_;
  }

  [[nodiscard]] NetworkStats& stats() { return stats_; }

 private:
  struct TimerItem {
    std::chrono::steady_clock::time_point deadline;
    TimerTag tag = 0;
    friend bool operator>(const TimerItem& a, const TimerItem& b) {
      return a.deadline > b.deadline;
    }
  };

  /// One per process: its queue, timers and worker thread.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> messages;
    std::deque<std::function<void()>> tasks;
    std::priority_queue<TimerItem, std::vector<TimerItem>, std::greater<>>
        timers;
    std::thread worker;
  };

  void worker_loop(ProcessId self);
  void finish_item();

  ThreadRuntimeOptions options_;
  BodyArena arena_{/*concurrent=*/true};
  std::vector<Endpoint*> endpoints_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  NetworkStats stats_;

  std::mutex rng_mu_;
  Rng rng_;

  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  std::chrono::steady_clock::time_point start_time_{};
  std::uint64_t next_msg_id_ = 1;
  std::mutex msg_id_mu_;
};

}  // namespace pardsm
