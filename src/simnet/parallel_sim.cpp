#include "simnet/parallel_sim.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "simnet/check.h"

namespace pardsm {

namespace {

/// Stream tags separating the two per-message channel streams (the
/// counter-based form of Network's latency / fault stream split).
constexpr std::uint64_t kTagLatency = 0x4C41544EULL;  // "LATN"
constexpr std::uint64_t kTagFault = 0x4641554CULL;    // "FAUL"
constexpr std::uint64_t kTagChannel = 0x4348414EULL;  // "CHAN"

/// Event classes of the canonical key: deliveries before timers before
/// closures at equal times.
constexpr std::uint64_t kDeliverClass = 0;
constexpr std::uint64_t kTimerClass = 1;
constexpr std::uint64_t kClosureClass = 2;

/// Which shard (if any) the calling thread is currently draining, per
/// simulator: workers of one simulator never call into another.
struct ShardContext {
  const void* sim = nullptr;
  void* shard = nullptr;
};
thread_local ShardContext tl_shard_ctx;

/// Polls before a barrier wait sleeps in the kernel.  A busy run's shards
/// finish a window within tens of microseconds of each other; a spin
/// catches that without a futex round trip, and yielding (not pausing)
/// between polls hands the core to the threads being waited for when
/// there are more threads than cores.  At about 0.4 us a yield, 250 polls
/// cover about 0.1 ms.  docs/PARALLEL.md has the measurements: this spin
/// against pause spins and a pure futex wait, on par-pram-large and on
/// the parallel ctest suites at -j4.
constexpr int kSpinBeforeWait = 250;

/// Wait until `a` no longer holds `old` and return its new value (with
/// acquire ordering): a bounded spin, then std::atomic::wait.
std::uint32_t await_change(const std::atomic<std::uint32_t>& a,
                           std::uint32_t old) {
  for (int i = 0; i < kSpinBeforeWait; ++i) {
    const std::uint32_t now = a.load(std::memory_order_acquire);
    if (now != old) return now;
    std::this_thread::yield();
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

}  // namespace

ParallelSimulator::ParallelSimulator(ParallelSimOptions options)
    : options_(std::move(options)),
      shard_of_(std::move(options_.shard_of)) {
  PARDSM_CHECK(options_.num_threads >= 1,
               "ParallelSimulator needs at least one worker");
  channel_seed_ = mix_word(options_.seed, kTagChannel);
  arenas_.reserve(options_.num_threads);
  for (unsigned w = 0; w < options_.num_threads; ++w) {
    arenas_.push_back(std::make_unique<BodyArena>(/*concurrent=*/true));
  }
}

// run() joins its helpers on every path, the throwing ones included.
ParallelSimulator::~ParallelSimulator() = default;

ProcessId ParallelSimulator::add_endpoint(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  PARDSM_CHECK(!frozen_, "add_endpoint: registration is frozen");
  endpoints_.push_back(ep);
  return static_cast<ProcessId>(endpoints_.size() - 1);
}

void ParallelSimulator::freeze() {
  if (frozen_) return;
  const std::size_t n = endpoints_.size();
  PARDSM_CHECK(n > 0, "freeze: no endpoints registered");

  if (!options_.latency) {
    options_.latency = std::make_unique<ConstantLatency>(millis(1));
  }
  // The barrier window is the largest safe one: no message sent in a
  // window can arrive inside it.
  quantum_ = options_.latency->lower_bound();
  PARDSM_CHECK(quantum_.us >= 1, "freeze: latency lower bound below 1us");

  const auto num_shards = static_cast<int>(options_.num_threads);
  if (shard_of_.empty()) {
    shard_of_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      shard_of_[p] = block_shard(p, n, num_shards);
    }
  } else {
    PARDSM_CHECK(shard_of_.size() == n,
                 "freeze: shard_of must cover every process");
    for (int s : shard_of_) {
      PARDSM_CHECK(s >= 0 && s < num_shards, "freeze: shard out of range");
    }
  }

  shards_.reserve(options_.num_threads);
  for (unsigned w = 0; w < options_.num_threads; ++w) {
    // Every sample, a duplicate's included, must cover its window.
    shards_.push_back(std::make_unique<Shard>(
        ChannelState{.fifo = options_.channel.fifo,
                     .latency = options_.latency->clone(),
                     .floor = quantum_},
        options_.num_threads));
  }
  faults_.emplace(n, options_.channel);

  send_seq_.assign(n, 0);
  timer_seq_.assign(n, 0);
  closure_seq_.assign(n, 0);
  stats_.resize(n);
  frozen_ = true;
}

ChannelFaults& ParallelSimulator::faults() {
  freeze();
  return *faults_;
}

ParallelSimulator::Shard* ParallelSimulator::current_shard() const {
  if (tl_shard_ctx.sim != this) return nullptr;
  return static_cast<Shard*>(tl_shard_ctx.shard);
}

TimePoint ParallelSimulator::now() const {
  if (const Shard* shard = current_shard()) return shard->now;
  return coordinator_now_;
}

void ParallelSimulator::send(ProcessId from, ProcessId to, BodyRef body,
                             MessageMeta meta) {
  PARDSM_CHECK(frozen_, "send before freeze()");
  faults_->check_pair(from, to, "send: bad process");
  Shard* ctx = current_shard();
  const int sender_shard = shard_of_[static_cast<std::size_t>(from)];
  Shard& ss = *shards_[static_cast<std::size_t>(sender_shard)];
  // A worker may only send on behalf of its own processes; the coordinator
  // (global events, pre-run setup) may send for anyone — workers are parked.
  PARDSM_CHECK(ctx == nullptr || ctx == &ss,
               "send: sender does not live on the calling shard");

  Message m;
  m.from = from;
  m.to = to;
  m.body = std::move(body);
  m.meta = std::move(meta);
  m.send_time = ctx != nullptr ? ss.now : coordinator_now_;
  stats_.on_send(m);
  plan_and_schedule(ss, std::move(m));
}

void ParallelSimulator::plan_and_schedule(Shard& ss, Message&& m) {
  const ProcessId from = m.from;
  const ProcessId to = m.to;
  const std::uint64_t send_seq = send_seq_[static_cast<std::size_t>(from)]++;
  // Deterministic per-sender ids (the sequential engine's global counter
  // would depend on cross-process interleaving).
  m.id = ((static_cast<std::uint64_t>(from) + 1) << 40) | (send_seq + 1);

  const std::uint64_t pair_k =
      ss.pair_seq.get_or_insert(faults_->pair(from, to), 0)++;

  // Both streams are keyed on (seed, from, to, per-pair counter), so the
  // draws are a function of the message's logical coordinates only.  The
  // fault stream is built only if the plan asks for it.
  const auto stream = [&](std::uint64_t tag) {
    return counter_rng(channel_seed_, static_cast<std::uint64_t>(from),
                       static_cast<std::uint64_t>(to), pair_k, tag);
  };
  Rng lat_rng = stream(kTagLatency);
  std::optional<Rng> fault_rng;
  const auto fault_stream = [&]() -> Rng& {
    if (!fault_rng) fault_rng.emplace(stream(kTagFault));
    return *fault_rng;
  };
  const DeliveryPlan deliveries = ss.channel.plan(
      *faults_, from, to, m.send_time, lat_rng, fault_stream);

  Shard* ctx = current_shard();
  const auto dest_shard =
      static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(to)]);
  Shard& ds = *shards_[dest_shard];
  // A worker parks a cross-shard delivery in its box for the destination
  // shard, which pulls it at the start of the next window.  Delivery lands
  // at or after this window's end, so the detour is never late.  The
  // coordinator (workers parked) queues directly.
  const bool cross = ctx != nullptr && &ds != ctx;
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    const TimePoint when = deliveries[i];
    // A duplicate orders after its original: (send_seq << 1) | copy.
    const std::uint64_t key = canonical_key(
        kDeliverClass, from, (send_seq << 1) | static_cast<std::uint64_t>(i));
    if (cross) {
      ss.parked_min[parity_] = std::min(ss.parked_min[parity_], when);
    }
    Message& slot =
        cross ? ss.outbox[parity_][dest_shard]
                    .emplace_back(Outgoing{when, key, {}})
                    .msg
              : ds.queue.alloc(when, Event::Type::kDeliver, key).msg;
    if (i + 1 < deliveries.size()) {
      slot = m;  // duplicated delivery keeps a copy
    } else {
      slot = std::move(m);
    }
    slot.deliver_time = when;
  }
}

void ParallelSimulator::set_timer(ProcessId who, Duration delay,
                                  TimerTag tag) {
  PARDSM_CHECK(frozen_, "set_timer before freeze()");
  PARDSM_CHECK(who >= 0 &&
                   static_cast<std::size_t>(who) < endpoints_.size(),
               "set_timer: bad process");
  PARDSM_CHECK(delay.us >= 0, "set_timer: negative delay");
  Shard* ctx = current_shard();
  Shard& owner =
      *shards_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(who)])];
  PARDSM_CHECK(ctx == nullptr || ctx == &owner,
               "set_timer: cross-shard timers are not supported (timers are "
               "process-local by contract)");
  Event& e = owner.queue.alloc(
      (ctx != nullptr ? owner.now : coordinator_now_) + delay,
      Event::Type::kTimer,
      canonical_key(kTimerClass, who,
                    timer_seq_[static_cast<std::size_t>(who)]++));
  e.timer_who = who;
  e.timer_tag = tag;
}

void ParallelSimulator::schedule_at(TimePoint when, ProcessId owner,
                                    std::function<void()> fn) {
  freeze();
  PARDSM_CHECK(owner >= 0 &&
                   static_cast<std::size_t>(owner) < endpoints_.size(),
               "schedule_at: bad owner");
  Shard* ctx = current_shard();
  Shard& os =
      *shards_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(owner)])];
  PARDSM_CHECK(ctx == nullptr || ctx == &os,
               "schedule_at: owner does not live on the calling shard");
  PARDSM_CHECK(when >= (ctx != nullptr ? os.now : coordinator_now_),
               "schedule_at: time in the past");
  os.queue
      .alloc(when, Event::Type::kClosure,
             canonical_key(kClosureClass, owner,
                           closure_seq_[static_cast<std::size_t>(owner)]++))
      .fire = std::move(fn);
}

void ParallelSimulator::schedule_global(TimePoint when,
                                        std::function<void()> fn) {
  freeze();
  PARDSM_CHECK(current_shard() == nullptr,
               "schedule_global: coordinator/setup only");
  PARDSM_CHECK(when >= coordinator_now_, "schedule_global: time in the past");
  globals_.push_back({when, next_global_seq_++, std::move(fn)});
  std::push_heap(globals_.begin(), globals_.end(),
                 [](const GlobalEvent& a, const GlobalEvent& b) {
                   if (a.when != b.when) return a.when > b.when;
                   return a.seq > b.seq;
                 });
}

void ParallelSimulator::dispatch(Shard& shard, Event& e) {
  switch (e.type) {
    case Event::Type::kDeliver: {
      Message& m = e.msg;
      if (faults_->is_down(m.to)) {
        // In flight toward a process that crashed after the send: lost
        // with the crash, same as the sequential runtime.
        ++shard.channel.drops.in_flight;
        return;
      }
      stats_.on_deliver(m);
      endpoints_[static_cast<std::size_t>(m.to)]->on_message(m);
      break;
    }
    case Event::Type::kTimer:
      endpoints_[static_cast<std::size_t>(e.timer_who)]->on_timer(
          e.timer_tag);
      break;
    case Event::Type::kClosure:
      e.fire();
      break;
  }
}

void ParallelSimulator::drain_shard(unsigned w) noexcept {
  Shard& shard = *shards_[w];
  tl_shard_ctx = {this, &shard};
  try {
    EventQueue& queue = shard.queue;
    // The previous window's senders are done with these boxes, and this
    // window's park into the other parity's.  Queue order is the
    // canonical key, so the pull order is irrelevant to execution order.
    for (const auto& src : shards_) {
      std::vector<Outgoing>& box = src->outbox[parity_ ^ 1U][w];
      for (Outgoing& o : box) {
        queue.alloc(o.when, Event::Type::kDeliver, o.key).msg =
            std::move(o.msg);
      }
      box.clear();
    }
    shard.parked_min[parity_] = kTimeForever;
    while (!queue.empty() && queue.next_time() < window_end_) {
      // In place, as in Simulator::step: the payload stays in its pooled
      // slot while the handler runs and is recycled afterwards.
      Event& e = queue.pop_ref();
      PARDSM_CHECK(e.when >= shard.now, "shard clock went backwards");
      shard.now = e.when;
      ++shard.events_fired;
      PARDSM_CHECK(shard.events_fired <= options_.max_events,
                   "simulation exceeded max_events — non-terminating "
                   "protocol?");
      dispatch(shard, e);
      queue.release(e);
    }
  } catch (...) {
    worker_errors_[w] = std::current_exception();
  }
  tl_shard_ctx = {};
}

void ParallelSimulator::helper_loop(unsigned w, std::uint32_t epoch) {
  for (;;) {
    epoch = await_change(epoch_, epoch);
    if (stop_) return;
    drain_shard(w);
    if (working_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      working_.notify_one();
    }
  }
}

void ParallelSimulator::run_window(TimePoint window_end) {
  window_end_ = window_end;
  parity_ ^= 1U;
  if (!helpers_.empty()) {
    working_.store(static_cast<std::uint32_t>(helpers_.size()),
                   std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  drain_shard(0);
  for (std::uint32_t left = working_.load(std::memory_order_acquire);
       left != 0; left = await_change(working_, left)) {
  }
  // Every shard has finished the window, so the first error can unwind.
  for (std::exception_ptr& err : worker_errors_) {
    if (err) std::rethrow_exception(std::exchange(err, nullptr));
  }
}

void ParallelSimulator::stop_helpers() {
  if (helpers_.empty()) return;
  stop_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : helpers_) t.join();
  helpers_.clear();
}

void ParallelSimulator::run() {
  freeze();
  PARDSM_CHECK(!running_, "run: already running");
  running_ = true;

  const auto global_min = [this] {
    return globals_.empty() ? kTimeForever : globals_.front().when;
  };
  const auto pop_global = [this] {
    std::pop_heap(globals_.begin(), globals_.end(),
                  [](const GlobalEvent& a, const GlobalEvent& b) {
                    if (a.when != b.when) return a.when > b.when;
                    return a.seq > b.seq;
                  });
    GlobalEvent g = std::move(globals_.back());
    globals_.pop_back();
    return g;
  };

  worker_errors_.assign(options_.num_threads, nullptr);
  stop_ = false;
  try {
    // Helpers start from the current epoch, read here before any bump, so
    // none can mistake an earlier run's last epoch for a new window.
    const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
    helpers_.reserve(options_.num_threads - 1);
    for (unsigned w = 1; w < options_.num_threads; ++w) {
      helpers_.emplace_back([this, w, epoch] { helper_loop(w, epoch); });
    }

    for (;;) {
      // The earliest pending event: a queue front, or a delivery parked
      // in the last window and not pulled yet.
      TimePoint shard_min = kTimeForever;
      for (const auto& shard : shards_) {
        if (!shard->queue.empty()) {
          shard_min = std::min(shard_min, shard->queue.next_time());
        }
        shard_min = std::min(shard_min, shard->parked_min[parity_]);
      }
      const TimePoint g_min = global_min();
      if (shard_min == kTimeForever && globals_.empty()) break;

      if (g_min <= shard_min) {
        // Stop-the-world instant: every scenario event at this time fires
        // on the coordinator, before any same-time traffic — matching the
        // sequential engine, where scenario closures carry earlier
        // insertion sequence numbers than all run-time traffic.
        coordinator_now_ = g_min;
        while (!globals_.empty() && globals_.front().when == g_min) {
          GlobalEvent g = pop_global();
          ++coordinator_events_;
          g.fire();
        }
        continue;
      }

      const TimePoint window_start = shard_min;
      TimePoint window_end = window_start + quantum_;
      if (g_min < window_end) window_end = g_min;
      coordinator_now_ = window_start;
      run_window(window_end);
      PARDSM_CHECK(events_fired() <= options_.max_events,
                   "simulation exceeded max_events — non-terminating "
                   "protocol?");
    }
  } catch (...) {
    stop_helpers();
    running_ = false;
    throw;
  }
  stop_helpers();

  for (const auto& shard : shards_) {
    coordinator_now_ = std::max(coordinator_now_, shard->now);
  }
  running_ = false;
}

DropCounters ParallelSimulator::drop_counters() const {
  DropCounters total;
  for (const auto& shard : shards_) {
    const DropCounters& d = shard->channel.drops;
    total.loss += d.loss;
    total.severed += d.severed;
    total.down += d.down;
    total.in_flight += d.in_flight;
  }
  return total;
}

std::size_t ParallelSimulator::fifo_pairs() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->channel.last_delivery.size();
  }
  return total;
}

std::size_t ParallelSimulator::state_bytes() const {
  std::size_t total = faults_ ? faults_->table_bytes() : 0;
  for (const auto& shard : shards_) {
    total += shard->channel.last_delivery.memory_bytes() +
             shard->pair_seq.memory_bytes();
  }
  return total;
}

std::uint64_t ParallelSimulator::events_fired() const {
  std::uint64_t total = coordinator_events_;
  for (const auto& shard : shards_) total += shard->events_fired;
  return total;
}

}  // namespace pardsm
