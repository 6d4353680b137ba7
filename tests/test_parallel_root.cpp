// The parallel root's building blocks, each pinned on its own:
//
//   * the keyed EventQueue the shards run on — events pop in
//     (when, key) order whatever order they were pushed in, checked
//     against a sorted reference through its run and its heap, and the
//     canonical key packs (class, origin, seq) order-preservingly and
//     rejects fields that would bleed into their neighbours;
//   * the lock-free recorder modes — one thread per process records the
//     same counts and the same canonical History as a single thread;
//   * the atomic-epoch window barrier — an exception thrown by a handler
//     on a helper's shard or on the coordinator's own shard 0 reaches
//     run()'s caller intact, after every thread has been joined;
//   * the traffic ledger the shards write directly — repeated run()s
//     count what the sequential root counts;
//   * the conservative window — every latency sample, a duplicate's
//     included, must cover the quantum.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "mcs/recorder.h"
#include "simnet/event_queue.h"
#include "simnet/latency.h"
#include "simnet/parallel_sim.h"
#include "simnet/rng.h"
#include "simnet/simulator.h"
#include "simnet/stats.h"

namespace pardsm {
namespace {

// ---------------------------------------------------------------------------
// Keyed queue and canonical keys.

TEST(KeyedEventQueue, ShuffledPushesPopInWhenKeyOrder) {
  struct Item {
    std::int64_t when_us;
    std::uint64_t key;
  };
  std::vector<Item> items;
  for (std::int64_t t = 0; t < 20; ++t) {
    for (std::uint64_t k = 0; k < 25; ++k) {
      // Keys spread over the whole 64-bit range, unique per instant.
      items.push_back({t, (k * 0x9E3779B97F4A7C15ULL) ^ (k << 3)});
    }
  }
  std::vector<Item> shuffled = items;
  Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }

  EventQueue q;
  for (const Item& it : shuffled) {
    Event& e =
        q.alloc(TimePoint{it.when_us}, Event::Type::kTimer, it.key);
    e.timer_tag = it.key;
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.when_us != b.when_us ? a.when_us < b.when_us : a.key < b.key;
  });
  for (const Item& want : items) {
    ASSERT_FALSE(q.empty());
    Event& e = q.pop_ref();
    EXPECT_EQ(e.when.us, want.when_us);
    EXPECT_EQ(e.seq, want.key);
    EXPECT_EQ(e.timer_tag, want.key);
    q.release(e);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.scheduled_total(), 0u);  // keyed events are not counted
}

/// An EventQueue driven beside a sorted reference: every pop must return
/// the reference's smallest (when, key), and next_time() and size() must
/// agree with it before each pop.
struct DifferentialQueue {
  EventQueue q;
  std::set<std::pair<std::int64_t, std::uint64_t>> ref;
  std::size_t pops = 0;

  void push(std::int64_t when_us, std::uint64_t key) {
    Event& e = q.alloc(TimePoint{when_us}, Event::Type::kTimer, key);
    e.timer_tag = key;
    EXPECT_TRUE(ref.emplace(when_us, key).second) << "key reused";
  }

  /// Pops one event (the reference must be non-empty) and returns its time.
  std::int64_t pop() {
    EXPECT_EQ(q.size(), ref.size());
    const auto [when_us, key] = *ref.begin();
    ref.erase(ref.begin());
    EXPECT_EQ(q.next_time().us, when_us) << "pop " << pops;
    Event& e = q.pop_ref();
    EXPECT_EQ(e.when.us, when_us) << "pop " << pops;
    EXPECT_EQ(e.seq, key) << "pop " << pops;
    EXPECT_EQ(e.timer_tag, key) << "pop " << pops;
    q.release(e);
    ++pops;
    return when_us;
  }

  void drain() {
    while (!ref.empty()) pop();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
  }
};

// The queue appends in-order pushes to a sorted run and sends the rest to
// its heap; whichever side an event took, the pops must follow (when, key).
// Each seed mixes hold-model steps (pop one, push one at or after the popped
// time), in-order runs of pushes broken by earlier ones, times on a coarse
// grid so many events tie on `when`, and the parallel root's canonical keys.
TEST(KeyedEventQueue, MixedPushesMatchSortedReference) {
  constexpr ProcessId kOrigins = 64;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    DifferentialQueue dq;
    std::vector<std::uint64_t> seq(kOrigins, 0);
    const auto key = [&] {
      const auto origin = static_cast<ProcessId>(rng.below(kOrigins));
      return ParallelSimulator::canonical_key(
          rng.below(3), origin, seq[static_cast<std::size_t>(origin)]++);
    };
    std::int64_t now = 0;   // time of the last pop
    std::int64_t tail = 0;  // latest time pushed so far
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t what = rng.below(10);
      if (what < 4 && !dq.ref.empty()) {
        // Hold model: pop the next event, schedule one after it.
        now = dq.pop();
        dq.push(now + 100 * rng.range(0, 10), key());
      } else if (what < 7) {
        // An in-order run: each push ties or follows the previous one.
        for (std::uint64_t i = rng.below(24); i-- > 0;) {
          tail += 100 * rng.range(0, 1);
          dq.push(tail, key());
        }
      } else if (what < 9) {
        // A push between the last pop and the latest time pushed: most
        // sort before the run's tail.
        dq.push(now + 100 * rng.range(0, (tail - now) / 100), key());
      } else {
        for (std::uint64_t i = rng.below(16); i-- > 0 && !dq.ref.empty();) {
          now = dq.pop();
        }
      }
      tail = std::max(tail, now);
    }
    dq.drain();
    if (HasFailure()) return;
  }
}

// The run is a power-of-two ring: pops advance its head, so appends wrap
// around the end of the buffer, and a full ring doubles while its head is
// mid-buffer.  Heap events pushed in between must still pop in place.
TEST(KeyedEventQueue, RunWrapsAndGrowsWhileNonEmpty) {
  DifferentialQueue dq;
  std::uint64_t key = 0;
  std::int64_t t = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40 + 30 * round; ++i) dq.push(t += 10, key++);
    dq.push(t - 15, key++);  // earlier than the tail: onto the heap
    for (int i = 0; i < 30; ++i) dq.pop();
  }
  dq.drain();
}

// Pops alternate between the run and the heap: the heap holds events both
// before the run's front and between its entries while the run empties.
TEST(KeyedEventQueue, RunDrainsBesideHeapEventsOnBothSides) {
  DifferentialQueue dq;
  for (std::uint64_t k = 0; k < 50; ++k) {
    dq.push(100 * static_cast<std::int64_t>(k + 1), k);
  }
  // Each earlier than the tail (t = 5000): before the front, between
  // entries, and tied on `when` with a run entry but keyed after it.
  for (std::uint64_t k = 0; k < 50; ++k) {
    dq.push(100 * static_cast<std::int64_t>(k) + 50, 100 + k);
  }
  dq.push(100, 1000);
  dq.push(2500, 1001);
  dq.drain();
  EXPECT_EQ(dq.pops, 102u);
}

TEST(KeyedEventQueue, CanonicalKeyOrdersClassThenOriginThenSeq) {
  constexpr ProcessId kMaxOrigin = (1 << 21) - 1;
  constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << 41) - 1;
  // Each tuple is lexicographically larger than the one before it.
  const std::vector<std::tuple<std::uint64_t, ProcessId, std::uint64_t>>
      ascending = {{0, 0, 0},          {0, 0, 1},
                   {0, 0, kMaxSeq},    {0, 1, 0},
                   {0, kMaxOrigin, kMaxSeq},
                   {1, 0, 0},          {1, 5, 3},
                   {2, 0, 0},          {2, kMaxOrigin, kMaxSeq}};
  for (std::size_t i = 1; i < ascending.size(); ++i) {
    const auto [c0, o0, s0] = ascending[i - 1];
    const auto [c1, o1, s1] = ascending[i];
    EXPECT_LT(ParallelSimulator::canonical_key(c0, o0, s0),
              ParallelSimulator::canonical_key(c1, o1, s1))
        << "tuple " << i;
  }
  EXPECT_THROW((void)ParallelSimulator::canonical_key(0, kMaxOrigin + 1, 0),
               std::logic_error);
  EXPECT_THROW((void)ParallelSimulator::canonical_key(0, -1, 0),
               std::logic_error);
  EXPECT_THROW((void)ParallelSimulator::canonical_key(0, 0, kMaxSeq + 1),
               std::logic_error);
  EXPECT_THROW((void)ParallelSimulator::canonical_key(3, 0, 0),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Recorder: per-process slots.

constexpr std::size_t kProcs = 8;
constexpr std::size_t kVars = 4;
constexpr int kOpsPerProcess = 5000;

/// Process p's k-th operation, a pure function of (p, k).
void record_op(mcs::HistoryRecorder& rec, ProcessId p, int k) {
  const auto x = static_cast<VarId>((p + k) % static_cast<int>(kVars));
  const TimePoint at{k};
  if (k % 3 == 0) {
    rec.record_write(p, x, static_cast<Value>(1000 * p + k),
                     WriteId{p, static_cast<std::int64_t>(k / 3 + 1)}, at,
                     at);
  } else {
    rec.record_read(p, x, kBottom, kInitialWrite, at, at + Duration{1});
  }
}

enum class Mode { kDiscard, kCanonical };

std::unique_ptr<mcs::HistoryRecorder> make_recorder(Mode mode) {
  auto rec = std::make_unique<mcs::HistoryRecorder>(kProcs, kVars);
  if (mode == Mode::kCanonical) rec->use_canonical_order();
  if (mode == Mode::kDiscard) rec->use_discard_mode();
  return rec;
}

void expect_same_ops(const hist::History& a, const hist::History& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const hist::Operation& x = a.ops()[i];
    const hist::Operation& y = b.ops()[i];
    EXPECT_TRUE(x.kind == y.kind && x.proc == y.proc && x.var == y.var &&
                x.value == y.value && x.proc_seq == y.proc_seq &&
                x.write_id == y.write_id && x.invoked == y.invoked &&
                x.responded == y.responded)
        << "op " << i << ": " << x.to_string() << " vs " << y.to_string();
  }
}

TEST(ParallelRecorder, OneThreadPerProcessMatchesOneThread) {
  for (Mode mode : {Mode::kDiscard, Mode::kCanonical}) {
    SCOPED_TRACE(mode == Mode::kDiscard ? "discard" : "canonical");
    // Reference: one thread, processes interleaved round-robin.
    auto single = make_recorder(mode);
    for (int k = 0; k < kOpsPerProcess; ++k) {
      for (std::size_t p = 0; p < kProcs; ++p) {
        record_op(*single, static_cast<ProcessId>(p), k);
      }
    }
    // One thread per process, all recording at once.
    auto threaded = make_recorder(mode);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProcs; ++p) {
      threads.emplace_back([&rec = *threaded, p] {
        for (int k = 0; k < kOpsPerProcess; ++k) {
          record_op(rec, static_cast<ProcessId>(p), k);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    constexpr std::size_t kTotal = kProcs * kOpsPerProcess;
    EXPECT_EQ(threaded->size(), kTotal);
    EXPECT_EQ(single->size(), kTotal);
    EXPECT_EQ(threaded->discarded_ops(),
              mode == Mode::kDiscard ? kTotal : 0u);
    EXPECT_EQ(threaded->discarded_ops(), single->discarded_ops());
    const hist::History a = single->take_history();
    const hist::History b = threaded->take_history();
    EXPECT_EQ(b.size(), mode == Mode::kCanonical ? kTotal : 0u);
    expect_same_ops(a, b);
  }
}

// ---------------------------------------------------------------------------
// Barrier: a handler's exception crosses the window barrier intact.

struct ShardFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Counts its timers and re-arms every 250 us, so every shard has events
/// in every window.
class Ticker final : public Endpoint {
 public:
  explicit Ticker(ParallelSimulator& sim) : sim_(sim) {}
  void on_message(const Message&) override {}
  void on_timer(TimerTag) override {
    if (++ticks_ < 200) sim_.set_timer(id_, Duration{250}, 0);
  }
  ProcessId id_ = kNoProcess;

 private:
  ParallelSimulator& sim_;
  int ticks_ = 0;
};

/// Threads of this process, where the OS tells (Linux); -1 elsewhere.
int live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(std::distance(it, {}));
}

/// Runs 8 tickers on 4 shards (round-robin: process p on shard p % 4) and
/// throws from process `thrower` 5.4 ms in, in the middle of a 1 ms
/// window.  Returns the message of the exception run() rethrew.
std::string run_and_throw_from(ProcessId thrower) {
  // A sanitizer runtime starts a thread of its own along with the first
  // user thread; start it before taking the baseline.
  std::thread([] {}).join();
  const int threads_before = live_threads();
  std::string caught;
  {
    ParallelSimOptions options;
    options.num_threads = 4;
    ParallelSimulator sim(std::move(options));
    std::vector<std::unique_ptr<Ticker>> tickers;
    for (int p = 0; p < 8; ++p) {
      tickers.push_back(std::make_unique<Ticker>(sim));
      tickers.back()->id_ = sim.add_endpoint(tickers.back().get());
    }
    sim.freeze();
    EXPECT_EQ(sim.shard_of(thrower), thrower % 4);
    for (auto& t : tickers) sim.set_timer(t->id_, Duration{250}, 0);
    sim.schedule_at(TimePoint{5400}, thrower, [thrower] {
      throw ShardFailure("handler of process " + std::to_string(thrower) +
                         " failed");
    });
    try {
      sim.run();
    } catch (const ShardFailure& e) {
      caught = e.what();
    }
    // Every helper has been joined before run() let the exception go.
    if (threads_before > 0) {
      EXPECT_EQ(live_threads(), threads_before);
    }
  }  // destroying the simulator must not hang or terminate
  return caught;
}

TEST(ParallelBarrier, HelperShardExceptionReachesTheCaller) {
  EXPECT_EQ(run_and_throw_from(2), "handler of process 2 failed");
}

TEST(ParallelBarrier, CoordinatorShardExceptionReachesTheCaller) {
  EXPECT_EQ(run_and_throw_from(4), "handler of process 4 failed");
}

TEST(ParallelBarrier, OneThreadSpawnsNoHelper) {
  const int threads_before = live_threads();
  if (threads_before < 0) GTEST_SKIP() << "no /proc/self/task";
  ParallelSimOptions options;
  options.num_threads = 1;
  ParallelSimulator sim(std::move(options));
  Ticker ticker(sim);
  ticker.id_ = sim.add_endpoint(&ticker);
  sim.freeze();
  int peak = 0;
  sim.schedule_at(TimePoint{1000}, ticker.id_,
                  [&peak] { peak = live_threads(); });
  sim.set_timer(ticker.id_, Duration{250}, 0);
  sim.run();
  EXPECT_EQ(peak, threads_before);
  EXPECT_EQ(sim.events_fired(), 201u);
}

// ---------------------------------------------------------------------------
// Ledger: the shards write the one NetworkStats directly, so a second
// run() adds only its own traffic, exactly like the sequential root.

struct Sink final : Endpoint {
  void on_message(const Message&) override {}
};

/// Registers `a` and `b` on `root`, sends one message 0 -> 1 mentioning
/// variable 0 in each of two runs, then returns the ledger's per-process
/// counters.
template <class Root>
std::vector<ProcessTraffic> two_runs_of_one_message(Root& root, Sink& a,
                                                    Sink& b) {
  root.add_endpoint(&a);
  root.add_endpoint(&b);
  root.stats().set_var_hint(1);
  for (int run = 0; run < 2; ++run) {
    root.schedule_at(root.now() + Duration{1000}, 0, [&root] {
      root.send(0, 1, make_body<MessageBody>(), MessageMeta{"ONE", 4, 2, {0}});
    });
    root.run();
  }
  EXPECT_EQ(root.stats().exposure(1, 0), 2u);
  return root.stats().per_process_snapshot();
}

bool same_traffic(const ProcessTraffic& x, const ProcessTraffic& y) {
  return x.msgs_sent == y.msgs_sent && x.msgs_received == y.msgs_received &&
         x.control_bytes_sent == y.control_bytes_sent &&
         x.payload_bytes_sent == y.payload_bytes_sent &&
         x.control_bytes_received == y.control_bytes_received &&
         x.payload_bytes_received == y.payload_bytes_received;
}

TEST(ParallelLedger, SecondRunDoesNotRecountTheFirst) {
  Sink a, b;  // outlive every root below
  Simulator seq;
  const std::vector<ProcessTraffic> want = two_runs_of_one_message(seq, a, b);
  ASSERT_EQ(seq.stats().total().msgs_sent, 2u);
  ASSERT_EQ(seq.stats().total().msgs_received, 2u);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ParallelSimOptions options;
    options.num_threads = threads;
    ParallelSimulator par(std::move(options));
    const std::vector<ProcessTraffic> got =
        two_runs_of_one_message(par, a, b);
    EXPECT_EQ(par.stats().total().msgs_sent, 2u);
    EXPECT_EQ(par.stats().total().msgs_received, 2u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      EXPECT_TRUE(same_traffic(got[p], want[p])) << "process " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Window: a duplicate's latency sample is held to the quantum too.

/// Promises 1 ms but alternates 1 ms and 0.5 ms samples.  With every
/// message duplicated, the odd samples are exactly the duplicates' draws
/// (taken from the fault stream after the latency-stream draw).
class ShortDuplicateLatency final : public LatencyModel {
 public:
  Duration sample(ProcessId, ProcessId, Rng&) override {
    return (calls_++ % 2 == 0) ? millis(1) : micros(500);
  }
  [[nodiscard]] Duration lower_bound() const override { return millis(1); }
  [[nodiscard]] std::unique_ptr<LatencyModel> clone() const override {
    return std::make_unique<ShortDuplicateLatency>();
  }

 private:
  std::uint64_t calls_ = 0;
};

/// One message 0 -> 1 on a one-thread parallel root with the fake model.
void send_one(double duplicate_probability) {
  ParallelSimOptions options;
  options.num_threads = 1;
  options.channel.duplicate_probability = duplicate_probability;
  options.latency = std::make_unique<ShortDuplicateLatency>();
  ParallelSimulator sim(std::move(options));
  Sink a, b;
  sim.add_endpoint(&a);
  sim.add_endpoint(&b);
  sim.schedule_at(TimePoint{1000}, 0, [&sim] {
    sim.send(0, 1, make_body<MessageBody>(), MessageMeta{"ONE", 4, 2, {}});
  });
  sim.run();
}

TEST(ParallelWindow, DuplicateSampleBelowTheQuantumThrows) {
  EXPECT_NO_THROW(send_one(/*duplicate_probability=*/0.0));
  EXPECT_THROW(send_one(/*duplicate_probability=*/1.0), std::logic_error);
}

}  // namespace
}  // namespace pardsm
