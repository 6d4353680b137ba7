// The std::thread runtime: protocols under genuine preemptive parallelism.
//
// Executions are nondeterministic; the assertions are the same consistency
// properties as the simulator suite — they must hold for *every*
// interleaving the OS produces.  The MailboxExecutor suite pins the worker
// loop both wall-clock roots share, once per root.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "history/checkers.h"
#include "history/linearizability.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/socket_transport.h"
#include "simnet/thread_runtime.h"
#include "simnet/wire.h"

namespace pardsm::mcs {
namespace {

using hist::Criterion;

TEST(ThreadRuntime, DeliversPairwiseFifo) {
  // A bare-transport check: 200 messages from p0 to p1 arrive in order.
  struct Body final : MessageBody {
    int n = 0;
  };
  struct Receiver final : Endpoint {
    std::vector<int> got;
    void on_message(const Message& m) override {
      got.push_back(m.try_as<Body>()->n);
    }
  };
  struct Sender final : Endpoint {
    void on_message(const Message&) override {}
  };

  ThreadRuntime rt;
  Sender sender;
  Receiver receiver;
  const ProcessId s = rt.add_endpoint(&sender);
  const ProcessId r = rt.add_endpoint(&receiver);
  rt.start();
  rt.post(s, [&] {
    for (int i = 0; i < 200; ++i) {
      auto* body = new_body<Body>();
      body->n = i;
      rt.send(s, r, BodyRef::adopt(body), MessageMeta{"SEQ", 4, 0, {}});
    }
  });
  ASSERT_TRUE(rt.await_quiescence(std::chrono::milliseconds(5000)));
  rt.stop();
  ASSERT_EQ(receiver.got.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(receiver.got[i], i);
}

TEST(ThreadRuntime, TimersFire) {
  struct Waiter final : Endpoint {
    std::atomic<int> fired{0};
    void on_message(const Message&) override {}
    void on_timer(TimerTag) override { fired.fetch_add(1); }
  };
  ThreadRuntime rt;
  Waiter w;
  const ProcessId p = rt.add_endpoint(&w);
  rt.start();
  rt.set_timer(p, millis(1), 1);
  rt.set_timer(p, millis(2), 2);
  ASSERT_TRUE(rt.await_quiescence(std::chrono::milliseconds(5000)));
  rt.stop();
  EXPECT_EQ(w.fired.load(), 2);
}

// ---------------------------------------------------------------------------
// The shared mailbox executor, driven through each wall-clock root: the
// in-memory ThreadRuntime and an all-local SocketTransport.
// ---------------------------------------------------------------------------

/// Runs `test(root)` on a fresh one-process root of the parameter's kind.
class MailboxExecutor : public ::testing::TestWithParam<const char*> {
 protected:
  template <class Test>
  void on_root(Test test) {
    if (std::string(GetParam()) == "threads") {
      ThreadRuntime root;
      test(root);
    } else {
      SocketOptions o;
      o.total_processes = 1;
      SocketTransport root(std::move(o));
      test(root);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(WallClockRoots, MailboxExecutor,
                         ::testing::Values("threads", "sockets"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

using Clock = std::chrono::steady_clock;

struct TimerLog final : Endpoint {
  std::atomic<int> fired{0};
  std::atomic<Clock::rep> fired_at{0};
  void on_message(const Message&) override {}
  void on_timer(TimerTag) override {
    fired_at.store(Clock::now().time_since_epoch().count());
    fired.fetch_add(1);
  }
};

// A worker with no timer parks in the untimed wait.  A timer armed from
// another thread after that must turn the next wait into a deadline wait;
// re-checking "is a timer due?" only on notifications would sleep forever.
TEST_P(MailboxExecutor, TimerArmedAfterUntimedParkFires) {
  on_root([](auto& root) {
    TimerLog ep;
    const ProcessId p = root.add_endpoint(&ep);
    root.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // park
    std::thread foreign([&] { root.set_timer(p, millis(30), 7); });
    foreign.join();
    EXPECT_TRUE(root.await_quiescence(std::chrono::milliseconds(5000)));
    root.stop();
    EXPECT_EQ(ep.fired.load(), 1);
  });
}

// A pending timer is pending work: quiescence waits for it to fire.
TEST_P(MailboxExecutor, QuiescenceWaitsForAPendingTimer) {
  on_root([](auto& root) {
    TimerLog ep;
    const ProcessId p = root.add_endpoint(&ep);
    root.start();
    const auto armed = Clock::now();
    root.set_timer(p, millis(50), 1);
    EXPECT_FALSE(root.await_quiescence(std::chrono::milliseconds(10)));
    EXPECT_EQ(ep.fired.load(), 0);
    EXPECT_TRUE(root.await_quiescence(std::chrono::milliseconds(5000)));
    root.stop();
    ASSERT_EQ(ep.fired.load(), 1);
    EXPECT_GE(Clock::time_point(Clock::duration(ep.fired_at.load())) - armed,
              std::chrono::milliseconds(50));
  });
}

// A task posted from inside a handler is queued behind it: it runs after
// the handler returns, on the same worker thread.
TEST_P(MailboxExecutor, TaskPostedFromAHandlerRunsAfterItOnItsThread) {
  struct Ping final : MessageBody {};
  struct Poster final : Endpoint {
    RootTransport* root = nullptr;
    ProcessId self = kNoProcess;
    std::vector<std::string> log;  // written by the worker thread only
    std::thread::id handler_thread;
    std::thread::id task_thread;
    void on_message(const Message&) override {
      handler_thread = std::this_thread::get_id();
      root->schedule_at(kTimeZero, self, [this] {
        task_thread = std::this_thread::get_id();
        log.push_back("task");
      });
      // Give a wrongly concurrent worker time to run the task first.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      log.push_back("handler");
    }
  };
  on_root([](auto& root) {
    Poster ep;
    ep.root = &root;
    ep.self = root.add_endpoint(&ep);
    root.start();
    root.post(ep.self, [&] {
      root.send(ep.self, ep.self, BodyRef::adopt(new_body<Ping>()),
                MessageMeta{"PING", 0, 0, {}});
    });
    ASSERT_TRUE(root.await_quiescence(std::chrono::milliseconds(5000)));
    root.stop();
    EXPECT_EQ(ep.log, (std::vector<std::string>{"handler", "task"}));
    EXPECT_EQ(ep.task_thread, ep.handler_thread);
    EXPECT_NE(ep.handler_thread, std::this_thread::get_id());
  });
}

/// Runs `fn` and returns the what() of the std::exception it throws
/// ("" if it returns normally).
template <class Fn>
std::string thrown_message(Fn fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// A throwing handler does not end the process.  await_quiescence wakes and
// rethrows the first exception, once; the worker keeps serving; and stop()
// rethrows one nobody awaited.
TEST_P(MailboxExecutor, HandlerExceptionSurfacesFromAwaitAndStop) {
  struct Faulty final : Endpoint {
    std::atomic<int> timers{0};
    void on_message(const Message&) override {
      throw std::runtime_error("bad message");
    }
    void on_timer(TimerTag) override {
      timers.fetch_add(1);
      throw std::runtime_error("bad timer");
    }
  };
  struct Ping final : MessageBody {};
  on_root([](auto& root) {
    Faulty ep;
    const ProcessId p = root.add_endpoint(&ep);
    root.start();
    const auto wait = std::chrono::milliseconds(5000);

    root.post(p, [] { throw std::logic_error("bad task"); });
    EXPECT_EQ(thrown_message([&] { (void)root.await_quiescence(wait); }),
              "bad task");

    root.post(p, [&] {
      root.send(p, p, BodyRef::adopt(new_body<Ping>()),
                MessageMeta{"PING", 0, 0, {}});
    });
    EXPECT_EQ(thrown_message([&] { (void)root.await_quiescence(wait); }),
              "bad message");

    // Collected once: the worker is still serving and the ledger is whole.
    std::atomic<bool> ran{false};
    root.post(p, [&] { ran.store(true); });
    EXPECT_TRUE(root.await_quiescence(wait));
    EXPECT_TRUE(ran.load());

    root.set_timer(p, millis(1), 1);
    while (ep.timers.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(thrown_message([&] { root.stop(); }), "bad timer");
    EXPECT_EQ(thrown_message([&] { root.stop(); }), "");
  });
}

// An exception nobody collects is dropped by the root's destructor, which
// must not throw.
TEST_P(MailboxExecutor, UncollectedHandlerExceptionIsDroppedAtDestruction) {
  struct Idle final : Endpoint {
    void on_message(const Message&) override {}
  };
  on_root([](auto& root) {
    Idle ep;
    const ProcessId p = root.add_endpoint(&ep);
    root.start();
    std::atomic<bool> thrown{false};
    root.post(p, [&] {
      thrown.store(true);
      throw std::logic_error("never collected");
    });
    while (!thrown.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

// Only a process's own worker may send on its behalf (the worker owns the
// process's ledger slot).  A send from the test thread is rejected before
// it touches anything; the same send posted to the worker goes through.
TEST_P(MailboxExecutor, SendOffTheSendersWorkerIsRejected) {
  struct Ping final : MessageBody {};
  struct Counter final : Endpoint {
    std::atomic<int> got{0};
    void on_message(const Message&) override { got.fetch_add(1); }
  };
  on_root([](auto& root) {
    Counter ep;
    const ProcessId p = root.add_endpoint(&ep);
    root.start();
    const auto send = [&root, p] {
      root.send(p, p, BodyRef::adopt(new_body<Ping>()),
                MessageMeta{"PING", 0, 0, {}});
    };
    EXPECT_NE(thrown_message(send).find("sender's mailbox worker"),
              std::string::npos);
    root.post(p, send);
    EXPECT_TRUE(root.await_quiescence(std::chrono::milliseconds(5000)));
    root.stop();
    EXPECT_EQ(ep.got.load(), 1);
    EXPECT_EQ(root.stats().traffic(p).msgs_sent, 1u);
    EXPECT_EQ(root.stats().traffic(p).msgs_received, 1u);
  });
}

class ThreadedProtocol : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ThreadedProtocol, ConsistencyHoldsUnderRealThreads) {
  const ProtocolKind kind = GetParam();
  const auto dist = graph::topo::random_replication(4, 3, 2, 17);
  WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.read_fraction = 0.5;
  spec.seed = 23;
  const auto scripts = make_random_scripts(dist, spec);

  const auto result = run({.protocol = kind,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .runtime = EngineRuntime::kThreads});

  std::vector<Criterion> required;
  switch (guarantee_of(kind)) {
    case GuaranteeLevel::kAtomic:
    case GuaranteeLevel::kSequential:
      required = {Criterion::kSequential};
      break;
    case GuaranteeLevel::kCausal:
      required = {Criterion::kCausal};
      break;
    case GuaranteeLevel::kProcessor:
      required = {Criterion::kPram, Criterion::kCache};
      break;
    case GuaranteeLevel::kPram:
      required = {Criterion::kPram};
      break;
    case GuaranteeLevel::kCache:
      required = {Criterion::kCache};
      break;
    case GuaranteeLevel::kSlow:
      required = {Criterion::kSlow};
      break;
  }
  for (Criterion c : required) {
    const auto check = hist::check_history(result.history, c);
    EXPECT_TRUE(check.definitive);
    EXPECT_TRUE(check.consistent)
        << to_string(kind) << " violated " << to_string(c)
        << " under threads:\n"
        << result.history.to_string();
  }
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(All, ThreadedProtocol,
                         ::testing::ValuesIn(all_protocols()),
                         [](const auto& info) {
                           return sanitize(to_string(info.param));
                         });

// A protocol handler that throws mid-run fails mcs::run with its message on
// both wall-clock roots.  The other processes' workers are still running
// when it surfaces: the run must join them before the processes and
// clients they deliver into are destroyed (ASan/TSan builds catch a miss).
class WallClockRun : public ::testing::TestWithParam<EngineRuntime> {};

TEST_P(WallClockRun, HandlerExceptionFailsTheRunWithItsMessage) {
  struct FailingMulticast final : MulticastService {
    std::atomic<int> submits{0};
    void submit(Transport& transport, ProcessId from,
                SendPlan&& plan) override {
      if (submits.fetch_add(1) == 40) {
        throw std::runtime_error("multicast failed");
      }
      MulticastService::fanout().submit(transport, from, std::move(plan));
    }
  };
  const auto dist = graph::topo::random_replication(6, 6, 3, 5);
  WorkloadSpec spec;
  spec.ops_per_process = 200;
  spec.read_fraction = 0.3;
  spec.seed = 3;
  const auto scripts = make_random_scripts(dist, spec);
  FailingMulticast multicast;
  EngineConfig config;
  config.protocol = ProtocolKind::kPramPartial;
  config.distribution = &dist;
  config.scripts = &scripts;
  config.runtime = GetParam();
  config.multicast = &multicast;
  EXPECT_EQ(thrown_message([&] { (void)run(std::move(config)); }),
            "multicast failed");
}

// A probability window is resolved per message, so one that outlasts the
// traffic must not keep the run alive: the run ends at quiescence, as on
// the simulators, not when the 30 s window closes.
TEST_P(WallClockRun, LossWindowOutlastingTheTrafficDoesNotDelayTheEnd) {
  const auto dist = graph::topo::clusters(2, 3, true);
  WorkloadSpec spec;
  spec.ops_per_process = 20;
  spec.read_fraction = 0.4;
  spec.seed = 5;
  const auto scripts = make_single_writer_scripts(dist, spec);
  Scenario scenario("long-loss-window");
  scenario.set_loss(0.05, kTimeZero, after(seconds(30)));
  const auto began = std::chrono::steady_clock::now();
  const auto r = run({.protocol = ProtocolKind::kPramPartial,
                      .distribution = &dist,
                      .scripts = &scripts,
                      .scenario = &scenario,
                      .runtime = GetParam()});
  const auto took = std::chrono::steady_clock::now() - began;
  EXPECT_LT(took, std::chrono::seconds(10));
  EXPECT_TRUE(r.used_reliable_transport);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_LT(r.finished_at, after(seconds(10)));
}

/// An indexed message the sockets root can put on the wire.
struct Indexed final : MessageBody {
  std::uint32_t index = 0;
  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kTestPayload;
  }
  void wire_encode(WireWriter& w) const override { w.u32(index); }
};
const wire::BodyRegistrar kIndexedCodec(
    wire::kTestPayload, [](WireReader& r, BodyArena& arena) -> BodyRef {
      Indexed* body = arena.create<Indexed>();
      body->index = r.u32();
      return BodyRef::adopt(body);
    });

/// The indices, in arrival order, of 200 indexed messages one sender's
/// worker sends to one receiver on `root` (channel loss, no ARQ).
template <class Root>
std::vector<std::uint32_t> survivors(Root& root) {
  struct Sink final : Endpoint {
    std::vector<std::uint32_t> got;
    void on_message(const Message& m) override {
      got.push_back(m.try_as<Indexed>()->index);
    }
  };
  Sink sender;
  Sink receiver;
  const ProcessId s = root.add_endpoint(&sender);
  const ProcessId r = root.add_endpoint(&receiver);
  root.start();
  root.post(s, [&] {
    for (std::uint32_t i = 0; i < 200; ++i) {
      Indexed* body = root.arena(s).template create<Indexed>();
      body->index = i;
      root.send(s, r, BodyRef::adopt(body), MessageMeta{"IDX", 4, 0, {}});
    }
  });
  EXPECT_TRUE(root.await_quiescence(std::chrono::milliseconds(5000)));
  root.stop();
  return receiver.got;
}

std::vector<std::uint32_t> survivors(EngineRuntime runtime,
                                     std::uint64_t seed) {
  const ChannelOptions lossy{.drop_probability = 0.3};
  if (runtime == EngineRuntime::kThreads) {
    ThreadRuntime root(lossy, seed);
    return survivors(root);
  }
  SocketOptions o;
  o.total_processes = 2;
  SocketTransport root(std::move(o), lossy, seed);
  return survivors(root);
}

// Both wall-clock roots draw a message's loss from one stream, seeded by
// the run's seed and keyed on (sender, receiver, the pair's message
// index): a seed loses the same messages on either root, however the OS
// schedules them, and another seed loses others.
TEST_P(WallClockRun, ChannelLossDrawsOneStreamOnEveryRoot) {
  const std::vector<std::uint32_t> kept = survivors(GetParam(), 7);
  EXPECT_GT(kept.size(), 100u);
  EXPECT_LT(kept.size(), 200u);
  EXPECT_EQ(kept, survivors(EngineRuntime::kThreads, 7));
  EXPECT_EQ(kept, survivors(EngineRuntime::kSockets, 7));
  EXPECT_NE(kept, survivors(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(Roots, WallClockRun,
                         ::testing::Values(EngineRuntime::kThreads,
                                           EngineRuntime::kSockets),
                         [](const auto& info) {
                           return std::string(info.param ==
                                                      EngineRuntime::kThreads
                                                  ? "threads"
                                                  : "sockets");
                         });

TEST(ThreadRuntime, AtomicHomeLinearizableUnderThreads) {
  const auto dist = graph::topo::random_replication(4, 3, 2, 29);
  WorkloadSpec spec;
  spec.ops_per_process = 10;
  spec.read_fraction = 0.6;
  spec.seed = 31;
  const auto scripts = make_random_scripts(dist, spec);
  const auto result = run({.protocol = ProtocolKind::kAtomicHome,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .runtime = EngineRuntime::kThreads});
  const auto lin = hist::check_linearizable(result.history);
  EXPECT_TRUE(lin.definitive);
  EXPECT_TRUE(lin.linearizable) << result.history.to_string();
}

TEST(ThreadRuntime, PramExposureConfinedToCliqueUnderThreads) {
  const auto dist = graph::topo::chain_with_hoop(5);
  std::vector<Script> scripts(dist.process_count());
  Value v = 1;
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    for (VarId x : dist.per_process[p]) {
      scripts[p].push_back(ScriptOp::write(x, v++));
      scripts[p].push_back(ScriptOp::read(x));
    }
  }
  const auto result = run({.protocol = ProtocolKind::kPramPartial,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .runtime = EngineRuntime::kThreads});
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto clique = dist.replicas_of(static_cast<VarId>(x));
    const std::set<ProcessId> cset(clique.begin(), clique.end());
    for (ProcessId p : result.observed_relevant[x]) {
      EXPECT_TRUE(cset.count(p)) << "x" << x << " leaked to p" << p;
    }
  }
}

}  // namespace
}  // namespace pardsm::mcs
