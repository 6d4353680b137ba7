// The std::thread runtime: protocols under genuine preemptive parallelism.
//
// Executions are nondeterministic; the assertions are the same consistency
// properties as the simulator suite — they must hold for *every*
// interleaving the OS produces.

#include <gtest/gtest.h>

#include <atomic>

#include "history/checkers.h"
#include "history/linearizability.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/thread_runtime.h"

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
      got.push_back(m.as<Body>()->n);
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
