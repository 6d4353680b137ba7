// Transport-stack conformance: every HostTransport stack — the raw
// simulator, the ARQ layer, the batching layer, and both stacking orders
// of the two decorators — must deliver the same contract to the layer
// above: per-pair FIFO, timers in time order with tags intact, and stats
// attribution per the documented byte-accounting rules (reliable.h,
// docs/BATCHING.md).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mcs/driver.h"
#include "mcs/engine.h"
#include "sharegraph/topologies.h"
#include "simnet/batching.h"
#include "simnet/reliable.h"
#include "simnet/simulator.h"
#include "simnet/socket_transport.h"
#include "simnet/wire.h"

namespace pardsm {
namespace {

// ---------------------------------------------------------------------------
// Stack factory: builds a named transport stack over one simulator.
// ---------------------------------------------------------------------------

struct Stack {
  std::unique_ptr<BatchingTransport> batch_low;
  std::unique_ptr<ReliableTransport> rel;
  std::unique_ptr<BatchingTransport> batch_high;
  HostTransport* top = nullptr;
};

constexpr Duration kWindow = millis(2);

Stack make_stack(const std::string& name, Simulator& sim) {
  Stack s;
  s.top = &sim;
  if (name == "sim") return s;
  if (name == "reliable") {
    s.rel = std::make_unique<ReliableTransport>(sim, ReliableOptions{});
    s.top = s.rel.get();
    return s;
  }
  if (name == "batching") {
    s.batch_high =
        std::make_unique<BatchingTransport>(sim, BatchingOptions{kWindow});
    s.top = s.batch_high.get();
    return s;
  }
  if (name == "batching-over-reliable") {
    s.rel = std::make_unique<ReliableTransport>(sim, ReliableOptions{});
    s.batch_high = std::make_unique<BatchingTransport>(
        *s.rel, BatchingOptions{kWindow});
    s.top = s.batch_high.get();
    return s;
  }
  if (name == "reliable-over-batching") {
    s.batch_low =
        std::make_unique<BatchingTransport>(sim, BatchingOptions{kWindow});
    s.rel = std::make_unique<ReliableTransport>(*s.batch_low,
                                                ReliableOptions{});
    s.top = s.rel.get();
    return s;
  }
  ADD_FAILURE() << "unknown stack " << name;
  return s;
}

const char* kStacks[] = {"sim", "reliable", "batching",
                         "batching-over-reliable", "reliable-over-batching"};

struct Payload final : MessageBody {
  ProcessId sender = kNoProcess;
  int seq = 0;

  // Wire codec so the same payload crosses the socket-rooted stacks.
  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kTestPayload;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(sender);
    w.i32(seq);
  }
};

BodyRef decode_test_payload(WireReader& r, BodyArena& arena) {
  auto* p = arena.create<Payload>();
  p->sender = r.i32();
  p->seq = r.i32();
  return BodyRef::adopt(p);
}
const wire::BodyRegistrar kPayloadReg(wire::kTestPayload, decode_test_payload);

/// Records (sender, seq, sim-time) of everything delivered.
struct Collector final : Endpoint {
  explicit Collector(const Transport* clock = nullptr) : clock_(clock) {}
  struct Got {
    ProcessId from;
    int seq;
    TimePoint at;
  };
  std::vector<Got> got;
  void on_message(const Message& m) override {
    const auto* p = m.try_as<Payload>();
    ASSERT_NE(p, nullptr);
    got.push_back({p->sender, p->seq,
                   clock_ != nullptr ? clock_->now() : TimePoint{}});
  }

 private:
  const Transport* clock_;
};

MessageMeta meta_of(VarId x, bool urgent = false) {
  MessageMeta meta;
  meta.kind = KindId("CONF");
  meta.control_bytes = 24;
  meta.payload_bytes = 8;
  meta.vars_mentioned = {x};
  meta.urgent = urgent;
  return meta;
}

void send_seq(HostTransport& top, ProcessId from, ProcessId to, int seq,
              bool urgent = false) {
  auto* body = new_body<Payload>();
  body->sender = from;
  body->seq = seq;
  top.send(from, to, BodyRef::adopt(body), meta_of(/*x=*/2, urgent));
}

// ---------------------------------------------------------------------------
// Per-pair FIFO: two senders interleave 20 messages each toward one
// receiver, every fifth urgent (exercising the urgent-flush path through
// batching stacks); each sender's sequence must arrive in order.
// ---------------------------------------------------------------------------

TEST(TransportConformance, PerPairFifo) {
  for (const char* stack_name : kStacks) {
    SCOPED_TRACE(stack_name);
    Simulator sim;
    Stack stack = make_stack(stack_name, sim);
    Collector a, b, c;
    const ProcessId pa = stack.top->add_endpoint(&a);
    const ProcessId pb = stack.top->add_endpoint(&b);
    const ProcessId pc = stack.top->add_endpoint(&c);

    for (int i = 0; i < 20; ++i) {
      // Spread sends over time so batching windows both split and merge.
      sim.schedule_at(kTimeZero + micros(700 * i), [&, i] {
        send_seq(*stack.top, pa, pc, i, /*urgent=*/i % 5 == 4);
        send_seq(*stack.top, pb, pc, 100 + i);
      });
    }
    sim.run();

    ASSERT_EQ(c.got.size(), 40u);
    int next_a = 0;
    int next_b = 100;
    for (const auto& g : c.got) {
      if (g.from == pa) {
        EXPECT_EQ(g.seq, next_a++);
      } else {
        EXPECT_EQ(g.from, pb);
        EXPECT_EQ(g.seq, next_b++);
      }
    }
    EXPECT_EQ(next_a, 20);
    EXPECT_EQ(next_b, 120);
    EXPECT_TRUE(a.got.empty());
    EXPECT_TRUE(b.got.empty());
  }
}

// ---------------------------------------------------------------------------
// Timer ordering: application timers fire in time order with their tags
// intact, through every shim layer (the decorators reserve bits 62/63 for
// their own timers and must pass everything else down unchanged).
// ---------------------------------------------------------------------------

TEST(TransportConformance, TimerOrderingAndTagPassThrough) {
  struct Timed final : Endpoint {
    const Transport* clock = nullptr;
    std::vector<std::pair<TimerTag, TimePoint>> fired;
    void on_message(const Message&) override {}
    void on_timer(TimerTag t) override {
      fired.emplace_back(t, clock->now());
    }
  };
  for (const char* stack_name : kStacks) {
    SCOPED_TRACE(stack_name);
    Simulator sim;
    Stack stack = make_stack(stack_name, sim);
    Timed t;
    t.clock = stack.top;
    const ProcessId p = stack.top->add_endpoint(&t);

    sim.schedule_at(kTimeZero, [&] {
      stack.top->set_timer(p, millis(3), 30);
      stack.top->set_timer(p, millis(1), 10);
      stack.top->set_timer(p, millis(2), 20);
    });
    sim.run();

    ASSERT_EQ(t.fired.size(), 3u);
    EXPECT_EQ(t.fired[0].first, 10u);
    EXPECT_EQ(t.fired[1].first, 20u);
    EXPECT_EQ(t.fired[2].first, 30u);
    EXPECT_EQ(t.fired[0].second, kTimeZero + millis(1));
    EXPECT_EQ(t.fired[1].second, kTimeZero + millis(2));
    EXPECT_EQ(t.fired[2].second, kTimeZero + millis(3));
  }
}

// ---------------------------------------------------------------------------
// Stats attribution.  Lossless channel, k identical messages:
//   * the application receives exactly k messages with original metadata;
//   * payload bytes are conserved exactly on every stack (neither ARQ nor
//     batching touches payload accounting);
//   * exposure — received messages mentioning x — is exactly k on every
//     stack (ARQ DATA frames and batch frames both preserve
//     vars_mentioned multiplicity; acks mention nothing);
//   * control bytes follow the layer contracts: raw = sum; batching adds
//     at most kPerItemFramingBytes per member; ARQ adds 16 per DATA frame
//     plus 8 per ack.
// ---------------------------------------------------------------------------

TEST(TransportConformance, StatsAttribution) {
  constexpr int k = 10;
  for (const char* stack_name : kStacks) {
    SCOPED_TRACE(stack_name);
    Simulator sim;
    Stack stack = make_stack(stack_name, sim);
    Collector a, b;
    const ProcessId pa = stack.top->add_endpoint(&a);
    const ProcessId pb = stack.top->add_endpoint(&b);

    sim.schedule_at(kTimeZero, [&] {
      for (int i = 0; i < k; ++i) send_seq(*stack.top, pa, pb, i);
    });
    sim.run();

    ASSERT_EQ(b.got.size(), static_cast<std::size_t>(k));
    const ProcessTraffic total = sim.stats().total();
    // Payload conserved exactly.
    EXPECT_EQ(total.payload_bytes_sent, 8u * k);
    EXPECT_EQ(total.payload_bytes_received, 8u * k);
    // Exposure multiplicity conserved exactly.
    EXPECT_EQ(sim.stats().exposure(pb, 2), static_cast<std::uint64_t>(k));
    EXPECT_EQ(sim.stats().exposure(pa, 2), 0u);
    // Control bytes: at least the application's, at most the per-layer
    // overhead cap (ARQ: +16/frame and +8/ack; batching: +4 per framed
    // member — with ARQ above batching, both DATA and ACK frames coalesce
    // and each pays the member framing).
    const std::uint64_t app_control = 24u * k;
    EXPECT_GE(total.control_bytes_sent, app_control);
    EXPECT_LE(total.control_bytes_sent,
              app_control + (16u + 8u + 2 * kPerItemFramingBytes) * k);
    // Batching coalesces: fewer wire messages than app messages (the k
    // sends land in fewer frames), and all stacks conserve delivery.
    if (std::string(stack_name) == "batching") {
      EXPECT_LT(total.msgs_sent, static_cast<std::uint64_t>(k));
      const BatchingStats bs = stack.batch_high->stats();
      EXPECT_GT(bs.frames_sent, 0u);
      EXPECT_EQ(bs.messages_batched + bs.singleton_flushes,
                static_cast<std::uint64_t>(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Urgent flush: with a batching window open, an urgent message leaves
// immediately — and a non-urgent message to a *different* destination
// keeps waiting for the window.
// ---------------------------------------------------------------------------

TEST(TransportConformance, UrgentBypassesWindow) {
  for (const char* stack_name :
       {"batching", "batching-over-reliable", "reliable-over-batching"}) {
    SCOPED_TRACE(stack_name);
    Simulator sim;  // constant 1ms latency
    Stack stack = make_stack(stack_name, sim);
    Collector a(stack.top), b(stack.top), c(stack.top);
    const ProcessId pa = stack.top->add_endpoint(&a);
    const ProcessId pb = stack.top->add_endpoint(&b);
    const ProcessId pc = stack.top->add_endpoint(&c);

    sim.schedule_at(kTimeZero, [&] {
      send_seq(*stack.top, pa, pb, 1, /*urgent=*/false);
      send_seq(*stack.top, pa, pc, 2, /*urgent=*/true);
    });
    sim.run();

    ASSERT_EQ(b.got.size(), 1u);
    ASSERT_EQ(c.got.size(), 1u);
    // Urgent: one network hop only.
    EXPECT_EQ(c.got[0].at, kTimeZero + millis(1));
    // Non-urgent: held for the window, then one hop.
    EXPECT_EQ(b.got[0].at, kTimeZero + kWindow + millis(1));
  }
}

// On a channel that can neither drop nor duplicate, the default
// ReliabilityMode::kAuto adds no ARQ layer: the run is exactly the raw
// kNever run.  Callers therefore only name kNever when their channel is
// lossy.
TEST(TransportConformance, LosslessAutoReliabilityEqualsNever) {
  const auto dist = graph::topo::ring(6);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.seed = 42;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  const auto automatic =
      mcs::run({.protocol = mcs::ProtocolKind::kCausalPartialAdHoc,
                .distribution = &dist,
                .scripts = &scripts});
  const auto never =
      mcs::run({.protocol = mcs::ProtocolKind::kCausalPartialAdHoc,
                .distribution = &dist,
                .scripts = &scripts,
                .reliability = mcs::ReliabilityMode::kNever});

  EXPECT_FALSE(automatic.used_reliable_transport);
  EXPECT_EQ(automatic.total_traffic.msgs_sent, never.total_traffic.msgs_sent);
  EXPECT_EQ(automatic.total_traffic.wire_bytes_sent(),
            never.total_traffic.wire_bytes_sent());
  EXPECT_EQ(automatic.events, never.events);
  EXPECT_EQ(automatic.finished_at.us, never.finished_at.us);
  EXPECT_EQ(automatic.history.to_string(), never.history.to_string());
  EXPECT_EQ(automatic.final_replicas, never.final_replicas);
}

// ---------------------------------------------------------------------------
// Socket-rooted stacks: the same decorator contract over real loopback
// TCP.  Wall-clock timing is non-deterministic, so these assert ordering
// and accounting, never exact times.  Sends are posted onto the owner's
// mailbox thread — decorator shims are owner-thread-only, exactly like
// protocol code above them.
// ---------------------------------------------------------------------------

struct SocketStack {
  std::unique_ptr<SocketTransport> root;
  std::unique_ptr<BatchingTransport> batch_low;
  std::unique_ptr<ReliableTransport> rel;
  std::unique_ptr<BatchingTransport> batch_high;
  HostTransport* top = nullptr;
};

SocketStack make_socket_stack(const std::string& name, std::size_t n) {
  SocketStack s;
  SocketOptions o;
  o.total_processes = n;
  s.root = std::make_unique<SocketTransport>(std::move(o));
  // send_seq's messages mention x2; the socket root rejects frames that
  // mention a variable outside the declared count.
  s.root->stats().set_var_hint(3);
  s.top = s.root.get();
  if (name == "socket") return s;
  if (name == "socket-reliable") {
    s.rel = std::make_unique<ReliableTransport>(*s.root, ReliableOptions{});
    s.top = s.rel.get();
    return s;
  }
  if (name == "socket-batching") {
    s.batch_high =
        std::make_unique<BatchingTransport>(*s.root, BatchingOptions{kWindow});
    s.top = s.batch_high.get();
    return s;
  }
  if (name == "socket-batching-over-reliable") {
    s.rel = std::make_unique<ReliableTransport>(*s.root, ReliableOptions{});
    s.batch_high =
        std::make_unique<BatchingTransport>(*s.rel, BatchingOptions{kWindow});
    s.top = s.batch_high.get();
    return s;
  }
  if (name == "socket-reliable-over-batching") {
    s.batch_low =
        std::make_unique<BatchingTransport>(*s.root, BatchingOptions{kWindow});
    s.rel =
        std::make_unique<ReliableTransport>(*s.batch_low, ReliableOptions{});
    s.top = s.rel.get();
    return s;
  }
  ADD_FAILURE() << "unknown socket stack " << name;
  return s;
}

const char* kSocketStacks[] = {"socket", "socket-reliable", "socket-batching",
                               "socket-batching-over-reliable",
                               "socket-reliable-over-batching"};

constexpr std::chrono::milliseconds kSocketQuiesce{20000};

TEST(TransportConformance, SocketStacksPerPairFifo) {
  for (const char* stack_name : kSocketStacks) {
    SCOPED_TRACE(stack_name);
    SocketStack stack = make_socket_stack(stack_name, 3);
    Collector a, b, c;
    const ProcessId pa = stack.top->add_endpoint(&a);
    const ProcessId pb = stack.top->add_endpoint(&b);
    const ProcessId pc = stack.top->add_endpoint(&c);
    stack.root->start();

    stack.root->post(pa, [&] {
      for (int i = 0; i < 20; ++i) {
        send_seq(*stack.top, pa, pc, i, /*urgent=*/i % 5 == 4);
      }
    });
    stack.root->post(pb, [&] {
      for (int i = 0; i < 20; ++i) send_seq(*stack.top, pb, pc, 100 + i);
    });
    ASSERT_TRUE(stack.root->await_quiescence(kSocketQuiesce));

    ASSERT_EQ(c.got.size(), 40u);
    int next_a = 0;
    int next_b = 100;
    for (const auto& g : c.got) {
      if (g.from == pa) {
        EXPECT_EQ(g.seq, next_a++);
      } else {
        EXPECT_EQ(g.from, pb);
        EXPECT_EQ(g.seq, next_b++);
      }
    }
    EXPECT_EQ(next_a, 20);
    EXPECT_EQ(next_b, 120);
    EXPECT_TRUE(a.got.empty());
    EXPECT_TRUE(b.got.empty());
    stack.root->stop();
  }
}

TEST(TransportConformance, SocketStacksStatsAttribution) {
  constexpr int k = 10;
  for (const char* stack_name : kSocketStacks) {
    SCOPED_TRACE(stack_name);
    SocketStack stack = make_socket_stack(stack_name, 2);
    Collector a, b;
    const ProcessId pa = stack.top->add_endpoint(&a);
    const ProcessId pb = stack.top->add_endpoint(&b);
    stack.root->start();

    stack.root->post(pa, [&] {
      for (int i = 0; i < k; ++i) send_seq(*stack.top, pa, pb, i);
    });
    ASSERT_TRUE(stack.root->await_quiescence(kSocketQuiesce));

    ASSERT_EQ(b.got.size(), static_cast<std::size_t>(k));
    const ProcessTraffic total = stack.root->stats().total();
    // Payload conserved exactly — same contract as the simulator stacks.
    EXPECT_EQ(total.payload_bytes_sent, 8u * k);
    EXPECT_EQ(total.payload_bytes_received, 8u * k);
    EXPECT_EQ(stack.root->stats().exposure(pb, 2),
              static_cast<std::uint64_t>(k));
    EXPECT_EQ(stack.root->stats().exposure(pa, 2), 0u);
    const std::uint64_t app_control = 24u * k;
    EXPECT_GE(total.control_bytes_sent, app_control);
    EXPECT_LE(total.control_bytes_sent,
              app_control + (16u + 8u + 2 * kPerItemFramingBytes) * k);
    // The wire ledger saw real frames (exact counts depend on batching
    // windows and ack timing — wall clock, so only inequalities hold).
    const SocketCounters sc = stack.root->counters();
    EXPECT_GT(sc.frames_sent, 0u);
    EXPECT_EQ(sc.frames_sent, sc.frames_received);
    EXPECT_GT(sc.bytes_sent, 0u);
    stack.root->stop();
  }
}

TEST(TransportConformance, SocketStacksTimerOrderingAndTagPassThrough) {
  struct Timed final : Endpoint {
    std::vector<TimerTag> fired;
    void on_message(const Message&) override {}
    void on_timer(TimerTag t) override { fired.push_back(t); }
  };
  for (const char* stack_name : kSocketStacks) {
    SCOPED_TRACE(stack_name);
    SocketStack stack = make_socket_stack(stack_name, 1);
    Timed t;
    const ProcessId p = stack.top->add_endpoint(&t);
    stack.root->start();

    // Generous spacing: the assertion is the firing order and the intact
    // tags, not the exact wall-clock instants.
    stack.root->post(p, [&] {
      stack.top->set_timer(p, millis(150), 30);
      stack.top->set_timer(p, millis(50), 10);
      stack.top->set_timer(p, millis(100), 20);
    });
    ASSERT_TRUE(stack.root->await_quiescence(kSocketQuiesce));

    ASSERT_EQ(t.fired.size(), 3u);
    EXPECT_EQ(t.fired[0], 10u);
    EXPECT_EQ(t.fired[1], 20u);
    EXPECT_EQ(t.fired[2], 30u);
    stack.root->stop();
  }
}

}  // namespace
}  // namespace pardsm
