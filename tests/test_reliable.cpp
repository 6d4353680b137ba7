// ARQ reliable-delivery layer: exactly-once FIFO over lossy channels, and
// protocol liveness restored under loss.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "history/checkers.h"
#include "mcs/driver.h"
#include "sharegraph/topologies.h"
#include "simnet/reliable.h"
#include "simnet/rng.h"
#include "simnet/wire.h"
#include "workload/generator.h"

namespace pardsm {
namespace {

struct Payload final : MessageBody {
  int n = 0;
  // Encodable, so a test layer can read the seq off an ARQ DATA frame.
  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kTestPayload;
  }
  void wire_encode(WireWriter& w) const override { w.i32(n); }
};

struct Collector final : Endpoint {
  std::vector<int> got;
  void on_message(const Message& m) override {
    got.push_back(m.try_as<Payload>()->n);
  }
};

SimOptions lossy(double drop, double dup, std::uint64_t seed) {
  SimOptions o;
  o.seed = seed;
  o.channel.drop_probability = drop;
  o.channel.duplicate_probability = dup;
  o.channel.fifo = false;  // ARQ restores order itself
  o.latency = std::make_unique<UniformLatency>(millis(1), millis(10));
  return o;
}

TEST(Reliable, ExactlyOnceInOrderUnderHeavyLoss) {
  Simulator sim(lossy(0.4, 0.2, 3));
  ReliableTransport rel(sim, {});
  Collector sender_side, receiver;
  const ProcessId s = rel.add_endpoint(&sender_side);
  const ProcessId r = rel.add_endpoint(&receiver);

  sim.schedule_at(kTimeZero, [&] {
    for (int i = 0; i < 100; ++i) {
      auto* body = new_body<Payload>();
      body->n = i;
      rel.send(s, r, BodyRef::adopt(body), MessageMeta{"SEQ", 4, 0, {}});
    }
  });
  sim.run();

  ASSERT_EQ(receiver.got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(receiver.got[i], i);
  EXPECT_GT(rel.retransmissions(), 0u);
}

TEST(Reliable, NoLossMeansNoRetransmissions) {
  Simulator sim(lossy(0.0, 0.0, 4));
  ReliableTransport rel(sim, {});
  Collector a, b;
  const ProcessId s = rel.add_endpoint(&a);
  const ProcessId r = rel.add_endpoint(&b);
  sim.schedule_at(kTimeZero, [&] {
    auto* body = new_body<Payload>();
    body->n = 7;
    rel.send(s, r, BodyRef::adopt(body), MessageMeta{"ONE", 4, 0, {}});
  });
  sim.run();
  EXPECT_EQ(b.got, (std::vector<int>{7}));
  EXPECT_EQ(rel.retransmissions(), 0u);
}

TEST(Reliable, AppTimersPassThrough) {
  struct Timed final : Endpoint {
    std::vector<TimerTag> tags;
    void on_message(const Message&) override {}
    void on_timer(TimerTag t) override { tags.push_back(t); }
  };
  Simulator sim(lossy(0.0, 0.0, 5));
  ReliableTransport rel(sim, {});
  Timed t;
  const ProcessId p = rel.add_endpoint(&t);
  rel.set_timer(p, millis(2), 42);
  sim.run();
  EXPECT_EQ(t.tags, (std::vector<TimerTag>{42}));
}

// The headline: a PRAM system over a 30%-lossy network, with the ARQ layer
// underneath, completes every script and the history is PRAM-consistent —
// loss costs retransmissions, not safety or liveness.
TEST(Reliable, PramProtocolLiveUnderLoss) {
  const auto dist = graph::topo::random_replication(4, 3, 2, 9);
  Simulator sim(lossy(0.3, 0.1, 9));
  ReliableTransport rel(sim, {});

  mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
  auto procs =
      mcs::make_processes(mcs::ProtocolKind::kPramPartial, dist, recorder);
  for (auto& proc : procs) {
    rel.add_endpoint(proc.get());
    proc->attach(rel);
  }

  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.seed = 2;
  const auto scripts = mcs::make_random_scripts(dist, spec);
  std::vector<std::unique_ptr<mcs::Client>> clients;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    clients.push_back(
        std::make_unique<mcs::Client>(*procs[p], sim, scripts[p]));
    clients.back()->start(kTimeZero);
  }
  sim.run();

  for (const auto& c : clients) EXPECT_TRUE(c->done());
  // Every update eventually arrived: replicas of each variable agree with
  // the last write in some writer-consistent way; the history checks out.
  const auto h = recorder.history();
  EXPECT_TRUE(hist::check_history(h, hist::Criterion::kPram).consistent)
      << h.to_string();
  EXPECT_GT(rel.retransmissions(), 0u);
}

// Causal protocol (vector clocks) over lossy network + ARQ: the causal
// delivery condition sees no gaps because ARQ fills them.
TEST(Reliable, CausalProtocolLiveUnderLoss) {
  const auto dist = graph::topo::star(3);
  Simulator sim(lossy(0.25, 0.0, 11));
  ReliableTransport rel(sim, {});

  mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
  auto procs = mcs::make_processes(mcs::ProtocolKind::kCausalPartialNaive,
                                   dist, recorder);
  for (auto& proc : procs) {
    rel.add_endpoint(proc.get());
    proc->attach(rel);
  }
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 6;
  spec.seed = 4;
  const auto scripts = mcs::make_random_scripts(dist, spec);
  std::vector<std::unique_ptr<mcs::Client>> clients;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    clients.push_back(
        std::make_unique<mcs::Client>(*procs[p], sim, scripts[p]));
    clients.back()->start(kTimeZero);
  }
  sim.run();

  const auto h = recorder.history();
  EXPECT_TRUE(hist::check_history(h, hist::Criterion::kCausal).consistent);
  // All updates were eventually applied everywhere relevant: each process's
  // buffered queue drained (no stuck messages => applied counts match).
  for (const auto& proc : procs) {
    EXPECT_GE(proc->stats().updates_applied, 0u);
  }
}

// ---------------------------------------------------------------------------
// What gets resent, and when: a frame is resent at its own deadline, or
// early on a duplicate ACK if it has not been resent yet.  Tap sits
// between ARQ and the simulator and sees every frame ARQ sends.
// ---------------------------------------------------------------------------

class Tap final : public HostTransport {
 public:
  explicit Tap(Simulator& sim) : sim_(sim) {}

  /// Drop the `attempt`-th (0-based) transmission of DATA seq `seq`?
  std::function<bool(std::uint64_t seq, int attempt)> drop;
  /// Send times of every DATA transmission, by seq.
  std::map<std::uint64_t, std::vector<TimePoint>> sends;

  ProcessId add_endpoint(Endpoint* ep) override {
    return sim_.add_endpoint(ep);
  }
  void send(ProcessId from, ProcessId to, BodyRef body,
            MessageMeta meta) override {
    if (body->wire_type() == wire::kArqData) {
      WireWriter w;  // a DATA frame encodes its seq first
      body->wire_encode(w);
      const std::vector<std::uint8_t> bytes = w.take();
      WireReader r(bytes);
      const std::uint64_t seq = r.u64();
      std::vector<TimePoint>& times = sends[seq];
      times.push_back(sim_.now());
      const int attempt = static_cast<int>(times.size()) - 1;
      if (drop && drop(seq, attempt)) return;
    }
    sim_.send(from, to, std::move(body), std::move(meta));
  }
  [[nodiscard]] TimePoint now() const override { return sim_.now(); }
  void set_timer(ProcessId who, Duration delay, TimerTag tag) override {
    sim_.set_timer(who, delay, tag);
  }
  [[nodiscard]] std::size_t process_count() const override {
    return sim_.process_count();
  }
  [[nodiscard]] BodyArena& arena(ProcessId owner) override {
    return sim_.arena(owner);
  }

 private:
  Simulator& sim_;
};

/// Send payloads 0..count-1 from `s` to `r`, one per millisecond.
void send_spaced(Simulator& sim, ReliableTransport& rel, ProcessId s,
                 ProcessId r, int count) {
  for (int i = 0; i < count; ++i) {
    sim.schedule_at(TimePoint{millis(i).us}, [&rel, s, r, i] {
      auto* body = new_body<Payload>();
      body->n = i;
      rel.send(s, r, BodyRef::adopt(body), MessageMeta{"SEQ", 4, 0, {}});
    });
  }
}

// One DATA frame lost on an otherwise perfect FIFO channel costs exactly
// one retransmission, wherever it falls: mid-stream the next frame's
// duplicate ACK repairs it at once, at the tail its deadline does.
TEST(Reliable, OneDroppedFrameCostsOneRetransmission) {
  for (const std::uint64_t lost : {4u, 10u}) {
    SCOPED_TRACE(lost);
    Simulator sim;  // FIFO, lossless, constant 1 ms
    Tap tap(sim);
    tap.drop = [lost](std::uint64_t seq, int attempt) {
      return seq == lost && attempt == 0;
    };
    ReliableTransport rel(tap, {});
    Collector sender_side, receiver;
    const ProcessId s = rel.add_endpoint(&sender_side);
    const ProcessId r = rel.add_endpoint(&receiver);
    send_spaced(sim, rel, s, r, 10);
    sim.run();

    ASSERT_EQ(receiver.got.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(receiver.got[i], i);
    EXPECT_EQ(rel.retransmissions(), 1u);
    ASSERT_EQ(tap.sends[lost].size(), 2u);
    const std::int64_t sent = tap.sends[lost][0].us;
    const std::int64_t resent = tap.sends[lost][1].us;
    if (lost == 10) {
      EXPECT_EQ(resent - sent, ReliableOptions{}.retransmit_after.us);
    } else {
      // The next frame leaves 1 ms after the lost one and takes 1 ms; its
      // duplicate ACK takes 1 ms back.
      EXPECT_EQ(resent - sent, millis(3).us);
    }
  }
}

// Under heavy loss a frame is resent early — less than a timeout after its
// previous send — only to repair a transmission that really was lost, and
// at most once; every other resend waits out the frame's deadline.
TEST(Reliable, NoFrameIsResentBeforeItsDeadline) {
  SimOptions options = lossy(0.0, 0.0, 13);
  options.channel.fifo = true;
  Simulator sim(std::move(options));
  Tap tap(sim);
  Rng rng(13);
  std::map<std::uint64_t, std::vector<bool>> dropped;  // per transmission
  tap.drop = [&](std::uint64_t seq, int) {
    const bool drop = rng.chance(0.2);
    dropped[seq].push_back(drop);
    return drop;
  };
  ReliableTransport rel(tap, {});
  Collector sender_side, receiver;
  const ProcessId s = rel.add_endpoint(&sender_side);
  const ProcessId r = rel.add_endpoint(&receiver);
  send_spaced(sim, rel, s, r, 200);
  sim.run();

  ASSERT_EQ(receiver.got.size(), 200u);
  const std::int64_t timeout = ReliableOptions{}.retransmit_after.us;
  std::uint64_t resends = 0;
  std::uint64_t early = 0;
  for (const auto& [seq, times] : tap.sends) {
    SCOPED_TRACE(seq);
    int early_here = 0;
    for (std::size_t k = 1; k < times.size(); ++k) {
      ++resends;
      if (times[k].us - times[k - 1].us >= timeout) continue;
      ++early_here;
      EXPECT_TRUE(dropped[seq][k - 1]) << "early resend of a delivered frame";
    }
    EXPECT_LE(early_here, 1);
    early += static_cast<std::uint64_t>(early_here);
  }
  EXPECT_EQ(resends, rel.retransmissions());
  EXPECT_GT(early, 0u);       // duplicate ACKs did repair gaps
  EXPECT_LT(early, resends);  // and deadlines the rest
}

// The duplicate-ACK resend fires at most once per frame however many
// duplicate ACKs arrive, and it is a retransmission like any other: with
// the head frame black-holed and max_retransmits = 3, the head goes out
// four times in all (one early) before the channel is declared dead.
TEST(Reliable, DuplicateAckResendIsOneShotAndCountsAsARetry) {
  Simulator sim;
  Tap tap(sim);
  tap.drop = [](std::uint64_t seq, int) { return seq == 1; };
  ReliableOptions o;
  o.retransmit_after = millis(20);
  o.max_retransmits = 3;
  ReliableTransport rel(tap, o);
  Collector sender_side, receiver;
  const ProcessId s = rel.add_endpoint(&sender_side);
  const ProcessId r = rel.add_endpoint(&receiver);
  send_spaced(sim, rel, s, r, 4);
  sim.run();

  const std::vector<TimePoint>& head = tap.sends[1];
  ASSERT_EQ(head.size(), 4u);  // first send + 3 retries, the fast one too
  EXPECT_EQ(head[1].us, millis(3).us);  // frame 2's duplicate ACK, once
  EXPECT_EQ(head[2].us, millis(23).us);
  EXPECT_EQ(head[3].us, millis(43).us);
  EXPECT_TRUE(receiver.got.empty());
  ASSERT_EQ(rel.dead_channels().size(), 1u);
  EXPECT_EQ(rel.dead_channel_drops(), 4u);
}

// The sim-adhoc-lossy benchmark shape (n=8, m=32, r=3, 1% loss, a 1 ms
// batching window over ARQ): the ROADMAP bar of at most 1.5 resends per
// channel drop.
TEST(Reliable, LossyBatchedAdHocResendsAboutOncePerDrop) {
  const auto dist = graph::topo::random_replication(8, 32, 3, 7);
  workload::Spec spec;
  spec.ops_per_process = 2000;
  spec.read_fraction = 0.5;
  spec.keys = workload::KeyDist::kUniform;
  spec.arrival_rate = 1000.0;
  spec.seed = 11;
  mcs::EngineConfig config;
  config.protocol = mcs::ProtocolKind::kCausalPartialAdHoc;
  config.distribution = &dist;
  config.workload = &spec;
  config.record_history = false;
  config.sim_seed = 11;
  config.channel.drop_probability = 0.01;
  config.batching.window = millis(1);
  const auto result = mcs::run(std::move(config));
  ASSERT_TRUE(result.used_reliable_transport);
  ASSERT_EQ(result.ops_completed, 8u * spec.ops_per_process);
  ASSERT_GT(result.drops.total(), 0u);
  EXPECT_LE(static_cast<double>(result.retransmissions),
            1.5 * static_cast<double>(result.drops.total()))
      << result.retransmissions << " resends for " << result.drops.total()
      << " drops";
}

// ---------------------------------------------------------------------------
// Retransmit exhaustion degrades the channel to dead (counted drops,
// reported pairs) instead of tearing down the whole run.
// ---------------------------------------------------------------------------

SimOptions black_hole(std::uint64_t seed) {
  SimOptions o = lossy(1.0, 0.0, seed);
  return o;
}

TEST(Reliable, ExhaustionDegradesToDeadChannelByDefault) {
  Simulator sim(black_hole(22));
  ReliableOptions o;
  o.retransmit_after = millis(5);
  o.max_retransmits = 3;
  ReliableTransport rel(sim, o);
  Collector a, b;
  const ProcessId s = rel.add_endpoint(&a);
  const ProcessId r = rel.add_endpoint(&b);
  sim.schedule_at(kTimeZero, [&] {
    for (int i = 0; i < 4; ++i) {
      auto* body = new_body<Payload>();
      body->n = i;
      rel.send(s, r, BodyRef::adopt(body), MessageMeta{"SEQ", 4, 0, {}});
    }
  });
  sim.run();  // no throw: the channel dies, the run quiesces

  EXPECT_TRUE(b.got.empty());
  ASSERT_EQ(rel.dead_channels().size(), 1u);
  EXPECT_EQ(rel.dead_channels()[0], std::make_pair(s, r));
  // All four unacked frames were abandoned with the channel.
  EXPECT_EQ(rel.dead_channel_drops(), 4u);

  // Later sends onto the dead pair are swallowed (counted), not retried.
  sim.schedule_at(sim.now(), [&] {
    auto* body = new_body<Payload>();
    body->n = 99;
    rel.send(s, r, BodyRef::adopt(body), MessageMeta{"SEQ", 4, 0, {}});
  });
  sim.run();
  EXPECT_TRUE(b.got.empty());
  EXPECT_EQ(rel.dead_channel_drops(), 5u);
}

// Engine surface of the same event: an RPC protocol over a total black
// hole quiesces with the channel pairs and the stranded clients reported
// in the result instead of an exception.
TEST(Reliable, EngineReportsDeadChannelsAndUnfinishedClients) {
  const auto dist = graph::topo::complete(3, 2);
  std::vector<mcs::Script> scripts(3);
  // Two RPCs to var 0's home: the first can never be acked, so the
  // second never even issues and the client stays visibly unfinished.
  scripts[1].push_back(mcs::ScriptOp::write(0, 42));
  scripts[1].push_back(mcs::ScriptOp::write(0, 43));

  mcs::EngineConfig config;
  config.protocol = mcs::ProtocolKind::kAtomicHome;
  config.distribution = &dist;
  config.scripts = &scripts;
  config.channel.drop_probability = 1.0;  // routes through ARQ (kAuto)
  config.reliable.retransmit_after = millis(5);
  config.reliable.max_retransmits = 2;
  const auto r = mcs::run(std::move(config));

  EXPECT_TRUE(r.used_reliable_transport);
  EXPECT_FALSE(r.dead_channels.empty());
  EXPECT_EQ(r.unfinished_clients, 1u);
  EXPECT_GT(r.drops.dead_channel, 0u);
}

}  // namespace
}  // namespace pardsm
