// Sockets runtime end-to-end: every protocol over real loopback TCP, the
// decorator stacks composed above the socket root, chaos injection routed
// through ARQ, scenario crash/recover with RSYNC on the wall clock, the
// receiver-side heartbeat failure detector (also under a busy worker),
// the ad-hoc protocol's per-recipient wire, rejected-frame and
// hostile-connection accounting, workers that flood each other without
// ever blocking on a write, a stop that wakes every thread, and the
// multi-process bootstrap (pardsm_node) including a SIGKILL/respawn drill.
//
// Everything timing-sensitive here asserts *outcomes* (delivery,
// convergence, counters), never exact times: the sockets runtime is as
// non-deterministic in timing as kThreads.  Convergence checks use
// single-writer workloads, whose final replica contents are a pure
// function of the workload — comparable against a deterministic
// kSimulator reference run (the same trick as the P6 property).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mcs/causal_partial_adhoc.h"
#include "mcs/driver.h"
#include "mcs/factory.h"
#include "sharegraph/topologies.h"
#include "simnet/socket_transport.h"
#include "simnet/wire.h"

namespace pardsm {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Reference run: the deterministic simulator executing the same workload
// losslessly.  Single-writer scripts make final_replicas order-free, so
// the socket run must land on exactly these (value, WriteId) entries.
// ---------------------------------------------------------------------------

struct Workload {
  graph::Distribution dist;
  std::vector<mcs::Script> scripts;
};

Workload make_workload(std::size_t n, std::size_t ops, std::uint64_t seed) {
  Workload w;
  w.dist = graph::topo::complete(n, n);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = ops;
  spec.seed = seed;
  w.scripts = mcs::make_single_writer_scripts(w.dist, spec);
  return w;
}

mcs::ScenarioRunResult reference_run(mcs::ProtocolKind kind,
                                     const Workload& w) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &w.dist;
  config.scripts = &w.scripts;
  return mcs::run(std::move(config));
}

mcs::EngineConfig socket_config(mcs::ProtocolKind kind, const Workload& w) {
  mcs::EngineConfig config;
  config.protocol = kind;
  config.distribution = &w.dist;
  config.scripts = &w.scripts;
  config.runtime = mcs::EngineRuntime::kSockets;
  return config;
}

// ---------------------------------------------------------------------------
// All nine protocols complete a loopback run on the sockets root with
// exact model-level conservation and the reference final replica state.
// ---------------------------------------------------------------------------

TEST(Sockets, EveryProtocolConvergesOverLoopback) {
  const Workload w = make_workload(4, 6, 3);
  for (const mcs::ProtocolKind kind : mcs::all_protocols()) {
    SCOPED_TRACE(mcs::to_string(kind));
    const auto ref = reference_run(kind, w);
    const auto r = mcs::run(socket_config(kind, w));

    EXPECT_FALSE(r.used_reliable_transport);  // lossless => raw socket root
    EXPECT_EQ(r.unfinished_clients, 0u);
    EXPECT_TRUE(r.dead_channels.empty());
    // Lossless wire: every modelled message sent was received.
    EXPECT_EQ(r.total_traffic.msgs_sent, r.total_traffic.msgs_received);
    EXPECT_EQ(r.total_traffic.msgs_sent, ref.total_traffic.msgs_sent);
    // Real frames actually crossed the loopback sockets.
    EXPECT_GT(r.socket_counters.frames_sent, 0u);
    EXPECT_EQ(r.socket_counters.frames_sent, r.socket_counters.frames_received);
    EXPECT_GT(r.socket_counters.bytes_sent, 0u);
    // Wall-clock timing differs; final replica contents must not.
    EXPECT_EQ(r.final_replicas, ref.final_replicas);
  }
}

// ---------------------------------------------------------------------------
// A closed-loop stream on the wall-clock roots runs in constant stack
// depth.  A wait-free protocol completes an op inline, so a client that
// issued its next op from inside the completion callback would recurse
// once per op and overflow the mailbox thread's stack long before 200k
// ops; the client posts each next op to its mailbox instead.  Covers
// kThreads as well — the same client and seam drive both roots.
// ---------------------------------------------------------------------------

TEST(Sockets, ClosedLoopStreamsRunInConstantStackDepth) {
  const auto dist = graph::topo::random_replication(4, 16, 3, 1);
  workload::Spec spec;
  spec.ops_per_process = 200'000;
  spec.read_fraction = 0.95;
  const std::uint64_t target = spec.ops_per_process * dist.process_count();
  for (const auto runtime :
       {mcs::EngineRuntime::kThreads, mcs::EngineRuntime::kSockets}) {
    SCOPED_TRACE(runtime == mcs::EngineRuntime::kThreads ? "threads"
                                                         : "sockets");
    mcs::EngineConfig config;
    config.protocol = mcs::ProtocolKind::kPramPartial;
    config.distribution = &dist;
    config.workload = &spec;
    config.record_history = false;
    config.runtime = runtime;
    const auto r = mcs::run(std::move(config));
    EXPECT_EQ(r.ops_completed, target);
    EXPECT_EQ(r.ops_censored, 0u);
  }
}

// ---------------------------------------------------------------------------
// The decorator stacks (ARQ, batching, both stacking orders) compose
// above the socket root exactly as above the simulator.
// ---------------------------------------------------------------------------

TEST(Sockets, TransportStacksComposeAboveSocketRoot) {
  const Workload w = make_workload(3, 6, 7);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kPramPartial;
  const auto ref = reference_run(kind, w);

  struct Case {
    const char* name;
    mcs::ReliabilityMode reliability;
    Duration window;
    mcs::BatchPlacement placement;
  };
  const Case cases[] = {
      {"arq-only", mcs::ReliabilityMode::kAlways, Duration{},
       mcs::BatchPlacement::kAboveReliable},
      {"batching-only", mcs::ReliabilityMode::kAuto, millis(1),
       mcs::BatchPlacement::kAboveReliable},
      {"batching-over-arq", mcs::ReliabilityMode::kAlways, millis(1),
       mcs::BatchPlacement::kAboveReliable},
      {"arq-over-batching", mcs::ReliabilityMode::kAlways, millis(1),
       mcs::BatchPlacement::kBelowReliable},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    mcs::EngineConfig config = socket_config(kind, w);
    config.reliability = c.reliability;
    config.batching.window = c.window;
    config.batch_placement = c.placement;
    const auto r = mcs::run(std::move(config));

    EXPECT_EQ(r.used_reliable_transport,
              c.reliability == mcs::ReliabilityMode::kAlways);
    if (c.window.us > 0) {
      EXPECT_GT(r.batching.frames_sent, 0u);
    }
    EXPECT_EQ(r.unfinished_clients, 0u);
    EXPECT_EQ(r.final_replicas, ref.final_replicas);
  }
}

// ---------------------------------------------------------------------------
// Chaos injection: frame drops/duplicates at the socket layer force the
// run through ARQ (ReliabilityMode::kAuto), which repairs them — same
// liveness story as simulated channel loss, now on a real wire.
// ---------------------------------------------------------------------------

TEST(Sockets, ChaosLossAutoRoutesThroughArqAndConverges) {
  const Workload w = make_workload(3, 10, 11);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kPramPartial;
  const auto ref = reference_run(kind, w);

  mcs::EngineConfig config = socket_config(kind, w);
  config.sockets.chaos.drop_probability = 0.15;
  config.sockets.chaos.duplicate_probability = 0.05;
  const auto r = mcs::run(std::move(config));

  EXPECT_TRUE(r.used_reliable_transport);
  EXPECT_GT(r.socket_counters.chaos_drops, 0u);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_TRUE(r.dead_channels.empty());
  EXPECT_EQ(r.final_replicas, ref.final_replicas);
}

// Deliberate mid-stream disconnects exercise reconnection with backoff.
// The frame that triggers the close still arrives and queued frames are
// retained across the reconnect, so a disconnect-only chaos run loses
// nothing and needs no ARQ.
TEST(Sockets, MidStreamDisconnectsReconnectWithoutLoss) {
  const Workload w = make_workload(3, 8, 13);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kCausalPartialNaive;
  const auto ref = reference_run(kind, w);

  mcs::EngineConfig config = socket_config(kind, w);
  config.sockets.chaos.disconnect_probability = 0.2;
  const auto r = mcs::run(std::move(config));

  EXPECT_FALSE(r.used_reliable_transport);
  EXPECT_GT(r.socket_counters.chaos_disconnects, 0u);
  EXPECT_GT(r.socket_counters.reconnects, 0u);
  EXPECT_EQ(r.total_traffic.msgs_sent, r.total_traffic.msgs_received);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_EQ(r.final_replicas, ref.final_replicas);
}

// ---------------------------------------------------------------------------
// Scenario replay on the wall clock: a crash/recover window maps onto
// set_down() + the McsProcess crash()/recover() + RSYNC machinery.
// Chaos delays keep updates in flight across the crash window, so the
// downed process genuinely misses traffic.  The contract pinned here:
//
//   * the socket layer suppresses those deliveries *below* the ARQ shims
//     (drops.down) — never above them, where the ack would already have
//     been sent and the message lost for good;
//   * the ARQ backlog repairs every missed message after recovery
//     (retransmissions), so the run converges and the victim's in-flight
//     operation completes late instead of stranding its client;
//   * the RSYNC handshake runs (resync_messages, recovery latency) but
//     adopts nothing: its response from the home rides the same ARQ FIFO
//     pair as the dropped commits, so the repaired backlog always lands
//     first and the never-regress rule refuses the then-stale-equal
//     copies.  Fail-pause crashes keep replica state; RSYNC *adoption* is
//     for real state loss — the multi-process SIGKILL drill below, where
//     pardsm_node requires resync_applied > 0.
// ---------------------------------------------------------------------------

TEST(Sockets, ScenarioCrashRecoverRepairsBelowArqOverSockets) {
  const Workload w = make_workload(3, 6, 5);
  const mcs::ProtocolKind kind = mcs::ProtocolKind::kCachePartial;
  const auto ref = reference_run(kind, w);

  Scenario scenario("socket-crash");
  scenario.crash(2, after(millis(15)), after(millis(200)));

  mcs::EngineConfig config = socket_config(kind, w);
  config.scenario = &scenario;
  // Every frame rides a 20-60ms head-of-line delay: traffic issued before
  // the crash at 15ms arrives inside the window and is dropped as "down".
  config.sockets.chaos.delay_min = millis(20);
  config.sockets.chaos.delay_max = millis(60);
  const auto r = mcs::run(std::move(config));

  EXPECT_TRUE(r.used_reliable_transport);  // faulty scenario => ARQ
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_GT(r.drops.down, 0u);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_GT(r.resync_messages, 0u);
  EXPECT_GT(r.max_recovery_latency.us, 0);
  EXPECT_EQ(r.resync_values_applied, 0u);
  EXPECT_EQ(r.unfinished_clients, 0u);
  EXPECT_EQ(r.final_replicas, ref.final_replicas);
}

// ---------------------------------------------------------------------------
// Heartbeat failure detector, observed directly on two multi-process-
// shaped transports in one test process: peer up on first HELLO, down
// after silence past heartbeat_timeout, up again with a bumped
// incarnation when a "respawned" transport rebinds the same listener.
// ---------------------------------------------------------------------------

int bind_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 16), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

bool wait_for(const std::function<bool()>& pred,
              std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

struct Sink final : Endpoint {
  void on_message(const Message&) override {}
};

TEST(Sockets, HeartbeatDetectorTracksPeerLifecycle) {
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  const int fd_a = bind_listener(&port_a);
  const int fd_b = bind_listener(&port_b);

  const auto options = [&](ProcessId me, int fd, std::uint64_t incarnation) {
    SocketOptions o;
    o.total_processes = 2;
    o.local_ids = {me};
    o.addrs = {"127.0.0.1:" + std::to_string(port_a),
               "127.0.0.1:" + std::to_string(port_b)};
    o.listen_fd = ::dup(fd);  // the test keeps the original, like pardsm_node
    o.incarnation = incarnation;
    o.heartbeat_period = millis(10);
    o.heartbeat_timeout = millis(80);
    return o;
  };

  Sink ea;
  SocketTransport a(options(0, fd_a, 1));
  a.add_endpoint(&ea);
  std::atomic<int> downs{0};
  std::atomic<int> ups{0};
  a.set_peer_callback([&](ProcessId peer, bool up, std::uint64_t) {
    if (peer != 1) return;
    if (up) {
      ++ups;
    } else {
      ++downs;
    }
  });
  a.start();

  // First incarnation of the peer comes up.
  Sink eb1;
  auto b1 = std::make_unique<SocketTransport>(options(1, fd_b, 1));
  b1->add_endpoint(&eb1);
  b1->start();
  EXPECT_TRUE(wait_for([&] { return a.peer_incarnation(1) == 1; }));
  EXPECT_TRUE(a.peer_up(1));

  // Silence (stopped peer) is declared down after heartbeat_timeout.
  b1->stop();
  b1.reset();
  EXPECT_TRUE(wait_for([&] { return !a.peer_up(1); }));
  EXPECT_GE(downs.load(), 1);

  // A respawned incarnation on the same listener is detected as up again,
  // with the bumped incarnation from its HELLO.
  Sink eb2;
  SocketTransport b2(options(1, fd_b, 2));
  b2.add_endpoint(&eb2);
  b2.start();
  EXPECT_TRUE(
      wait_for([&] { return a.peer_up(1) && a.peer_incarnation(1) == 2; }));
  EXPECT_GE(ups.load(), 1);
  EXPECT_GT(a.counters().heartbeats_received, 0u);

  b2.stop();
  a.stop();
  ::close(fd_a);
  ::close(fd_b);
}

// ---------------------------------------------------------------------------
// Hand-assembled loopback systems: the protocol processes of one
// distribution on one all-local SocketTransport — the shape
// EngineRuntime::kSockets runs — with a tap in front of every process, so
// a test can reach the transport and see each decoded message before its
// process does.
// ---------------------------------------------------------------------------

class LoopbackSystem {
 public:
  /// Called on mailbox threads, serialized by the system.
  using Inspect = std::function<void(const Message&)>;

  LoopbackSystem(mcs::ProtocolKind kind, const graph::Distribution& dist,
                 Inspect inspect = {})
      : dist_(dist),
        recorder_(dist.process_count(), dist.var_count),
        inspect_(std::move(inspect)),
        transport_(options(dist.process_count())) {
    recorder_.use_discard_mode();
    processes_ = mcs::make_processes(kind, dist_, recorder_);
    for (auto& proc : processes_) {
      Tap& tap = taps_.emplace_back(this, proc.get());
      EXPECT_EQ(transport_.add_endpoint(&tap), proc->id());
      proc->attach(transport_);
    }
    // Declares m, as the engine does: frames mentioning a variable
    // outside it are rejected.
    transport_.stats().set_var_hint(dist.var_count);
    transport_.start();
  }
  ~LoopbackSystem() { transport_.stop(); }
  LoopbackSystem(const LoopbackSystem&) = delete;
  LoopbackSystem& operator=(const LoopbackSystem&) = delete;

  [[nodiscard]] SocketTransport& transport() { return transport_; }

  /// `rounds` times, the lowest member of every C(x) writes x (one writer
  /// per variable, so replicas converge whatever the interleaving).
  /// Returns whether the system went quiescent afterwards.
  bool write_rounds(int rounds) {
    for (std::size_t x = 0; x < dist_.var_count; ++x) {
      const auto writer = dist_.replicas_of(static_cast<VarId>(x)).front();
      mcs::McsProcess* proc =
          processes_[static_cast<std::size_t>(writer)].get();
      transport_.post(writer, [proc, x, rounds] {
        for (int i = 1; i <= rounds; ++i) {
          proc->write(static_cast<VarId>(x), static_cast<Value>(x) * 100 + i,
                      [] {});
        }
      });
    }
    return transport_.await_quiescence(std::chrono::milliseconds(10000));
  }

  /// Every replica holds the last value written by write_rounds(rounds).
  [[nodiscard]] bool converged(int rounds) const {
    for (const auto& proc : processes_) {
      for (VarId x : dist_.per_process[static_cast<std::size_t>(proc->id())]) {
        const Value last = static_cast<Value>(x) * 100 + rounds;
        if (proc->store().get(x).value != last) return false;
      }
    }
    return true;
  }

 private:
  struct Tap final : Endpoint {
    LoopbackSystem* system;
    mcs::McsProcess* process;
    Tap(LoopbackSystem* s, mcs::McsProcess* p) : system(s), process(p) {}
    Tap(const Tap&) = delete;
    Tap& operator=(const Tap&) = delete;
    void on_message(const Message& m) override {
      if (system->inspect_) {
        std::lock_guard lock(system->inspect_mu_);
        system->inspect_(m);
      }
      process->on_message(m);
    }
    void on_timer(TimerTag tag) override { process->on_timer(tag); }
  };

  static SocketOptions options(std::size_t n) {
    SocketOptions o;
    o.total_processes = n;
    return o;
  }

  const graph::Distribution& dist_;
  mcs::HistoryRecorder recorder_;
  Inspect inspect_;
  std::mutex inspect_mu_;
  std::vector<std::unique_ptr<mcs::McsProcess>> processes_;
  std::deque<Tap> taps_;  ///< stable addresses: the transport holds them
  SocketTransport transport_;
};

// ---------------------------------------------------------------------------
// The ad-hoc protocol's wire is its model: every decoded frame carries
// only the dependency entries its recipient tracks, each with exactly
// |C(y)| counters, and the control bytes its meta charges are the ones
// the shared StaticRelevance formula gives for those entries.  Checked on
// a hoop-free chain (senders track variables their recipients do not)
// and a ring (every process tracks everything, |C(y)| = 2 < n).
// ---------------------------------------------------------------------------

TEST(Sockets, AdHocFramesCarryExactlyTheRecipientsEntries) {
  for (const auto& dist : {graph::topo::open_chain(5), graph::topo::ring(6)}) {
    SCOPED_TRACE(dist.name);
    const auto analysis = mcs::StaticRelevance::analyze(dist);
    std::size_t frames = 0;
    std::vector<std::string> violations;
    const auto inspect = [&](const Message& m) {
      if (m.body.get() == nullptr ||
          m.body->wire_type() != wire::kAdHocMsg) {
        return;
      }
      ++frames;
      // Re-encode the decoded body (the codec is its own inverse) and walk
      // the dependency entries in wire order.
      WireWriter w;
      m.body->wire_encode(w);
      WireReader r(w.bytes());
      (void)r.i32();      // x
      (void)r.i64();      // v
      (void)r.boolean();  // has_value
      (void)wire::get_write_id(r);
      (void)r.i64();  // var_seq
      const std::uint32_t entries = r.u32();
      std::uint64_t control = mcs::StaticRelevance::kFixedControlBytes;
      const auto& tracked =
          analysis->tracks_mask[static_cast<std::size_t>(m.to)];
      for (std::uint32_t i = 0; i < entries; ++i) {
        const auto y = static_cast<std::size_t>(r.i32());
        const std::uint32_t counters = r.u32();
        for (std::uint32_t k = 0; k < counters; ++k) (void)r.i64();
        control += mcs::StaticRelevance::entry_bytes(counters);
        if (y >= tracked.size() || tracked[y] == 0) {
          std::string v = "p";
          v += std::to_string(m.to) + " got x" + std::to_string(y) +
               ", which it does not track";
          violations.push_back(std::move(v));
        } else if (counters != analysis->clique_size[y]) {
          std::string v = "x";
          v += std::to_string(y) + " entry has " + std::to_string(counters) +
               " counters";
          violations.push_back(std::move(v));
        }
      }
      if (!r.done()) violations.push_back("trailing bytes after the entries");
      if (control != m.meta.control_bytes) {
        violations.push_back("entries come to " + std::to_string(control) +
                             " control bytes, meta charges " +
                             std::to_string(m.meta.control_bytes));
      }
    };

    {
      LoopbackSystem system(mcs::ProtocolKind::kCausalPartialAdHoc, dist,
                            inspect);
      ASSERT_TRUE(system.write_rounds(3));
      EXPECT_TRUE(system.converged(3));
    }
    EXPECT_GT(frames, 0u);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: " << violations.front();
  }
}

// ---------------------------------------------------------------------------
// A bad HELLO, a garbage frame or a frame naming ids outside the system on
// a raw loopback connection is rejected and counted; only that connection
// drops, and the run over the transport's own connections still
// converges.  So does a run beside a silent connection or a frame that
// never completes.
// ---------------------------------------------------------------------------

/// The kind the hostile frames below carry: registered here, as a
/// protocol registers its kinds, so only the ids they name are wrong.
const KindId kHostileKind("HOSTILE");

/// One length-prefixed MSG frame, hand-assembled the way the socket root
/// encodes it: [u32 len][u8 type = 2][from][to][id][meta][body].  The kind
/// goes in as a spelling, so an unregistered one is never interned here.
std::vector<std::uint8_t> msg_frame(ProcessId from, ProcessId to,
                                    std::initializer_list<VarId> vars,
                                    const std::vector<std::uint8_t>& body,
                                    std::string_view kind = "HOSTILE") {
  WireWriter w;
  w.u8(2);
  w.i32(from);
  w.i32(to);
  w.u64(1);
  w.str(kind);  // meta: kind, control and payload bytes, urgency, vars
  w.u64(0);
  w.u64(0);
  w.boolean(false);
  w.u16(static_cast<std::uint16_t>(vars.size()));
  for (VarId x : vars) w.i32(x);
  for (std::uint8_t b : body) w.u8(b);
  WireWriter frame;
  frame.u32(static_cast<std::uint32_t>(w.bytes().size()));
  for (std::uint8_t b : w.bytes()) frame.u8(b);
  return frame.take();
}

/// The HELLO that binds a connection to (from -> to), as a channel's
/// writer sends it: [u32 len = 17][u8 type = 1][from][to][u64 incarnation].
std::vector<std::uint8_t> hello_frame(ProcessId from, ProcessId to) {
  WireWriter w;
  w.u32(17);
  w.u8(1);
  w.i32(from);
  w.i32(to);
  w.u64(1);
  return w.take();
}

/// `frame` behind a valid HELLO from process 0 to process 1.
std::vector<std::uint8_t> after_hello(std::vector<std::uint8_t> frame) {
  std::vector<std::uint8_t> bytes = hello_frame(0, 1);
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  return bytes;
}

/// A raw loopback connection to `port`.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(Sockets, RejectedFramesAreCountedAndTheRunConverges) {
  const auto dist = graph::topo::ring(4);
  // A real protocol body, re-encoded from the first decoded frame, so the
  // hostile frames below are well-formed except for the ids they name.
  std::vector<std::uint8_t> body;
  LoopbackSystem system(mcs::ProtocolKind::kPramPartial, dist,
                        [&](const Message& m) {
                          if (!body.empty()) return;
                          WireWriter w;
                          wire::encode_body(w, *m.body);
                          body = w.take();
                        });
  SocketTransport& transport = system.transport();
  ASSERT_TRUE(system.write_rounds(1));
  ASSERT_FALSE(body.empty());

  // Each rejected frame drops its connection, so every input gets its own.
  const auto send_raw = [&](const std::vector<std::uint8_t>& bytes) {
    const int fd = connect_raw(transport.port());
    const std::uint64_t before = transport.counters().frames_rejected;
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    EXPECT_TRUE(wait_for([&] {
      return transport.counters().frames_rejected == before + 1;
    }));
    ::close(fd);
  };

  const auto n = static_cast<ProcessId>(dist.process_count());
  const auto m = static_cast<VarId>(dist.var_count);
  // A connection must open with a HELLO naming a process hosted here.
  send_raw(msg_frame(0, 1, {0}, body));
  send_raw(hello_frame(0, n));
  send_raw(hello_frame(0, -1));
  // [u32 length = 5][u8 frame type 0xEE][4 garbage bytes]
  send_raw(after_hello({5, 0, 0, 0, 0xEE, 0xDE, 0xAD, 0xBE, 0xEF}));
  // Sender outside [0, n): protocols index their per-peer tables by it.
  send_raw(after_hello(msg_frame(-1, 1, {0}, body)));
  send_raw(after_hello(msg_frame(n, 1, {0}, body)));
  // VarIds outside [0, m): the run declared m variables, and protocol
  // tables downstream index by VarId.
  send_raw(after_hello(msg_frame(0, 1, {-1}, body)));
  send_raw(after_hello(msg_frame(0, 1, {0, m}, body)));
  send_raw(after_hello(msg_frame(0, 1, {std::numeric_limits<VarId>::max()},
                                 body)));
  // A MSG for another process than the one its connection's HELLO named.
  send_raw(after_hello(msg_frame(0, 2, {0}, body)));
  // A CONTROL frame from outside [0, n): the bootstrap barrier indexes
  // its per-node table by it.
  {
    WireWriter control;
    control.u32(1 + 4 + 4 + 4 + 8);
    control.u8(4);
    control.i32(-1);  // from
    control.i32(1);   // to
    control.u32(1);   // code
    control.u64(0);   // arg
    send_raw(after_hello(control.take()));
  }
  // A kind nobody registered is rejected without being interned.
  const std::size_t kinds = kind_table_size();
  send_raw(after_hello(msg_frame(0, 1, {0}, body, "NEVER-REGISTERED")));
  send_raw(after_hello(msg_frame(0, 1, {0}, body, "ARQ:NEVER-REGISTERED")));
  EXPECT_EQ(kind_table_size(), kinds);

  // A silent connection holds up no other accept; it is closed and
  // counted once heartbeat_timeout (150 ms by default) has passed.
  {
    const auto opened = std::chrono::steady_clock::now();
    const int silent = connect_raw(transport.port());
    const std::uint64_t before = transport.counters().frames_rejected;
    send_raw(msg_frame(0, 1, {0}, body));  // handled while `silent` waits
    EXPECT_TRUE(wait_for([&] {
      return transport.counters().frames_rejected == before + 2;
    }));
    EXPECT_GE(std::chrono::steady_clock::now() - opened, 150ms);
    char byte = 0;
    EXPECT_EQ(::recv(silent, &byte, 1, 0), 0);  // closed by the transport
    ::close(silent);
  }

  // A 64 MiB length prefix followed by nothing: the frame never completes,
  // and nothing else waits for it (its read buffer grows only with bytes
  // that arrive: HostileFrames.SocketReadBufferGrowsWithArrivedBytes).
  const int stalled = connect_raw(transport.port());
  std::vector<std::uint8_t> prefix = hello_frame(0, 1);
  for (const std::uint8_t b : {0, 0, 0, 4}) prefix.push_back(b);
  ASSERT_EQ(::write(stalled, prefix.data(), prefix.size()),
            static_cast<ssize_t>(prefix.size()));

  ASSERT_TRUE(system.write_rounds(2));
  EXPECT_TRUE(system.converged(2));
  ::close(stalled);
  EXPECT_EQ(transport.counters().frames_rejected, 15u);
  EXPECT_GT(transport.counters().frames_received, 0u);
}

// ---------------------------------------------------------------------------
// The socket root's worker never waits for socket buffer space: two
// processes that flood each other from inside their handlers with more
// bytes than loopback TCP buffers hold (wmem_max is 4 MiB by default)
// converge.  A worker that blocked in send() would deadlock here — both
// workers would sit in a write, and neither would read.
// ---------------------------------------------------------------------------

/// `size` bytes of filler behind a length (test codec).
struct Blob final : MessageBody {
  std::uint32_t size = 0;
  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kTestPayload;
  }
  void wire_encode(WireWriter& w) const override {
    w.u32(size);
    for (std::uint32_t i = 0; i < size / 8; ++i) w.u64(0);
  }
};

BodyRef decode_blob(WireReader& r, BodyArena& arena) {
  auto* blob = arena.create<Blob>();
  blob->size = r.u32();
  for (std::uint32_t i = 0; i < blob->size / 8; ++i) (void)r.u64();
  return BodyRef::adopt(blob);
}
const wire::BodyRegistrar kBlobCodec(wire::kTestPayload, decode_blob);

struct CountingSink final : Endpoint {
  std::atomic<int> got{0};
  void on_message(const Message&) override { ++got; }
};

TEST(Sockets, WorkersFloodingEachOtherNeverBlockOnAWrite) {
  constexpr int kFrames = 16;
  constexpr std::uint32_t kBytes = 1u << 20;  // 16 MiB each way
  SocketOptions options;
  options.total_processes = 2;
  SocketTransport transport(std::move(options));
  CountingSink a, b;
  transport.add_endpoint(&a);
  transport.add_endpoint(&b);
  transport.start();
  for (const ProcessId p : {0, 1}) {
    transport.post(p, [&transport, p] {
      for (int i = 0; i < kFrames; ++i) {
        auto* blob = transport.arena(p).create<Blob>();
        blob->size = kBytes;
        transport.send(p, 1 - p, BodyRef::adopt(blob), MessageMeta{});
      }
    });
  }
  EXPECT_TRUE(transport.await_quiescence(20000ms));
  EXPECT_EQ(a.got.load(), kFrames);
  EXPECT_EQ(b.got.load(), kFrames);
  transport.stop();
}

// ---------------------------------------------------------------------------
// Failure detection does not depend on worker load: a handler that holds
// its worker for twice heartbeat_timeout leaves its peer's heartbeats
// unread, and the detector finds them waiting on the connection instead
// of declaring the peer down.
// ---------------------------------------------------------------------------

TEST(Sockets, BusyWorkerDoesNotMakeItsPeersLookDown) {
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  const int fd_a = bind_listener(&port_a);
  const int fd_b = bind_listener(&port_b);
  const auto options = [&](ProcessId me, int fd) {
    SocketOptions o;
    o.total_processes = 2;
    o.local_ids = {me};
    o.addrs = {"127.0.0.1:" + std::to_string(port_a),
               "127.0.0.1:" + std::to_string(port_b)};
    o.listen_fd = ::dup(fd);
    o.heartbeat_period = millis(10);
    o.heartbeat_timeout = millis(80);
    return o;
  };
  Sink ea;
  Sink eb;
  SocketTransport a(options(0, fd_a));
  SocketTransport b(options(1, fd_b));
  a.add_endpoint(&ea);
  b.add_endpoint(&eb);
  std::atomic<int> downs{0};
  a.set_peer_callback([&](ProcessId, bool up, std::uint64_t) {
    if (!up) ++downs;
  });
  a.start();
  b.start();
  ASSERT_TRUE(wait_for([&] { return a.peer_incarnation(1) == 1; }));

  std::atomic<bool> done{false};
  a.post(0, [&done] {
    std::this_thread::sleep_for(160ms);
    done = true;
  });
  ASSERT_TRUE(wait_for([&] { return done.load(); }));
  std::this_thread::sleep_for(40ms);  // a detector tick after the handler
  EXPECT_EQ(downs.load(), 0);
  EXPECT_TRUE(a.peer_up(1));

  b.stop();
  a.stop();
  ::close(fd_a);
  ::close(fd_b);
}

// ---------------------------------------------------------------------------
// halt() wakes every thread it joins: with a 2 s heartbeat period the
// failure detector ticks once a second, and a stop must not wait it out.
// ---------------------------------------------------------------------------

TEST(Sockets, HaltDoesNotWaitOutTheDetectorTick) {
  SocketOptions options;
  options.total_processes = 2;
  options.heartbeat_period = millis(2000);
  options.heartbeat_timeout = millis(5000);
  SocketTransport transport(std::move(options));
  Sink e0;
  Sink e1;
  transport.add_endpoint(&e0);
  transport.add_endpoint(&e1);
  transport.start();
  // Connected, and every thread is parked in its wait.
  ASSERT_TRUE(
      wait_for([&] { return transport.counters().heartbeats_received == 2; }));
  std::this_thread::sleep_for(20ms);
  const auto begin = std::chrono::steady_clock::now();
  transport.halt();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 500ms);
}

// ---------------------------------------------------------------------------
// Multi-process deployment via the pardsm_node bootstrap: real fork/exec
// node processes over loopback.  The binary itself asserts conservation
// (lossless runs) and convergence against the simulator reference, and
// exits non-zero on any violation — the test just drives it.
// ---------------------------------------------------------------------------

#ifdef PARDSM_NODE_BINARY

int run_bootstrap(const std::string& args) {
  const std::string cmd = std::string(PARDSM_NODE_BINARY) + " --spawn " + args;
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(Sockets, MultiProcessLosslessRunsConserve) {
  for (const char* protocol : {"pram-partial", "sequencer-sc"}) {
    SCOPED_TRACE(protocol);
    EXPECT_EQ(run_bootstrap("--protocol " + std::string(protocol) +
                            " --nodes 3 --writes 4 --delay-us 1000"),
              0);
  }
}

// SIGKILL drill: node 2 is killed mid-run and respawned with a bumped
// incarnation on the parent-held listener; the binary requires heartbeat
// down/up detection, reconnection, applied RSYNC entries and final
// replica convergence before exiting 0.  cache-partial because its
// resync adopts home-served entries (docs/DEPLOYMENT.md — pram's
// writer-only adoption cannot fully restore a killed node without ARQ).
TEST(Sockets, MultiProcessKillDrillRecoversAndConverges) {
  EXPECT_EQ(run_bootstrap("--protocol cache-partial --nodes 3 --writes 5 "
                          "--delay-us 2000 --kill 2 --kill-after-ms 120 "
                          "--respawn-after-ms 350"),
            0);
}

#endif  // PARDSM_NODE_BINARY

}  // namespace
}  // namespace pardsm
