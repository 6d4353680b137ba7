// Shared runner for the golden-metrics determinism gate.
//
// Runs one (protocol, topology) workload on the deterministic simulator —
// the exact wiring of a lossless mcs::run — and reduces the run to a small
// tuple of counters plus an FNV-1a fingerprint of the full per-(process,
// variable) exposure matrix.  test_golden_metrics.cpp asserts these tuples
// against values captured before the allocation-free hot-path refactor;
// golden_metrics_gen.cpp reprints the table when a protocol legitimately
// changes its message complexity.  measure_scenario, measure_parallel and
// measure_adhoc_lossy reduce a faulty run, a run on the parallel root and
// a run of perfbench's sim-adhoc-lossy shape the same way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcs/driver.h"
#include "scenario_families.h"
#include "sharegraph/topologies.h"
#include "simnet/rng.h"
#include "simnet/scenario.h"
#include "workload/generator.h"

namespace pardsm::golden {

/// The reduced, byte-exact signature of one simulated workload.
struct Metrics {
  std::uint64_t messages = 0;      ///< total msgs_sent
  std::uint64_t bytes = 0;         ///< total wire bytes sent
  std::uint64_t exposure_sum = 0;  ///< Σ exposure(p, x)
  std::uint64_t exposure_hash = 0; ///< FNV-1a over all (p, x, count) > 0
  std::uint64_t events = 0;        ///< simulator events fired
  std::int64_t finished_us = 0;    ///< simulated quiescence time
};

inline void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

/// Deterministic workload: ops_per_process=8, read_fraction=0.5, seed=42,
/// lossless FIFO channel, constant 1ms latency.
inline Metrics measure(mcs::ProtocolKind kind,
                       const graph::Distribution& dist) {
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.read_fraction = 0.5;
  spec.seed = 42;
  const auto scripts = mcs::make_random_scripts(dist, spec);

  Simulator sim;
  mcs::HistoryRecorder recorder(dist.process_count(), dist.var_count);
  auto processes = mcs::make_processes(kind, dist, recorder);
  for (auto& proc : processes) {
    sim.add_endpoint(proc.get());
    proc->attach(sim);
  }
  std::vector<std::unique_ptr<mcs::Client>> clients;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    clients.push_back(std::make_unique<mcs::Client>(
        *processes[p], sim, scripts[p]));
    clients.back()->start(kTimeZero);
  }
  sim.run();

  Metrics out;
  const auto total = sim.stats().total();
  out.messages = total.msgs_sent;
  out.bytes = total.wire_bytes_sent();
  out.exposure_hash = 1469598103934665603ULL;  // FNV offset basis
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    for (std::size_t x = 0; x < dist.var_count; ++x) {
      const std::uint64_t count =
          sim.stats().exposure(static_cast<ProcessId>(p),
                               static_cast<VarId>(x));
      if (count == 0) continue;
      out.exposure_sum += count;
      fnv1a(out.exposure_hash, p);
      fnv1a(out.exposure_hash, x);
      fnv1a(out.exposure_hash, count);
    }
  }
  out.events = sim.events_fired();
  out.finished_us = sim.now().us;
  return out;
}

/// The topology corpus of the gate: hoop-rich ring, hoop-free chain, and
/// a random r-replication (the shapes the benches sweep).
struct NamedDist {
  const char* name;
  graph::Distribution dist;
};

inline std::vector<NamedDist> golden_topologies() {
  std::vector<NamedDist> out;
  out.push_back({"ring-6", graph::topo::ring(6)});
  out.push_back({"open-chain-5", graph::topo::open_chain(5)});
  out.push_back({"random-8p12v-r3",
                 graph::topo::random_replication(8, 12, 3, 7)});
  return out;
}

/// The reduced signature of one canonical *faulty* run: the scenario gate
/// pins loss-recovery and partition behaviour per protocol the same way
/// the lossless gate pins message complexity.
struct ScenarioMetrics {
  std::uint64_t messages = 0;         ///< total msgs_sent (incl. ARQ+re-sync)
  std::uint64_t bytes = 0;            ///< total wire bytes sent
  std::uint64_t retransmissions = 0;  ///< ARQ retransmits
  std::uint64_t dropped = 0;          ///< channel drops, all causes
  std::int64_t finished_us = 0;       ///< simulated quiescence time
};

/// Canonical lossy+partition scenario on ring-6: 1% loss throughout, the
/// ring split 3|3 from 2ms to 6ms.  Workload: ops_per_process=8,
/// read_fraction=0.5, seed=42, 1ms think time (so operations overlap the
/// partition window), sim seed 7.
inline ScenarioMetrics measure_scenario(mcs::ProtocolKind kind) {
  const auto dist = graph::topo::ring(6);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.read_fraction = 0.5;
  spec.seed = 42;
  spec.think_time = millis(1);
  const auto scripts = mcs::make_random_scripts(dist, spec);

  Scenario scenario("golden-lossy-partition");
  scenario.set_loss(0.01);
  scenario.partition({{0, 1, 2}, {3, 4, 5}}, after(millis(2)),
                     after(millis(6)));

  const auto r = mcs::run({.protocol = kind,
                           .distribution = &dist,
                           .scripts = &scripts,
                           .scenario = &scenario,
                           .sim_seed = 7});

  ScenarioMetrics out;
  out.messages = r.total_traffic.msgs_sent;
  out.bytes = r.total_traffic.wire_bytes_sent();
  out.retransmissions = r.retransmissions;
  out.dropped = r.drops.total();
  out.finished_us = r.finished_at.us;
  return out;
}

/// The reduced signature of one run on the parallel root (kParallelSim):
/// the gate pins that root's absolute channel draws — latency, loss,
/// duplication, FIFO clamp — and its drop split, not just its agreement
/// across thread counts.
struct ParallelMetrics {
  std::uint64_t messages = 0;         ///< total msgs_sent (incl. ARQ)
  std::uint64_t bytes = 0;            ///< total wire bytes sent
  std::uint64_t retransmissions = 0;  ///< ARQ retransmits
  std::uint64_t loss = 0;             ///< drops by cause
  std::uint64_t severed = 0;
  std::uint64_t down = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t events = 0;           ///< events fired, all shards
  std::int64_t finished_us = 0;       ///< simulated quiescence time
};

/// The fault cells of the parallel gate: none, then the three canonical
/// families of scenario_families.h at 2% loss.  The loss cell also
/// duplicates 2% of messages, so the duplicate path is pinned too.
inline const char* const kParallelCells[] = {"fault-free", "loss-dup",
                                             "partition", "crash"};

/// One parallel-root run of `cell` on ring-6 at `threads` workers.
/// Workload: ops_per_process=8, read_fraction=0.5, seed=42, 1ms think
/// time, uniform 1..4ms latency (so every draw matters), sim seed 7.
inline ParallelMetrics measure_parallel(mcs::ProtocolKind kind,
                                        const std::string& cell,
                                        unsigned threads) {
  const auto dist = graph::topo::ring(6);
  mcs::WorkloadSpec spec;
  spec.ops_per_process = 8;
  spec.read_fraction = 0.5;
  spec.seed = 42;
  spec.think_time = millis(1);
  const auto scripts = mcs::make_random_scripts(dist, spec);

  Scenario scenario(cell);
  if (cell == "loss-dup") {
    scenario = make_fault_scenario(FaultFamily::kLoss, 0.02);
    scenario.duplicate(0.02);
  } else if (cell == "partition") {
    scenario = make_fault_scenario(FaultFamily::kPartition, 0.02);
  } else if (cell == "crash") {
    scenario = make_fault_scenario(FaultFamily::kCrash, 0.02);
  }

  const auto r = mcs::run(
      {.protocol = kind,
       .distribution = &dist,
       .scripts = &scripts,
       .scenario = scenario.empty() ? nullptr : &scenario,
       .runtime = mcs::EngineRuntime::kParallelSim,
       .sim_seed = 7,
       .latency = std::make_unique<UniformLatency>(millis(1), millis(4)),
       .parallel = {.num_threads = threads}});

  ParallelMetrics out;
  out.messages = r.total_traffic.msgs_sent;
  out.bytes = r.total_traffic.wire_bytes_sent();
  out.retransmissions = r.retransmissions;
  out.loss = r.drops.loss;
  out.severed = r.drops.severed;
  out.down = r.drops.down;
  out.in_flight = r.drops.in_flight;
  out.events = r.events;
  out.finished_us = r.finished_at.us;
  return out;
}

/// The reduced signature of one run of perfbench's sim-adhoc-lossy shape:
/// the ad-hoc protocol's Theorem-1 metadata through a 1 ms batching
/// window over ARQ on a 1%-loss channel.  The event queue's run/heap
/// split and the ad-hoc dependency walk sit on this path, so a change to
/// either must leave every field as it is.
struct AdHocLossyMetrics {
  std::uint64_t messages = 0;          ///< total msgs_sent (incl. ARQ)
  std::uint64_t bytes = 0;             ///< total wire bytes sent
  std::uint64_t events = 0;            ///< simulator events fired
  std::uint64_t retransmissions = 0;   ///< ARQ retransmits
  std::uint64_t updates_buffered = 0;  ///< checks that parked an update
  std::uint64_t replicas_digest = 0;   ///< mix_word chain over replicas
};

/// Ad-hoc on random_replication(8, 32, 3, 7), read-50 uniform, open loop
/// at 1000 op/s per process, 200 ops per process, op seed 42, sim seed 7,
/// 1% loss (ARQ by the kAuto rule) and a 1 ms batching window.
inline AdHocLossyMetrics measure_adhoc_lossy() {
  const auto dist = graph::topo::random_replication(8, 32, 3, 7);
  workload::Spec spec;
  spec.ops_per_process = 200;
  spec.read_fraction = 0.5;
  spec.arrival_rate = 1000.0;
  spec.seed = 42;
  mcs::EngineConfig c;
  c.protocol = mcs::ProtocolKind::kCausalPartialAdHoc;
  c.distribution = &dist;
  c.workload = &spec;
  c.record_history = false;
  c.sim_seed = 7;
  c.channel.drop_probability = 0.01;
  c.batching.window = millis(1);
  const auto r = mcs::run(std::move(c));

  AdHocLossyMetrics out;
  out.messages = r.total_traffic.msgs_sent;
  out.bytes = r.total_traffic.wire_bytes_sent();
  out.events = r.events;
  out.retransmissions = r.retransmissions;
  for (const mcs::ProtocolStats& s : r.protocol_stats) {
    out.updates_buffered += s.updates_buffered;
  }
  for (const auto& replicas : r.final_replicas) {
    for (const mcs::ReplicaEntry& e : replicas) {
      out.replicas_digest =
          mix_word(out.replicas_digest, static_cast<std::uint64_t>(e.x));
      out.replicas_digest =
          mix_word(out.replicas_digest, static_cast<std::uint64_t>(e.value));
      out.replicas_digest = mix_word(
          out.replicas_digest, static_cast<std::uint64_t>(e.source.writer));
      out.replicas_digest = mix_word(
          out.replicas_digest, static_cast<std::uint64_t>(e.source.seq));
    }
  }
  return out;
}

}  // namespace pardsm::golden
