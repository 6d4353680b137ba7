#include "workloads.h"

#include <algorithm>
#include <sstream>

#include "sharegraph/topologies.h"
#include "simnet/rng.h"

namespace perfbench {

using namespace pardsm;
using mcs::EngineRuntime;
using mcs::ProtocolKind;

namespace {

/// The topology is part of the workload's fixed shape, not of its seed.
constexpr std::uint64_t kTopologySeed = 7;

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> table = {
      // The paper's efficient case at a scale where per-process state
      // leaves the caches: wait-free, ~0.1 msg/op, so client, generator
      // and local-read cost dominate.
      {"sim-pram-large", ProtocolKind::kPramPartial, EngineRuntime::kSimulator,
       1024, 4096, 3, 0.95, workload::KeyDist::kZipf, 1000.0, 0.0, Duration{},
       0, 300},
      // The same input on the sharded parallel root.
      {"par-pram-large", ProtocolKind::kPramPartial,
       EngineRuntime::kParallelSim, 1024, 4096, 3, 0.95,
       workload::KeyDist::kZipf, 1000.0, 0.0, Duration{}, 4, 300},
      // Writes beside reads, large dependency metadata, 1% loss through
      // ARQ with a 1 ms batching window above it.
      {"sim-adhoc-lossy", ProtocolKind::kCausalPartialAdHoc,
       EngineRuntime::kSimulator, 8, 32, 3, 0.5, workload::KeyDist::kUniform,
       1000.0, 0.01, millis(1), 0, 10000},
      // Real loopback TCP, closed loop, every non-home op a real RPC.
      {"sockets-atomic", ProtocolKind::kAtomicHome, EngineRuntime::kSockets, 4,
       16, 3, 0.5, workload::KeyDist::kUniform, 0.0, 0.0, Duration{}, 0,
       16000},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool on_simulator(const Workload& w) {
  return w.runtime == EngineRuntime::kSimulator ||
         w.runtime == EngineRuntime::kParallelSim;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.dist = graph::topo::random_replication(w.procs, w.vars, w.replication,
                                      kTopologySeed);
  in.spec.read_fraction = w.read_fraction;
  in.spec.keys = w.keys;
  in.spec.zipf_theta = 0.99;
  in.spec.arrival_rate = w.arrival_rate;
  in.spec.seed = mix_word(seed, 0x6f70'5f73'7472'6561ULL);  // op stream
  in.sim_seed = mix_word(seed, 0x6368'616e'6e65'6c73ULL);   // channel
  return in;
}

mcs::ScenarioRunResult run_once(const Workload& w, const Inputs& in,
                                 std::uint64_t ops_per_process,
                                 mcs::MulticastService* multicast,
                                 bool sequential) {
  workload::Spec spec = in.spec;
  spec.ops_per_process = ops_per_process;
  mcs::EngineConfig c;
  c.protocol = w.protocol;
  c.distribution = &in.dist;
  c.workload = &spec;
  c.record_history = false;
  c.runtime = sequential ? EngineRuntime::kSimulator : w.runtime;
  c.sim_seed = in.sim_seed;
  c.channel.drop_probability = w.loss;
  c.batching.window = w.batch_window;
  if (w.threads > 0) c.parallel.num_threads = w.threads;
  c.multicast = multicast;
  return mcs::run(std::move(c));
}

Counts counts_of(const mcs::ScenarioRunResult& r) {
  Counts c;
  c.ops_completed = r.ops_completed;
  c.ops_censored = r.ops_censored;
  c.msgs_sent = r.total_traffic.msgs_sent;
  c.msgs_received = r.total_traffic.msgs_received;
  c.control_bytes = r.total_traffic.control_bytes_sent;
  c.payload_bytes = r.total_traffic.payload_bytes_sent;
  c.events = r.events;
  c.retransmissions = r.retransmissions;
  c.drops = r.drops.total();
  c.batch_frames = r.batching.frames_sent;
  for (const mcs::ProtocolStats& s : r.protocol_stats) {
    c.remote_reads += s.remote_reads;
    c.updates_buffered += s.updates_buffered;
  }
  std::uint64_t h = 0;
  for (const auto& replicas : r.final_replicas) {
    for (const mcs::ReplicaEntry& e : replicas) {
      h = mix_word(h, static_cast<std::uint64_t>(e.x));
      h = mix_word(h, static_cast<std::uint64_t>(e.value));
      h = mix_word(h, static_cast<std::uint64_t>(e.source.writer));
      h = mix_word(h, static_cast<std::uint64_t>(e.source.seq));
    }
  }
  c.replicas_digest = h;
  return c;
}

std::string describe(const Counts& c) {
  std::ostringstream os;
  os << "completed=" << c.ops_completed << " censored=" << c.ops_censored
     << " sent=" << c.msgs_sent << " received=" << c.msgs_received
     << " ctrl_bytes=" << c.control_bytes
     << " payload_bytes=" << c.payload_bytes << " events=" << c.events
     << " retx=" << c.retransmissions << " drops=" << c.drops
     << " frames=" << c.batch_frames << " remote_reads=" << c.remote_reads
     << " buffered=" << c.updates_buffered << " replicas=" << std::hex
     << c.replicas_digest;
  return os.str();
}

double exposure_ratio(const graph::Distribution& dist,
                      const mcs::RunResult& r) {
  std::vector<std::vector<ProcessId>> clique(dist.var_count);
  for (std::size_t p = 0; p < dist.per_process.size(); ++p) {
    for (VarId x : dist.per_process[p]) {
      clique[static_cast<std::size_t>(x)].push_back(static_cast<ProcessId>(p));
    }
  }
  std::uint64_t relevant = 0;
  std::uint64_t holders = 0;
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto& c = clique[x];
    holders += c.size();
    relevant += c.size();
    if (x < r.observed_relevant.size()) {
      for (ProcessId p : r.observed_relevant[x]) {
        if (std::find(c.begin(), c.end(), p) == c.end()) ++relevant;
      }
    }
  }
  return holders == 0 ? 0.0
                      : static_cast<double>(relevant) /
                            static_cast<double>(holders);
}

void check_round(const Workload& w, const Inputs& in,
                 const mcs::ScenarioRunResult& r,
                 std::uint64_t ops_per_process,
                 const mcs::StaticRelevance* relevance,
                 std::vector<std::string>& failures) {
  const std::uint64_t due = ops_per_process * w.procs;
  if (r.ops_completed + r.ops_censored != due) {
    failures.push_back("completed + censored != due (" +
                       std::to_string(r.ops_completed) + " + " +
                       std::to_string(r.ops_censored) + " vs " +
                       std::to_string(due) + ")");
  }
  if (w.protocol == ProtocolKind::kPramPartial &&
      exposure_ratio(in.dist, r) != 1.0) {
    failures.push_back("PRAM metadata left C(x): exposure_ratio != 1.0");
  }
  if (relevance != nullptr) {
    for (std::size_t x = 0; x < r.observed_relevant.size(); ++x) {
      const auto& allowed = relevance->relevant[x];
      for (ProcessId p : r.observed_relevant[x]) {
        if (allowed.count(p) == 0) {
          failures.push_back("process " + std::to_string(p) +
                             " observed variable " + std::to_string(x) +
                             " outside R(x)");
          return;
        }
      }
    }
  }
  if (w.protocol == ProtocolKind::kAtomicHome) {
    // Every replica holds its home's final copy.  The one lag the protocol
    // allows: the home refreshes every standby except the writer, so when
    // the last write to x came from standby q, q keeps its previous copy.
    std::vector<const mcs::ReplicaEntry*> home(in.dist.var_count, nullptr);
    for (std::size_t p = 0; p < r.final_replicas.size(); ++p) {
      for (const mcs::ReplicaEntry& e : r.final_replicas[p]) {
        auto& h = home[static_cast<std::size_t>(e.x)];
        if (h == nullptr) h = &e;  // lowest-id member of C(x) is the home
      }
    }
    for (std::size_t p = 0; p < r.final_replicas.size(); ++p) {
      for (const mcs::ReplicaEntry& e : r.final_replicas[p]) {
        const mcs::ReplicaEntry& h = *home[static_cast<std::size_t>(e.x)];
        if (e == h || h.source.writer == static_cast<ProcessId>(p)) continue;
        failures.push_back("replica of variable " + std::to_string(e.x) +
                           " at process " + std::to_string(p) +
                           " differs from its home at quiescence");
        return;
      }
    }
  }
}

}  // namespace perfbench
