// The four benchmark workloads and the output checks run on every round.
//
// Each workload is a fixed system shape (protocol, root, topology, op mix,
// channel, transport stack); the workload seed supplies the op stream and
// the channel randomness, so the same seed gives the same inputs and the
// program only ever receives the generated Distribution and Spec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mcs/causal_partial_adhoc.h"
#include "mcs/engine.h"

namespace perfbench {

struct Workload {
  const char* name;
  pardsm::mcs::ProtocolKind protocol;
  pardsm::mcs::EngineRuntime runtime;
  std::size_t procs;
  std::size_t vars;
  std::size_t replication;
  double read_fraction;
  pardsm::workload::KeyDist keys;
  /// Open-loop arrivals per process per simulated second; 0 = closed loop.
  double arrival_rate;
  double loss;                    ///< channel drop probability
  pardsm::Duration batch_window;  ///< 0 = no batching layer
  unsigned threads;               ///< parallel root workers
  std::uint64_t ops_per_process;  ///< size of one measured round
};

[[nodiscard]] const std::vector<Workload>& all_workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

[[nodiscard]] bool on_simulator(const Workload& w);

/// Everything derived from the seed.
struct Inputs {
  pardsm::graph::Distribution dist;
  pardsm::workload::Spec spec;
  std::uint64_t sim_seed = 1;
};

[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// One engine run of `ops_per_process` ops per process.  `sequential`
/// forces the sequential Simulator root (the parallel workload's
/// reference run); `multicast` is the traced run's seam wrapper.
[[nodiscard]] pardsm::mcs::ScenarioRunResult run_once(
    const Workload& w, const Inputs& in, std::uint64_t ops_per_process,
    pardsm::mcs::MulticastService* multicast = nullptr,
    bool sequential = false);

/// The deterministic counters of a run: on the simulator roots they repeat
/// exactly for a fixed seed, whatever the timing.
struct Counts {
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_censored = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t drops = 0;
  std::uint64_t batch_frames = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t updates_buffered = 0;
  std::uint64_t replicas_digest = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

[[nodiscard]] Counts counts_of(const pardsm::mcs::ScenarioRunResult& r);
[[nodiscard]] std::string describe(const Counts& c);

/// Σ_x |C(x) ∪ observed(x)| / Σ_x |C(x)|, where observed(x) is the set of
/// processes that received metadata about x.  1.0 exactly when nobody
/// outside C(x) heard of x (Theorem 2 for PRAM).
[[nodiscard]] double exposure_ratio(const pardsm::graph::Distribution& dist,
                                    const pardsm::mcs::RunResult& r);

/// Output checks of one round; appends one line per failed check.
/// `relevance` is R(x) for the ad-hoc workload (null elsewhere).
void check_round(const Workload& w, const Inputs& in,
                 const pardsm::mcs::ScenarioRunResult& r,
                 std::uint64_t ops_per_process,
                 const pardsm::mcs::StaticRelevance* relevance,
                 std::vector<std::string>& failures);

}  // namespace perfbench
