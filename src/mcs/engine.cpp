#include "mcs/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "sharegraph/sharding.h"
#include "simnet/parallel_sim.h"
#include "simnet/rng.h"
#include "simnet/thread_runtime.h"

namespace pardsm::mcs {

Client::Client(McsProcess& process, RootTransport& root, Script script)
    : process_(process),
      root_(root),
      script_(std::move(script)),
      total_(script_.size()) {}

Client::Client(McsProcess& process, RootTransport& root,
               const workload::Generator& gen, LatencyHistogram& latency)
    : process_(process),
      root_(root),
      gen_(&gen),
      latency_(&latency),
      total_(gen.ops_per_process()) {}

void Client::start(TimePoint start) {
  if (total_ == 0) return;
  start_ = start;
  if (open_loop()) {
    root_.schedule_at(gen_->arrival(start_, 0), process_.id(),
                      [this] { arrive(); });
  } else {
    arrivals_ = total_;
    root_.schedule_at(start_ + think_time(0), process_.id(),
                      [this] { pump(); });
  }
}

void Client::resume(TimePoint at) {
  if (!stalled_) return;
  PARDSM_CHECK(!process_.crashed(), "resume while the process is still down");
  stalled_ = false;
  root_.schedule_at(at, process_.id(), [this] { pump(); });
}

workload::OpSpec Client::op(std::uint64_t k) const {
  if (gen_ != nullptr) return gen_->op(process_.id(), k);
  const ScriptOp& s = script_[k];
  return {s.kind == ScriptOp::Kind::kRead, s.var, s.value};
}

void Client::arrive() {
  ++arrivals_;
  if (arrivals_ < total_) {
    // Arrivals chain one event at a time, so the queue holds O(1) client
    // events no matter how many ops the stream has left.
    root_.schedule_at(gen_->arrival(start_, arrivals_), process_.id(),
                      [this] { arrive(); });
  }
  pump();
}

void Client::pump() {
  if (outstanding_ || issued_ >= arrivals_) return;
  if (process_.crashed()) {
    // The application fails with its process: hold this op (and the
    // client's place in the load) until the recovery hook resumes us.
    // Open-loop arrivals keep coming and keep their scheduled clocks.
    stalled_ = true;
    return;
  }
  const std::uint64_t k = issued_++;
  outstanding_ = true;
  // Latency clock: open loop from the scheduled arrival (queueing behind
  // a slow or down system is charged to the op — no coordinated
  // omission); closed loop from the issue instant.
  const TimePoint t0 = open_loop() ? gen_->arrival(start_, k) : root_.now();
  const workload::OpSpec next = op(k);
  if (next.is_read) {
    process_.read(next.var, [this, t0](Value v) {
      reads_digest_ = mix_word(reads_digest_, static_cast<std::uint64_t>(v));
      if (gen_ == nullptr) reads_.push_back(v);
      complete(t0);
    });
  } else {
    process_.write(next.var, next.value, [this, t0] { complete(t0); });
  }
}

void Client::complete(TimePoint t0) {
  if (latency_ != nullptr) {
    const Duration d = root_.now() - t0;
    latency_->record(d.us > 0 ? static_cast<std::uint64_t>(d.us) : 0);
  }
  ++completed_;
  outstanding_ = false;
  if (issued_ < arrivals_) {
    // Re-enter through the root, never inline: the event loop (or the
    // mailbox) stays in control, after any messages the completed op just
    // enqueued, and a wait-free stream cannot grow the stack.
    root_.schedule_at(root_.now() + think_time(issued_), process_.id(),
                      [this] { pump(); });
  }
}

bool needs_arq(const ChannelOptions& channel, const Scenario* scenario) {
  // Socket chaos never needs ARQ: a delayed frame still arrives in order,
  // and frames queued across an injected disconnect are flushed in order
  // after the reconnect's HELLO.
  return channel.drop_probability > 0.0 ||
         channel.duplicate_probability > 0.0 ||
         (scenario != nullptr && scenario->faulty());
}

namespace {

/// A wall-clock run that has not quiesced by then fails.
constexpr std::chrono::seconds kQuiesceTimeout{10};

/// Whether this config routes through the ARQ layer.
bool needs_reliable(const EngineConfig& config) {
  switch (config.reliability) {
    case ReliabilityMode::kNever:
      return false;
    case ReliabilityMode::kAlways:
      return true;
    case ReliabilityMode::kAuto:
      break;
  }
  return needs_arq(config.channel, config.scenario);
}

/// The root's share of the result: where time, events, drops and channel
/// state come from differs per runtime.
struct RootLedger {
  NetworkStats& stats;
  TimePoint finished_at{};
  std::uint64_t events = 0;
  DropCounters drops{};
  std::size_t active_channel_pairs = 0;
  std::size_t channel_state_bytes = 0;
};

/// One owner thread's latency histogram, on cache lines of its own.
struct alignas(64) OwnerLatency {
  LatencyHistogram histogram;
};

/// Everything a run builds on top of its root, identical on all four
/// runtimes: the decorator stack, the generator, the recorder, the
/// processes, one client per process and, for a generated workload, one
/// latency histogram per owner thread.  Members are declared in
/// construction order, so the clients go before the histograms, the
/// processes and the generator they use, and the processes before the
/// recorder.
class Stack {
 public:
  /// Assemble bottom-up on `root`.  Faulty runs go through the ARQ layer:
  /// the protocols assume reliable FIFO channels for liveness, and
  /// recovery traffic must be charged to the same ledger as everything
  /// else.  The batching layer coalesces above it, so a frame rides one
  /// DATA frame.  The decorators' per-process shims only ever run on
  /// their owner's thread or shard, which makes them safe on every root
  /// unmodified.
  /// `shard_of` is the parallel root's process → shard assignment (unused
  /// elsewhere).
  Stack(const EngineConfig& config, RootTransport& root,
        const std::vector<int>& shard_of = {})
      : dist_(*config.distribution),
        recorder_(dist_.process_count(), dist_.var_count) {
    HostTransport* top = &root;
    if (needs_reliable(config)) top = &rel_.emplace(*top, config.reliable);
    if (config.batching.window.us > 0) {
      top = &batch_.emplace(*top, config.batching);
    }

    if (config.workload != nullptr) gen_.emplace(dist_, *config.workload);

    if (config.runtime == EngineRuntime::kParallelSim) {
      // History global order is insertion order; parallel execution makes
      // arrival interleaving thread-dependent, so rebuild it canonically.
      recorder_.use_canonical_order();
    }
    if (!config.record_history) recorder_.use_discard_mode();
    processes_ = make_processes(config.protocol, dist_, recorder_);
    for (auto& proc : processes_) {
      const ProcessId assigned = top->add_endpoint(proc.get());
      PARDSM_CHECK(assigned == proc->id(), "process id mismatch");
      proc->attach(*top);
      if (config.multicast != nullptr) proc->use_multicast(*config.multicast);
    }

    // A client's steps run on its process's owner thread — the
    // simulator's one, the process's shard or its mailbox worker — so
    // each owner gets one histogram and no two threads write one.
    const auto owner_of = [&](std::size_t p) -> std::size_t {
      switch (config.runtime) {
        case EngineRuntime::kSimulator:
          return 0;
        case EngineRuntime::kParallelSim:
          return static_cast<std::size_t>(shard_of.at(p));
        case EngineRuntime::kThreads:
        case EngineRuntime::kSockets:
          break;
      }
      return p;
    };
    if (gen_) {
      std::size_t owners = 0;
      for (std::size_t p = 0; p < processes_.size(); ++p) {
        owners = std::max(owners, owner_of(p) + 1);
      }
      latency_ = std::vector<OwnerLatency>(owners);
    }

    clients_.reserve(processes_.size());
    for (std::size_t p = 0; p < processes_.size(); ++p) {
      if (gen_) {
        clients_.push_back(std::make_unique<Client>(
            *processes_[p], root, *gen_, latency_[owner_of(p)].histogram));
      } else {
        clients_.push_back(std::make_unique<Client>(*processes_[p], root,
                                                    (*config.scripts)[p]));
      }
    }
  }
  /// The fault hooks capture `this`.
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Crash/recover hooks for the fault timeline: a recovered process's
  /// stalled client picks up where it left off.
  [[nodiscard]] ScenarioHooks hooks() {
    ScenarioHooks hooks;
    hooks.on_crash = [this](ProcessId p, TimePoint) {
      processes_[static_cast<std::size_t>(p)]->crash();
    };
    hooks.on_recover = [this](ProcessId p, TimePoint at) {
      processes_[static_cast<std::size_t>(p)]->recover();
      clients_[static_cast<std::size_t>(p)]->resume(at);
    };
    return hooks;
  }

  void start_clients() {
    for (auto& client : clients_) client->start(kTimeZero);
  }

  /// Fold every ledger into the result.  With every channel alive an
  /// unfinished client is a hard error; once the ARQ layer gave a channel
  /// up after max_retransmits some loads legitimately cannot complete —
  /// the run reports them instead of throwing.
  [[nodiscard]] ScenarioRunResult collect(const RootLedger& root) {
    ScenarioRunResult result;
    result.history = recorder_.take_history();
    result.total_traffic = root.stats.total();
    result.per_process_traffic = root.stats.per_process_snapshot();
    result.observed_relevant = root.stats.exposure_sets(dist_.var_count);
    result.finished_at = root.finished_at;
    result.events = root.events;
    result.active_channel_pairs = root.active_channel_pairs;
    result.channel_state_bytes = root.channel_state_bytes;
    result.drops = root.drops;

    result.protocol_stats.reserve(processes_.size());
    result.final_replicas.reserve(processes_.size());
    for (const auto& proc : processes_) {
      result.protocol_stats.push_back(proc->stats());
      // Per-process replica contents at quiescence (P6 compares them
      // across fault scenarios).
      const std::vector<VarId>& held = proc->store().vars();
      std::vector<ReplicaEntry> mine;
      mine.reserve(held.size());
      for (VarId x : held) {
        const Stored& s = proc->store().get(x);
        mine.push_back({x, s.value, s.source});
      }
      result.final_replicas.push_back(std::move(mine));
      const RecoveryStats& r = proc->recovery_stats();
      result.crashes += r.crashes;
      result.resync_messages +=
          r.resync_requests_sent + r.resync_responses_served;
      result.resync_bytes += r.resync_bytes;
      result.resync_values_applied += r.resync_values_applied;
      result.max_recovery_latency =
          std::max(result.max_recovery_latency, proc->max_recovery_latency());
    }

    if (gen_) {
      // Histograms merge element-wise (associative and commutative, so
      // neither the owner order nor the process → owner split can
      // matter), and the shortfall against the generator's schedule
      // becomes the censored mass — an op that arrived but never
      // completed is accounted above every latency bucket, never dropped
      // and never a ~0 sample.
      for (const OwnerLatency& owner : latency_) {
        result.op_latency.merge_from(owner.histogram);
      }
      for (const auto& client : clients_) {
        result.ops_issued += client->issued();
        result.ops_completed += client->completed();
      }
      const std::uint64_t target =
          gen_->ops_per_process() * static_cast<std::uint64_t>(clients_.size());
      PARDSM_CHECK(result.ops_completed <= target,
                   "workload completed more ops than were generated");
      result.ops_censored = target - result.ops_completed;
      result.op_latency.add_censored(result.ops_censored);
    }

    result.used_reliable_transport = rel_.has_value();
    if (rel_) {
      result.retransmissions = rel_->retransmissions();
      result.dead_channels = rel_->dead_channels();
      result.drops.dead_channel = rel_->dead_channel_drops();
    }
    if (batch_) result.batching = batch_->stats();
    result.unfinished_clients = static_cast<std::size_t>(
        std::count_if(clients_.begin(), clients_.end(),
                      [](const auto& c) { return !c->done(); }));
    PARDSM_CHECK(result.unfinished_clients == 0 ||
                     !result.dead_channels.empty(),
                 "run quiesced before a client finished its script — stuck "
                 "protocol, unhealed fault or lost completion");
    return result;
  }

 private:
  const graph::Distribution& dist_;
  std::optional<BatchingTransport> batch_;
  std::optional<ReliableTransport> rel_;
  std::optional<workload::Generator> gen_;
  HistoryRecorder recorder_;
  std::vector<std::unique_ptr<McsProcess>> processes_;
  /// One per owner thread (generated workloads only); clients hold
  /// references, so it is sized once and never grows.
  std::vector<OwnerLatency> latency_;
  std::vector<std::unique_ptr<Client>> clients_;
};

ScenarioRunResult run_simulator(EngineConfig& config) {
  SimOptions options;
  options.seed = config.sim_seed;
  options.channel = config.channel;
  options.latency = std::move(config.latency);
  Simulator sim(std::move(options));
  // Declare m before the network materializes: ensure_network's resize
  // then reserves every process's exposure map, so no round grows one.
  sim.stats().set_var_hint(config.distribution->var_count);
  Stack stack(config, sim);

  // Apply the timeline before any client op is scheduled: events at t<=0
  // take effect immediately, so a scenario that starts lossy is lossy for
  // the very first message.
  const Network& net = sim.ensure_network();
  if (config.scenario != nullptr) config.scenario->apply(sim, stack.hooks());
  stack.start_clients();
  sim.run();
  return stack.collect({sim.stats(), sim.now(), sim.events_fired(),
                        net.drop_counters(), net.fifo_pairs(),
                        net.state_bytes()});
}

ScenarioRunResult run_parallel(EngineConfig& config) {
  const graph::Distribution& dist = *config.distribution;
  ParallelSimOptions options;
  options.seed = config.sim_seed;
  options.channel = config.channel;
  options.latency = std::move(config.latency);
  options.num_threads = config.parallel.num_threads;
  const std::vector<int> shard_of = graph::shard_assignment(
      dist, static_cast<int>(config.parallel.num_threads));
  options.shard_of = shard_of;
  ParallelSimulator sim(std::move(options));
  // Declares m and reserves every process's exposure map.
  sim.stats().set_var_hint(dist.var_count);
  Stack stack(config, sim, shard_of);

  sim.freeze();
  if (config.scenario != nullptr) config.scenario->apply(sim, stack.hooks());
  stack.start_clients();
  sim.run();
  return stack.collect({sim.stats(), sim.now(), sim.events_fired(),
                        sim.drop_counters(), sim.fifo_pairs(),
                        sim.state_bytes()});
}

/// The run body of both wall-clock roots, ThreadRuntime and
/// SocketTransport.  A scenario's structural events fire on the root's
/// timeline thread at their time on its clock (1 simulated µs = 1 µs),
/// each holding a pending unit until it has fired, so quiescence waits
/// for the last one — a crashed process's client is stalled until its
/// recovery.  Probability windows are resolved per message and need no
/// entry: a window that outlasts the traffic does not delay the end.
ScenarioRunResult run_wall_clock(const EngineConfig& config,
                                 WallClockRoot& root) {
  PARDSM_CHECK(config.latency == nullptr,
               "latency models require the simulator runtime");
  // Declares m and reserves the exposure maps before any worker runs (the
  // sockets root then rejects frames naming a variable outside [0, m)).
  root.stats().set_var_hint(config.distribution->var_count);
  Stack stack(config, root);
  // Declared after everything the workers and the timeline touch, so they
  // are joined first on every exit path.
  const HaltOnExit halt_on_exit(root);

  if (config.scenario != nullptr) {
    // A crash or recovery is posted from the timeline to its victim's
    // worker, in timeline order: no delivery to the victim can fall
    // between its down flag and its process's crash() or recover() (one
    // that did would be acked by the ARQ layer and then dropped).
    config.scenario->apply(
        root.faults(), kTimeZero, stack.hooks(),
        [&root](TimePoint at, ProcessId victim, std::function<void()> fn) {
          if (victim != kNoProcess) {
            fn = [&root, victim, fn = std::move(fn)] { root.post(victim, fn); };
          }
          root.at_time(at, std::move(fn));
        });
  }
  root.start();
  stack.start_clients();
  const bool quiet = root.await_quiescence(kQuiesceTimeout);
  PARDSM_CHECK(quiet, "wall-clock runtime failed to quiesce — protocol stuck?");
  const TimePoint finished_at = root.now();
  root.stop();
  return stack.collect({root.stats(), finished_at, 0, root.drops()});
}

}  // namespace

ScenarioRunResult run(EngineConfig config) {
  PARDSM_CHECK(config.distribution != nullptr, "run: distribution required");
  PARDSM_CHECK((config.scripts != nullptr) != (config.workload != nullptr),
               "run: exactly one of scripts / workload required");
  if (config.scripts != nullptr) {
    PARDSM_CHECK(
        config.scripts->size() == config.distribution->process_count(),
        "one script per process required");
  }
  if (config.workload != nullptr && config.workload->arrival_rate > 0.0) {
    // Open-loop arrival control is a simulated-time construct; on the
    // wall-clock runtimes the client loop is closed by design, so an
    // open-loop spec there would silently measure something else.
    PARDSM_CHECK(config.runtime == EngineRuntime::kSimulator ||
                     config.runtime == EngineRuntime::kParallelSim,
                 "open-loop arrival rates require a simulator runtime");
  }
  switch (config.runtime) {
    case EngineRuntime::kThreads: {
      ThreadRuntime rt(config.channel, config.sim_seed);
      return run_wall_clock(config, rt);
    }
    case EngineRuntime::kParallelSim:
      return run_parallel(config);
    case EngineRuntime::kSockets: {
      PARDSM_CHECK(config.sockets.local_ids.empty(),
                   "EngineRuntime::kSockets runs all-local — multi-process "
                   "deployments are driven by pardsm_node");
      SocketOptions options = config.sockets;
      options.total_processes = config.distribution->process_count();
      SocketTransport st(std::move(options), config.channel, config.sim_seed);
      ScenarioRunResult result = run_wall_clock(config, st);
      result.socket_counters = st.counters();
      return result;
    }
    case EngineRuntime::kSimulator:
      break;
  }
  return run_simulator(config);
}

}  // namespace pardsm::mcs
