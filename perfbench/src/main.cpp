// perfbench — the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--ops K] [--trace-out PATH]
//   perfbench --selftest
//
// Untraced (--trace 0): alternates measured rounds (ops_per_process ops
// per process) with set-up samples (short engine runs timed up to their
// first send) for S seconds, checks every round's outputs, and prints the
// end-to-end metrics.  Traced (--trace 1): alternates untraced rounds with
// rounds traced through the multicast seam, times the phases and the
// per-layer replays, writes the spans to PATH and prints the per-layer
// metrics.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check prints correct=false with no metrics and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "sharegraph/share_graph.h"
#include "sharegraph/sharding.h"
#include "simnet/stats.h"
#include "tracing.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using namespace pardsm;
using mcs::EngineRuntime;
using mcs::ScenarioRunResult;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::uint64_t ops = 0;  ///< 0 = the workload's round size
  std::string trace_out;
  bool selftest = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Ops per process in a set-up sample: enough that some op sends a plan
/// (which marks the end of set-up) on every workload.
constexpr std::uint64_t kSetupOps = 4;

/// Rounds measured so far, plus the bookkeeping every mode needs.
struct Rounds {
  std::vector<double> setup_s;
  std::vector<double> setup_allocs;
  std::vector<double> run_s;
  std::vector<double> run_allocs;
  std::vector<double> cpu_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Bench {
 public:
  Bench(const Workload& w, Options o)
      : w_(w), o_(std::move(o)), ops_(o_.ops > 0 ? o_.ops : w.ops_per_process) {
    const auto t0 = Clock::now();
    in_ = make_inputs(w_, o_.seed);
    in_.spec.ops_per_process = ops_;
    spans_.add("input.distribution", "", t0, seconds_since(t0));
    if (w_.protocol == mcs::ProtocolKind::kCausalPartialAdHoc) {
      relevance_ = mcs::StaticRelevance::analyze(in_.dist);
    }
  }

  int run() {
    if (w_.runtime == EngineRuntime::kParallelSim) check_against_sequential();
    if (o_.trace == 0) {
      measure_untraced();
    } else {
      measure_traced();
    }
    return report();
  }

 private:
  [[nodiscard]] std::uint64_t due() const { return ops_ * w_.procs; }

  /// One set-up sample: an engine run of kSetupOps ops per process, timed
  /// up to its first submit at the multicast seam.  Returns the sample
  /// run's whole wall time.
  double setup_sample(Rounds& r, bool sequential = false) {
    FirstSubmit probe;
    const std::uint64_t a0 = allocs_so_far();
    const auto t0 = Clock::now();
    const ScenarioRunResult s =
        run_once(w_, in_, kSetupOps, &probe, sequential);
    const double whole = seconds_since(t0);
    r.setup_s.push_back(probe.seconds_after(t0, whole));
    r.setup_allocs.push_back(static_cast<double>(allocs_so_far() - a0));
    check_round(w_, in_, s, kSetupOps, relevance_.get(), failures_);
    return whole;
  }

  /// Set-up samples after a round: enough to spend about a fifth of the
  /// round's time on them (1 to 16), so a sub-millisecond set-up still
  /// gathers over a hundred samples per run.
  void setup_samples(Rounds& r) {
    const double whole = setup_sample(r);
    const double want = 0.2 * r.run_s.back() / std::max(whole, 1e-6);
    const int extra = static_cast<int>(std::min(want, 16.0)) - 1;
    for (int i = 0; i < extra && failures_.empty(); ++i) setup_sample(r);
  }

  /// One measured round; returns its result after the output checks.
  ScenarioRunResult round(Rounds& r, mcs::MulticastService* tracer) {
    const std::uint64_t a0 = allocs_so_far();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    ScenarioRunResult res = run_once(w_, in_, ops_, tracer);
    r.run_s.push_back(seconds_since(t0));
    r.cpu_s.push_back(cpu_seconds() - c0);
    r.run_allocs.push_back(static_cast<double>(allocs_so_far() - a0));
    r.attempted += due();
    r.failed += res.ops_censored;
    check_round(w_, in_, res, ops_, relevance_.get(), failures_);
    const Counts c = counts_of(res);
    if (!reference_) {
      reference_ = c;
    } else if (on_simulator(w_) && c != *reference_) {
      failures_.push_back("simulator counts differ between rounds of one "
                          "seed:\n  " + describe(*reference_) + "\n  " +
                          describe(c));
    }
    return res;
  }

  [[nodiscard]] bool keep_going(const Rounds& r, Clock::time_point start,
                                std::size_t min_rounds) const {
    return failures_.empty() &&
           (r.run_s.size() < min_rounds || seconds_since(start) < o_.seconds);
  }

  /// Ops per second of the fastest-decile round, set-up (the median
  /// sample) excluded.  Interference from the rest of a shared host only
  /// ever slows a round, so the fast end of the rounds repeats from run to
  /// run where their median does not (min-of-N, made robust to a single
  /// outlier).  The spread over the rounds goes to stderr.
  [[nodiscard]] double throughput(const Rounds& r) const {
    const double setup = median(r.setup_s);
    std::vector<double> rates;
    for (double s : r.run_s) {
      rates.push_back(static_cast<double>(due()) / std::max(s - setup, 1e-9));
    }
    std::cerr << "perfbench: " << rates.size() << " rounds of " << due()
              << " ops, " << r.setup_s.size() << " set-up samples; ops/s q1 "
              << quantile(rates, 0.25) << " median " << quantile(rates, 0.5)
              << " p90 " << quantile(rates, 0.9) << "\n";
    return quantile(std::move(rates), 0.9);
  }

  void measure_untraced() {
    const auto start = Clock::now();
    ScenarioRunResult last;
    while (keep_going(rounds_, start, 3)) {
      last = round(rounds_, nullptr);
      setup_samples(rounds_);
    }
    if (!failures_.empty()) return;
    const double setup_allocs = median(rounds_.setup_allocs);
    std::vector<double> allocs;
    for (double a : rounds_.run_allocs) {
      allocs.push_back(ratio(a - setup_allocs,
                             static_cast<double>(due() - kSetupOps * w_.procs)));
    }
    const ProcessTraffic& t = last.total_traffic;
    const double ops = static_cast<double>(last.ops_completed);
    metrics_ = {
        {"throughput_ops_s", throughput(rounds_), "ops/s"},
        {"setup_s", median(rounds_.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"allocs_per_op", median(std::move(allocs)), "alloc/op"},
        {"msgs_per_op", ratio(static_cast<double>(t.msgs_sent), ops), "msg/op"},
        {"wire_bytes_per_op", ratio(static_cast<double>(t.wire_bytes_sent()), ops),
         "B/op"},
        {"ctrl_bytes_per_msg",
         ratio(static_cast<double>(t.control_bytes_sent),
               static_cast<double>(t.msgs_sent)),
         "B/msg"},
        {"exposure_ratio", exposure_ratio(in_.dist, last), "ratio"},
    };
  }

  void measure_traced() {
    const std::string setup = "mcs.engine.setup";
    // Phase spans around the calls the engine makes during set-up, each
    // replayed on this workload's input (so they are root spans, not
    // children of the set-up span).
    double build_ms = 0, relevance_ms = 0, assign_ms = 0, gen_ms = 0,
           stats_ms = 0;
    {
      const auto t0 = Clock::now();
      build_ms = median_ms(5, [&] { graph::ShareGraph g(in_.dist); });
      spans_.add("sharegraph.share_graph.build", "", t0, build_ms * 1e-3);
    }
    const bool adhoc = relevance_ != nullptr;
    const bool parallel = w_.runtime == EngineRuntime::kParallelSim;
    if (adhoc) {
      // Only the ad-hoc protocol runs the analysis (about 8x per doubling
      // of n, minutes at n=1024); elsewhere the engine spends 0 ms in it.
      const auto t0 = Clock::now();
      relevance_ms =
          median_ms(5, [&] { (void)mcs::StaticRelevance::analyze(in_.dist); });
      spans_.add("sharegraph.hoops.relevance", "", t0, relevance_ms * 1e-3);
    }
    {
      const auto t0 = Clock::now();
      assign_ms = median_ms(5, [&] {
        (void)graph::shard_assignment(in_.dist, static_cast<int>(std::max(w_.threads, 4u)));
      });
      spans_.add("sharegraph.sharding.assign", "", t0, assign_ms * 1e-3);
    }
    {
      const auto t0 = Clock::now();
      gen_ms = median_ms(5, [&] { workload::Generator g(in_.dist, in_.spec); });
      spans_.add("workload.generator.init", "", t0, gen_ms * 1e-3);
    }
    {
      // The parallel root pre-sizes one exposure table per shard plus the
      // merged one.
      const unsigned copies = parallel ? w_.threads + 1 : 1;
      const auto t0 = Clock::now();
      stats_ms = stats_init_ms(w_.procs, w_.vars, copies);
      spans_.add("simnet.stats.init", "", t0, stats_ms * 1e-3);
    }

    // Untraced and traced rounds alternate, so both see the same machine.
    Rounds plain, traced;
    ScenarioRunResult last_traced;
    std::unique_ptr<TracingMulticast> tracer;
    std::uint64_t peak_threads = 0;
    const auto start = Clock::now();
    while (keep_going(traced, start, 3)) {
      const ScenarioRunResult p = round(plain, nullptr);
      setup_samples(plain);
      tracer = std::make_unique<TracingMulticast>(8, 2048);
      ThreadPeak threads;
      last_traced = round(traced, tracer.get());
      peak_threads = std::max(peak_threads, threads.peak());
      if (on_simulator(w_) && counts_of(p) != counts_of(last_traced)) {
        failures_.push_back("traced run changed the deterministic counts:\n  " +
                            describe(counts_of(p)) + "\n  " +
                            describe(counts_of(last_traced)));
      }
    }
    if (!failures_.empty()) return;

    const double setup_s = median(plain.setup_s);
    const auto setup_start = Clock::now();
    spans_.add(setup, "", setup_start, setup_s);
    const double run_s = median(traced.run_s) - setup_s;
    const double submit_s = static_cast<double>(tracer->submit_ns()) * 1e-9;
    spans_.add("mcs.engine.run", "", Clock::now(), run_s);
    spans_.add("mcs.protocol.submit", "mcs.engine.run", Clock::now(), submit_s,
               tracer->plans());

    const ScenarioRunResult& r = last_traced;
    const double ops = static_cast<double>(r.ops_completed);
    const std::vector<TracingMulticast::Sample> sample = tracer->samples();

    std::uint64_t local = 0, remote = 0, applied = 0, buffered = 0, depth = 0;
    for (const mcs::ProtocolStats& s : r.protocol_stats) {
      local += s.local_reads;
      remote += s.remote_reads;
      applied += s.updates_applied;
      buffered += s.updates_buffered;
      depth = std::max(depth, s.max_buffer_depth);
    }
    const ProcessTraffic& t = r.total_traffic;
    // Pending events at steady state: one arrival per client plus the
    // messages in flight over a 1 ms hop.
    std::size_t pending = w_.procs;
    if (on_simulator(w_) && r.finished_at.us > 0) {
      pending += static_cast<std::size_t>(static_cast<double>(t.msgs_received) *
                                          1000.0 /
                                          static_cast<double>(r.finished_at.us));
    }
    ChannelOptions channel;
    channel.drop_probability = w_.loss;
    const WireCost wire = wire_cost(sample);
    const BatchingStats& b = r.batching;
    const SocketCounters& sc = r.socket_counters;
    double speedup = 1.0;
    if (parallel) {
      Rounds seq;
      for (int i = 0; i < 3; ++i) (void)setup_sample(seq, /*sequential=*/true);
      for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        (void)run_once(w_, in_, ops_, nullptr, /*sequential=*/true);
        seq.run_s.push_back(seconds_since(t0));
      }
      speedup = ratio(throughput(plain), throughput(seq));
    }
    double cpu = 0, wall = 0;
    for (std::size_t i = 0; i < plain.run_s.size(); ++i) {
      cpu += plain.cpu_s[i];
      wall += plain.run_s[i];
    }
    // Tracing overhead: traced over untraced wall time of the round pairs,
    // the first (cold) pair left out when there are others.
    std::vector<double> slowdown;
    for (std::size_t i = plain.run_s.size() > 1 ? 1 : 0; i < plain.run_s.size(); ++i) {
      slowdown.push_back(traced.run_s[i] / plain.run_s[i]);
    }
    // Op latency is simulated time on the simulator roots, where every
    // workload here is wait-free (0 by design), and wall time on sockets.
    // It is reported here rather than as a metric for that reason.
    const auto p50 = r.op_latency.quantile(0.50);
    const auto p99 = r.op_latency.quantile(0.99);
    std::cerr << "perfbench: op latency over " << r.op_latency.samples()
              << " ops of the last traced round: p50 " << p50.us << " us, p99 "
              << p99.us << " us, max " << r.op_latency.max_us() << " us\n";

    metrics_ = {
        {"workload.generator.op_ns", generator_op_ns(in_.dist, in_.spec, ops_), "ns"},
        {"workload.generator.init_ms", gen_ms, "ms"},
        {"sharegraph.share_graph.build_ms", build_ms, "ms"},
        {"sharegraph.hoops.relevance_setup_frac", relevance_ms * 1e-3 / setup_s,
         "ratio"},
        {"sharegraph.sharding.assign_ms", assign_ms, "ms"},
        {"mcs.engine.setup_allocs", median(plain.setup_allocs), "count"},
        {"mcs.engine.run_self_ns_per_op",
         spans_.self_s("mcs.engine.run") * 1e9 / ops, "ns/op"},
        {"mcs.protocol.plans_per_op", static_cast<double>(tracer->plans()) / ops,
         "plan/op"},
        {"mcs.protocol.dests_per_plan",
         ratio(static_cast<double>(tracer->dests()),
               static_cast<double>(tracer->plans())),
         "msg/plan"},
        {"mcs.protocol.submit_ns_per_op", submit_s * 1e9 / ops, "ns/op"},
        {"mcs.protocol.remote_read_frac",
         ratio(static_cast<double>(remote), static_cast<double>(local + remote)),
         "ratio"},
        // updates_buffered counts every failed readiness check of a
        // buffered update, so this exceeds 1 when updates wait long.
        {"mcs.protocol.updates_buffered_per_applied",
         ratio(static_cast<double>(buffered), static_cast<double>(applied)),
         "ratio"},
        {"mcs.protocol.max_buffer_depth", static_cast<double>(depth), "count"},
        {"simnet.event_queue.events_per_op", static_cast<double>(r.events) / ops,
         "event/op"},
        {"simnet.event_queue.push_pop_ns", event_queue_push_pop_ns(pending, sample),
         "ns"},
        {"simnet.network.deliveries_per_op",
         static_cast<double>(t.msgs_received) / ops, "msg/op"},
        {"simnet.network.drops_per_op", static_cast<double>(r.drops.total()) / ops,
         "msg/op"},
        {"simnet.network.plan_ns",
         network_plan_ns(w_.procs, channel, in_.sim_seed, sample), "ns"},
        {"simnet.network.active_pairs",
         static_cast<double>(r.active_channel_pairs), "count"},
        {"simnet.network.channel_state_kb",
         static_cast<double>(r.channel_state_bytes) / 1024.0, "KB"},
        {"simnet.stats.on_send_deliver_ns",
         stats_send_deliver_ns(w_.procs, w_.vars, sample), "ns"},
        {"simnet.stats.init_ms", stats_ms, "ms"},
        {"simnet.body.create_release_ns",
         body_create_release_ns(w_.runtime != EngineRuntime::kSimulator), "ns"},
        {"simnet.batching.msgs_per_frame",
         ratio(static_cast<double>(b.messages_batched),
               static_cast<double>(b.frames_sent)),
         "msg/frame"},
        {"simnet.batching.singleton_flush_frac",
         ratio(static_cast<double>(b.singleton_flushes),
               static_cast<double>(b.frames_sent + b.singleton_flushes)),
         "ratio"},
        {"simnet.reliable.retx_per_op",
         static_cast<double>(r.retransmissions) / ops, "msg/op"},
        {"simnet.reliable.retx_per_drop",
         ratio(static_cast<double>(r.retransmissions),
               static_cast<double>(r.drops.total())),
         "ratio"},
        {"simnet.wire.encode_ns_per_kb", wire.encode_ns_per_kb, "ns/KB"},
        {"simnet.wire.decode_ns_per_kb", wire.decode_ns_per_kb, "ns/KB"},
        {"simnet.socket_transport.frames_per_op",
         static_cast<double>(sc.frames_sent) / ops, "frame/op"},
        {"simnet.socket_transport.bytes_per_op",
         static_cast<double>(sc.bytes_sent) / ops, "B/op"},
        {"simnet.socket_transport.heartbeats_per_s",
         ratio(static_cast<double>(sc.heartbeats_sent), traced.run_s.back()),
         "1/s"},
        {"simnet.socket_transport.threads", static_cast<double>(peak_threads),
         "count"},
        {"simnet.parallel_sim.cpu_per_wall", ratio(cpu, wall), "ratio"},
        {"simnet.parallel_sim.speedup_vs_seq", speedup, "ratio"},
        {"simnet.latency_histogram.record_ns", histogram_record_ns(r.op_latency),
         "ns"},
        {"failed_ops_frac",
         ratio(static_cast<double>(traced.failed + plain.failed),
               static_cast<double>(traced.attempted + plain.attempted)),
         "ratio"},
        {"trace.overhead_frac", median(std::move(slowdown)) - 1.0, "ratio"},
    };
    rounds_.attempted = plain.attempted + traced.attempted;
    rounds_.failed = plain.failed + traced.failed;
    if (!o_.trace_out.empty() &&
        !spans_.write(o_.trace_out, w_.name, o_.seed)) {
      std::cerr << "perfbench: cannot write " << o_.trace_out << "\n";
    }
  }

  /// The parallel root must send the same messages and bytes and fire the
  /// same events as the sequential root on the same input, and end in the
  /// same replicas up to same-instant ties: when a process's own write and
  /// a delivered update land on one instant, the parallel root's canonical
  /// order runs the delivery first (the own write wins), the sequential
  /// root runs them in insertion order.  Every differing entry must be
  /// such a tie.
  void check_against_sequential() {
    const ScenarioRunResult seq = run_once(w_, in_, ops_, nullptr, true);
    const ScenarioRunResult par = run_once(w_, in_, ops_);
    const ProcessTraffic& a = seq.total_traffic;
    const ProcessTraffic& b = par.total_traffic;
    bool same = a.msgs_sent == b.msgs_sent &&
                a.msgs_received == b.msgs_received &&
                a.wire_bytes_sent() == b.wire_bytes_sent() &&
                a.control_bytes_sent == b.control_bytes_sent &&
                seq.events == par.events &&
                seq.final_replicas.size() == par.final_replicas.size();
    std::size_t ties = 0;
    for (std::size_t p = 0; same && p < seq.final_replicas.size(); ++p) {
      const auto& s = seq.final_replicas[p];
      const auto& q = par.final_replicas[p];
      same = s.size() == q.size();
      for (std::size_t i = 0; same && i < s.size(); ++i) {
        if (s[i] == q[i]) continue;
        const auto self = static_cast<ProcessId>(p);
        same = s[i].x == q[i].x && q[i].source.writer == self &&
               s[i].source.writer != self;
        ++ties;
      }
    }
    if (!same) {
      failures_.push_back(
          "parallel root differs from the sequential root:\n  seq " +
          describe(counts_of(seq)) + "\n  par " + describe(counts_of(par)));
    }
    std::cerr << "perfbench: parallel root matches the sequential root ("
              << ties << " replica entries resolved by a same-instant tie)\n";
  }

  int report() {
    const bool ok = failures_.empty();
    for (const std::string& f : failures_) std::cerr << "CHECK FAILED: " << f << "\n";
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\"correct\": " << (ok ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(rounds_.attempted, 1)
       << ", \"failed\": " << rounds_.failed << ", \"metrics\": {";
    if (ok) {
      for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
        if (std::isfinite(m.value)) {
          os << m.value;
        } else {
          os << "null";
        }
        os << ", \"unit\": \"" << m.unit << "\"}";
      }
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return ok ? 0 : 1;
  }

  const Workload& w_;
  Options o_;
  std::uint64_t ops_;
  Inputs in_;
  std::shared_ptr<const mcs::StaticRelevance> relevance_;
  SpanLog spans_;
  Rounds rounds_;
  std::optional<Counts> reference_;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// Simulator counts repeat exactly for a fixed seed and change for another.
int selftest() {
  int bad = 0;
  for (const Workload& w : all_workloads()) {
    if (!on_simulator(w)) continue;
    const std::uint64_t ops = std::max<std::uint64_t>(4, w.ops_per_process / 50);
    const Counts a = counts_of(run_once(w, make_inputs(w, 1), ops));
    const Counts again = counts_of(run_once(w, make_inputs(w, 1), ops));
    const Counts other = counts_of(run_once(w, make_inputs(w, 2), ops));
    const bool repeats = a == again;
    const bool moves = a != other;
    std::cout << w.name << ": seed 1 repeats " << (repeats ? "yes" : "NO")
              << ", seed 2 differs " << (moves ? "yes" : "NO") << "\n  "
              << describe(a) << "\n";
    if (!repeats || !moves) ++bad;
  }
  std::cout << (bad == 0 ? "selftest ok" : "selftest FAILED") << std::endl;
  return bad == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--ops K] [--trace-out PATH]\n"
               "       perfbench --selftest\nworkloads:";
  for (const Workload& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value());
      } else if (arg == "--ops") {
        o.ops = std::stoull(value());
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else if (arg == "--selftest") {
        o.selftest = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (o.selftest) return selftest();
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) return usage("unknown workload");
  if (o.trace != 0 && o.trace != 1) return usage("--trace takes 0 or 1");
  if (o.ops != 0 && o.ops <= kSetupOps) return usage("--ops must exceed 4");
  try {
    Bench bench(*w, o);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
