// Per-layer replays for the traced run: each times calls into one layer's
// public functions, fed with the workload's own inputs (its distribution,
// its op stream, the messages sampled at its multicast seam).  Every
// replay reports the median of several timed batches.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/latency_histogram.h"
#include "simnet/network.h"
#include "tracing.h"
#include "workload/generator.h"

namespace perfbench {

/// Generator::op over the run's own (p, k) stream, ns per op.
[[nodiscard]] double generator_op_ns(const pardsm::graph::Distribution& dist,
                                     const pardsm::workload::Spec& spec,
                                     std::uint64_t ops_per_process);

/// schedule_deliver + pop_ref/release at a steady pending depth, ns per
/// push/pop pair.
[[nodiscard]] double event_queue_push_pop_ns(
    std::size_t depth, const std::vector<TracingMulticast::Sample>& sample);

/// Network::plan_delivery over the sampled (from, to) pairs on the
/// workload's own channel options, ns per plan.
[[nodiscard]] double network_plan_ns(
    std::size_t procs, const pardsm::ChannelOptions& channel,
    std::uint64_t seed, const std::vector<TracingMulticast::Sample>& sample);

/// Single-threaded NetworkStats::on_send + on_deliver, ns per message.
[[nodiscard]] double stats_send_deliver_ns(
    std::size_t procs, std::size_t vars,
    const std::vector<TracingMulticast::Sample>& sample);

/// BodyPool create + last release, on a serial or concurrent pool, ns per
/// body.
[[nodiscard]] double body_create_release_ns(bool concurrent);

struct WireCost {
  double encode_ns_per_kb = 0;
  double decode_ns_per_kb = 0;
};
/// wire::encode_body / decode_body over the sampled bodies.
[[nodiscard]] WireCost wire_cost(
    const std::vector<TracingMulticast::Sample>& sample);

/// LatencyHistogram::record over values shaped like the run's own latency
/// distribution, ns per record.
[[nodiscard]] double histogram_record_ns(
    const pardsm::LatencyHistogram& source);

/// Construct `copies` NetworkStats for n processes pre-sized to m
/// variables (the engine's set-up share), ms.
[[nodiscard]] double stats_init_ms(std::size_t procs, std::size_t vars,
                                   unsigned copies);

}  // namespace perfbench
