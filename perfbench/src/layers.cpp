#include "layers.h"

#include <algorithm>

#include "harness.h"
#include "simnet/body.h"
#include "simnet/event_queue.h"
#include "simnet/stats.h"
#include "simnet/wire.h"

namespace perfbench {

using namespace pardsm;

namespace {

constexpr int kBatches = 7;

/// Keeps replay results observable so the timed loops are not folded away.
volatile std::uint64_t g_sink = 0;

/// Median over kBatches of (ns for one batch / iters).  batch() runs
/// `iters` iterations and returns a value folded into the sink.
template <typename F>
double ns_per_iter(std::uint64_t iters, F&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    g_sink = g_sink + batch(iters);
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(iters));
  }
  return median(std::move(ns));
}

/// Messages with the sampled metadata and no body (the replays below
/// touch only routing and accounting fields).
std::vector<Message> messages_of(
    const std::vector<TracingMulticast::Sample>& sample) {
  std::vector<Message> out;
  for (const auto& s : sample) {
    Message m;
    m.from = s.from;
    m.to = s.to;
    m.meta = s.meta;
    out.push_back(std::move(m));
  }
  if (out.empty()) {  // a workload that sent nothing: one empty message
    Message m;
    m.from = 0;
    m.to = 1;
    out.push_back(std::move(m));
  }
  return out;
}

struct ReplayBody final : MessageBody {
  std::uint64_t value = 0;
};

}  // namespace

double generator_op_ns(const graph::Distribution& dist,
                       const workload::Spec& spec,
                       std::uint64_t ops_per_process) {
  const workload::Generator gen(dist, spec);
  const std::uint64_t procs = dist.process_count();
  const std::uint64_t per_proc =
      std::max<std::uint64_t>(1, std::min(ops_per_process,
                                          (1u << 18) / std::max<std::uint64_t>(procs, 1)));
  return ns_per_iter(procs * per_proc, [&](std::uint64_t) {
    std::uint64_t acc = 0;
    for (std::uint64_t p = 0; p < procs; ++p) {
      for (std::uint64_t k = 0; k < per_proc; ++k) {
        const workload::OpSpec op = gen.op(static_cast<ProcessId>(p), k);
        acc += static_cast<std::uint64_t>(op.var) ^
               static_cast<std::uint64_t>(op.value);
      }
    }
    return acc;
  });
}

double event_queue_push_pop_ns(
    std::size_t depth, const std::vector<TracingMulticast::Sample>& sample) {
  const std::vector<Message> msgs = messages_of(sample);
  EventQueue q;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule_deliver(TimePoint{static_cast<std::int64_t>(i % 1000)},
                       msgs[i % msgs.size()]);
  }
  std::uint64_t i = 0;
  return ns_per_iter(1u << 18, [&](std::uint64_t iters) {
    std::uint64_t acc = 0;
    for (std::uint64_t n = 0; n < iters; ++n, ++i) {
      Event& e = q.pop_ref();
      const TimePoint when = e.when;
      acc += e.seq;
      q.release(e);
      // One simulated hop later, jittered so the heap keeps its shape.
      q.schedule_deliver(
          when + Duration{1000 + static_cast<std::int64_t>((i * 7919) % 1000)},
          msgs[i % msgs.size()]);
    }
    return acc;
  });
}

double network_plan_ns(std::size_t procs, const ChannelOptions& channel,
                       std::uint64_t seed,
                       const std::vector<TracingMulticast::Sample>& sample) {
  const std::vector<Message> msgs = messages_of(sample);
  Network net(procs, channel, nullptr, Rng(seed));
  std::int64_t now = 0;
  return ns_per_iter(1u << 18, [&](std::uint64_t iters) {
    std::uint64_t acc = 0;
    for (std::uint64_t n = 0; n < iters; ++n) {
      const Message& m = msgs[n % msgs.size()];
      const DeliveryPlan plan = net.plan_delivery(m.from, m.to, TimePoint{++now});
      acc += plan.size();
    }
    return acc;
  });
}

double stats_send_deliver_ns(
    std::size_t procs, std::size_t vars,
    const std::vector<TracingMulticast::Sample>& sample) {
  const std::vector<Message> msgs = messages_of(sample);
  NetworkStats stats(procs);
  stats.set_var_hint(vars);
  return ns_per_iter(1u << 18, [&](std::uint64_t iters) {
    for (std::uint64_t n = 0; n < iters; ++n) {
      const Message& m = msgs[n % msgs.size()];
      stats.on_send(m);
      stats.on_deliver(m);
    }
    return stats.messages_delivered();
  });
}

double body_create_release_ns(bool concurrent) {
  BodyPool<ReplayBody> pool(concurrent);
  return ns_per_iter(1u << 20, [&](std::uint64_t iters) {
    std::uint64_t acc = 0;
    for (std::uint64_t n = 0; n < iters; ++n) {
      ReplayBody* b = pool.create();
      b->value = n;
      BodyRef ref = BodyRef::adopt(b);
      acc += ref.get() != nullptr ? 1 : 0;
    }
    return acc;
  });
}

WireCost wire_cost(const std::vector<TracingMulticast::Sample>& sample) {
  WireCost cost;
  if (sample.empty()) return cost;
  BodyArena arena(/*concurrent=*/false);
  std::vector<BodyRef> bodies;
  std::uint64_t bytes = 0;
  for (const auto& s : sample) {
    WireReader r(s.body);
    bodies.push_back(wire::decode_body(r, arena));
    bytes += s.body.size();
  }
  const double kb = static_cast<double>(bytes) / 1024.0;
  const std::uint64_t n = bodies.size();
  cost.encode_ns_per_kb =
      ns_per_iter(n, [&](std::uint64_t) {
        std::uint64_t acc = 0;
        for (const BodyRef& b : bodies) {
          WireWriter w;
          wire::encode_body(w, *b);
          acc += w.size();
        }
        return acc;
      }) * static_cast<double>(n) / kb;
  cost.decode_ns_per_kb =
      ns_per_iter(n, [&](std::uint64_t) {
        std::uint64_t acc = 0;
        for (const auto& s : sample) {
          WireReader r(s.body);
          BodyRef b = wire::decode_body(r, arena);
          acc += b.get() != nullptr ? 1 : 0;
        }
        return acc;
      }) * static_cast<double>(n) / kb;
  return cost;
}

double histogram_record_ns(const LatencyHistogram& source) {
  std::vector<std::uint64_t> values(1024, 0);
  if (source.samples() > 0) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto q = source.quantile((static_cast<double>(i) + 0.5) /
                                     static_cast<double>(values.size()));
      values[i] = q.censored ? source.max_us()
                             : static_cast<std::uint64_t>(q.us);
    }
    // Replay in a scrambled order, as ops complete, not sorted.
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::swap(values[i], values[(i * 7919) % values.size()]);
    }
  }
  LatencyHistogram h;
  return ns_per_iter(1u << 20, [&](std::uint64_t iters) {
    for (std::uint64_t n = 0; n < iters; ++n) h.record(values[n & 1023]);
    return h.samples();
  });
}

double stats_init_ms(std::size_t procs, std::size_t vars, unsigned copies) {
  // Construction only: each batch builds sets of `copies` tables until it
  // has spent 1 ms building, and frees them outside the timed region.
  std::vector<double> ms;
  for (int b = 0; b < 5; ++b) {
    std::vector<std::unique_ptr<NetworkStats>> built;
    double s = 0;
    std::uint64_t sets = 0;
    do {
      const auto t0 = Clock::now();
      for (unsigned c = 0; c < copies; ++c) {
        built.push_back(std::make_unique<NetworkStats>(procs));
        built.back()->set_var_hint(vars);
      }
      s += seconds_since(t0);
      ++sets;
    } while (s < 1e-3);
    ms.push_back(s * 1e3 / static_cast<double>(sets));
  }
  return median(std::move(ms));
}

}  // namespace perfbench
