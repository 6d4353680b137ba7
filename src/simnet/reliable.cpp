#include "simnet/reliable.h"

#include <algorithm>
#include <deque>

#include "simnet/check.h"
#include "simnet/rng.h"
#include "simnet/wire.h"

namespace pardsm {

namespace {

/// Payload-bearing frame.
struct DataFrame final : MessageBody {
  std::uint64_t seq = 0;  ///< per (sender, receiver) sequence, 1-based
  BodyRef payload;
  MessageMeta payload_meta;
  KindId wrapped_kind;  ///< "ARQ:"+kind, resolved once per frame so
                        ///< (re)transmissions never touch the table lock

  /// Pool recycle hook: release the payload now (not when the slot is
  /// reused); the meta's small-buffer storage keeps its capacity.  The
  /// remaining fields are assigned at both creation sites (send_reliably
  /// and the wire decoder) before the frame escapes.
  // pardsm-lint: overwritten-by-creator(seq, payload_meta, wrapped_kind)
  void reset() { payload.reset(); }

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kArqData;
  }
  void wire_encode(WireWriter& w) const override {
    w.u64(seq);
    wire::encode_meta(w, payload_meta);
    wire::encode_body(w, *payload);
  }
};

/// Acknowledgement: cumulative per directed pair.
struct AckFrame final : MessageBody {
  std::uint64_t cumulative = 0;  ///< all seq <= cumulative received

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kArqAck;
  }
  void wire_encode(WireWriter& w) const override { w.u64(cumulative); }
};

const wire::BodyRegistrar arq_data_codec(
    wire::kArqData, [](WireReader& r, BodyArena& arena) -> BodyRef {
      DataFrame* f = arena.create<DataFrame>();
      BodyRef owner = BodyRef::adopt(f);  // a rejected frame frees its slot
      f->seq = r.u64();
      f->payload_meta = wire::decode_meta(r);
      f->payload = wire::decode_body(r, arena);
      f->wrapped_kind = arq_wrapped(f->payload_meta.kind);
      return owner;
    });

const wire::BodyRegistrar arq_ack_codec(
    wire::kArqAck, [](WireReader& r, BodyArena& arena) -> BodyRef {
      AckFrame* f = arena.create<AckFrame>();
      f->cumulative = r.u64();
      return BodyRef::adopt(f);
    });

/// Timer tags: the ARQ layer owns the upper bit space so application tags
/// pass through unchanged.
constexpr TimerTag kArqTimerBit = 1ULL << 63;

/// Stream tag of the retransmit-jitter draws (see ReliableOptions::jitter).
constexpr std::uint64_t kJitterStreamTag = 0xA7'0B0F;

/// Cumulative-ack kind, interned once.
const KindId kAckKind("ARQ:ACK");

}  // namespace

/// Per-process shim: the simulator endpoint that hides the ARQ machinery
/// from the real application endpoint.
class ReliableTransport::Shim final : public Endpoint {
 public:
  Shim(ReliableTransport& owner, Endpoint* app, ProcessId self)
      : owner_(owner),
        app_(app),
        self_(self),
        data_pool_(&owner.lower_.arena(self).pool<DataFrame>()),
        ack_pool_(&owner.lower_.arena(self).pool<AckFrame>()) {}

  // ---- sending side -------------------------------------------------------
  void send_app(ProcessId to, BodyRef body, MessageMeta meta) {
    auto& out = outgoing_[to];
    if (out.dead) {
      ++dead_drops_;
      return;
    }
    const std::uint64_t seq = ++out.next_seq;
    DataFrame* frame = data_pool_->create();
    frame->seq = seq;
    frame->payload = std::move(body);
    frame->payload_meta = meta;
    frame->wrapped_kind = arq_wrapped(meta.kind);

    Pending& pending = out.unacked[seq];
    pending.frame = BodyRef::adopt(frame);
    transmit(to, pending.frame);
    if (owner_.adaptive_) {
      if (out.unacked.size() == 1) {
        // First pending frame on this channel: (re)base the schedule.
        out.interval = owner_.options_.retransmit_after;
        out.next_fire = owner_.lower_.now() + jittered(to, out.interval);
        arm_until(out.next_fire);
      }
    } else {
      arm_timer();
    }
  }

  void transmit(ProcessId to, const BodyRef& frame) {
    const auto* f = static_cast<const DataFrame*>(frame.get());
    MessageMeta meta = f->payload_meta;
    meta.kind = f->wrapped_kind;
    meta.control_bytes += 16;  // seq + ack piggyback space
    owner_.lower_.send(self_, to, frame, std::move(meta));
  }

  // ---- receiving side -------------------------------------------------------
  void on_message(const Message& m) override {
    if (const auto* ack = m.try_as<AckFrame>()) {
      auto& out = outgoing_[m.from];
      for (auto it = out.unacked.begin();
           it != out.unacked.end() && it->first <= ack->cumulative;) {
        it = out.unacked.erase(it);
      }
      // Progress resets the backoff: the channel is alive again.
      if (out.unacked.empty()) out.interval = Duration{};
      return;
    }
    const auto* frame = m.try_as<DataFrame>();
    if (frame == nullptr) {
      // Not an ARQ frame (foreign traffic): pass through untouched.
      app_->on_message(m);
      return;
    }
    auto& in = incoming_[m.from];
    if (frame->seq > in.delivered) {
      in.pending.emplace(frame->seq, m.body);
      // Deliver any in-sequence prefix exactly once.
      while (!in.pending.empty() &&
             in.pending.begin()->first == in.delivered + 1) {
        const auto& next = *static_cast<const DataFrame*>(
            in.pending.begin()->second.get());
        Message app_msg;
        app_msg.from = m.from;
        app_msg.to = self_;
        app_msg.body = next.payload;
        app_msg.meta = next.payload_meta;
        app_msg.id = m.id;
        app_msg.send_time = m.send_time;
        app_msg.deliver_time = m.deliver_time;
        ++in.delivered;
        in.pending.erase(in.pending.begin());
        app_->on_message(app_msg);
      }
    }
    // Cumulative ack (also for duplicates — the original ack may be lost).
    AckFrame* ack = ack_pool_->create();
    ack->cumulative = in.delivered;
    MessageMeta ack_meta;
    ack_meta.kind = kAckKind;
    ack_meta.control_bytes = 8;
    owner_.lower_.send(self_, m.from, BodyRef::adopt(ack),
                       std::move(ack_meta));
  }

  void on_timer(TimerTag tag) override {
    if ((tag & kArqTimerBit) == 0) {
      app_->on_timer(tag);
      return;
    }
    if (owner_.adaptive_) {
      on_backoff_timer();
      return;
    }
    timer_armed_ = false;
    bool anything_pending = false;
    for (auto& [to, out] : outgoing_) {
      if (retransmit_all(to, out)) anything_pending = true;
    }
    if (anything_pending) arm_timer();
  }

  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t dead_drops() const { return dead_drops_; }
  [[nodiscard]] const std::vector<ProcessId>& dead_targets() const {
    return dead_targets_;
  }

 private:
  /// An unacked frame plus its retransmit count (acking erases both, so
  /// the counter's lifetime is exactly the frame's).  The frame is never
  /// mutated after construction, so a plain owning ref suffices.
  struct Pending {
    BodyRef frame;  ///< always a DataFrame
    std::uint32_t retries = 0;
  };
  struct Outgoing {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Pending> unacked;
    // Backoff-scheduler state (unused by the legacy fixed-period path).
    Duration interval{};    ///< current retransmit interval
    TimePoint next_fire{};  ///< next scheduled retransmission round
    std::uint64_t jitter_draws = 0;  ///< per-destination draw index
    bool dead = false;
  };
  struct Incoming {
    std::uint64_t delivered = 0;
    std::map<std::uint64_t, BodyRef> pending;  ///< out-of-order DataFrames
  };

  /// Retransmit every pending frame to `to`; returns true if frames remain
  /// pending afterwards (false also when the channel just died).
  bool retransmit_all(ProcessId to, Outgoing& out) {
    for (auto& [seq, pending] : out.unacked) {
      if (++pending.retries > owner_.options_.max_retransmits) {
        give_up(to, out);
        return false;
      }
      ++retransmissions_;
      transmit(to, pending.frame);
    }
    return !out.unacked.empty();
  }

  /// A frame exhausted max_retransmits.
  void give_up(ProcessId to, Outgoing& out) {
    if (owner_.options_.on_exhausted == OnExhausted::kThrow) {
      PARDSM_CHECK(false, "ARQ gave up: frame retransmitted too often");
    }
    dead_drops_ += out.unacked.size();
    out.unacked.clear();
    out.dead = true;
    dead_targets_.push_back(to);
  }

  /// Legacy scheduler: one shared fixed-period timer per process.
  void arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    owner_.lower_.set_timer(self_, owner_.options_.retransmit_after,
                          kArqTimerBit);
  }

  // ---- per-destination backoff scheduler ----------------------------------

  /// Scale `interval` by a deterministic jitter factor in
  /// [1 - jitter, 1 + jitter].  The draw is keyed on logical coordinates
  /// (seed, sender, destination, draw index), so it does not depend on the
  /// interleaving of timers across destinations or processes.
  Duration jittered(ProcessId to, Duration interval) {
    const double j = owner_.options_.jitter;
    if (j <= 0.0) return interval;
    Rng rng = counter_rng(owner_.options_.jitter_seed,
                          static_cast<std::uint64_t>(self_),
                          static_cast<std::uint64_t>(to),
                          outgoing_[to].jitter_draws++, kJitterStreamTag);
    const double factor = 1.0 + j * (2.0 * rng.uniform01() - 1.0);
    const auto us = static_cast<std::int64_t>(
        static_cast<double>(interval.us) * factor);
    return Duration{std::max<std::int64_t>(us, 1)};
  }

  [[nodiscard]] Duration interval_cap() const {
    return owner_.options_.retransmit_max.us > 0
               ? owner_.options_.retransmit_max
               : Duration{owner_.options_.retransmit_after.us * 32};
  }

  /// Make sure an ARQ timer fires no later than `deadline`.  Extra timers
  /// from earlier arms fire spuriously and simply re-scan.
  void arm_until(TimePoint deadline) {
    if (timer_armed_ && armed_deadline_.us <= deadline.us) return;
    timer_armed_ = true;
    armed_deadline_ = deadline;
    const TimePoint t = owner_.lower_.now();
    owner_.lower_.set_timer(
        self_, Duration{std::max<std::int64_t>(deadline.us - t.us, 0)},
        kArqTimerBit);
  }

  void on_backoff_timer() {
    timer_armed_ = false;
    const TimePoint t = owner_.lower_.now();
    bool have_next = false;
    TimePoint next{};
    for (auto& [to, out] : outgoing_) {
      if (out.dead || out.unacked.empty()) continue;
      if (out.next_fire.us <= t.us) {
        if (!retransmit_all(to, out)) continue;  // acked empty or died
        const double f = std::max(owner_.options_.backoff_factor, 1.0);
        const auto grown = static_cast<std::int64_t>(
            static_cast<double>(out.interval.us) * f);
        out.interval =
            Duration{std::min<std::int64_t>(grown, interval_cap().us)};
        out.next_fire = t + jittered(to, out.interval);
      }
      if (!have_next || out.next_fire.us < next.us) {
        have_next = true;
        next = out.next_fire;
      }
    }
    if (have_next) arm_until(next);
  }

  ReliableTransport& owner_;
  Endpoint* app_;
  ProcessId self_;
  BodyPool<DataFrame>* data_pool_;
  BodyPool<AckFrame>* ack_pool_;
  std::map<ProcessId, Outgoing> outgoing_;
  std::map<ProcessId, Incoming> incoming_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t dead_drops_ = 0;
  std::vector<ProcessId> dead_targets_;
  bool timer_armed_ = false;
  TimePoint armed_deadline_{};
};

ReliableTransport::ReliableTransport(HostTransport& lower,
                                     ReliableOptions options)
    : lower_(lower), options_(options), adaptive_(options.adaptive()) {}

ReliableTransport::~ReliableTransport() = default;

ProcessId ReliableTransport::add_endpoint(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  auto shim = std::make_unique<Shim>(*this, ep,
                                     static_cast<ProcessId>(shims_.size()));
  const ProcessId assigned = lower_.add_endpoint(shim.get());
  PARDSM_CHECK(assigned == static_cast<ProcessId>(shims_.size()),
               "interleaved registration with the layer below");
  shims_.push_back(std::move(shim));
  return assigned;
}

void ReliableTransport::send(ProcessId from, ProcessId to, BodyRef body,
                             MessageMeta meta) {
  PARDSM_CHECK(from >= 0 && static_cast<std::size_t>(from) < shims_.size(),
               "send: bad sender");
  shims_[static_cast<std::size_t>(from)]->send_app(to, std::move(body),
                                                   std::move(meta));
}

void ReliableTransport::set_timer(ProcessId who, Duration delay,
                                  TimerTag tag) {
  PARDSM_CHECK((tag & (1ULL << 63)) == 0,
               "application timer tags must not use the top bit");
  lower_.set_timer(who, delay, tag);
}

std::size_t ReliableTransport::process_count() const { return shims_.size(); }

std::uint64_t ReliableTransport::retransmissions() const {
  std::uint64_t sum = 0;
  for (const auto& shim : shims_) sum += shim->retransmissions();
  return sum;
}

std::vector<std::pair<ProcessId, ProcessId>> ReliableTransport::dead_channels()
    const {
  std::vector<std::pair<ProcessId, ProcessId>> out;
  for (std::size_t i = 0; i < shims_.size(); ++i) {
    for (ProcessId to : shims_[i]->dead_targets()) {
      out.emplace_back(static_cast<ProcessId>(i), to);
    }
  }
  return out;
}

std::uint64_t ReliableTransport::dead_channel_drops() const {
  std::uint64_t sum = 0;
  for (const auto& shim : shims_) sum += shim->dead_drops();
  return sum;
}

}  // namespace pardsm
