#include "simnet/reliable.h"

#include <algorithm>

#include "simnet/check.h"
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

/// Cumulative-ack kind, interned once.
const KindId kAckKind("ARQ:ACK");

}  // namespace

/// Slots for a sliding range of sequence numbers: seq s lives at
/// s & (capacity - 1).  The capacity is a power of two that doubles on
/// demand and is never released, so a warm ring never allocates.
template <typename T>
class SeqRing {
 public:
  T& operator[](std::uint64_t seq) { return slots_[seq & (slots_.size() - 1)]; }

  /// Make room for the `span` seqs starting at `lo`, carrying every seq
  /// the old ring could hold from `lo` on over to its new slot.
  void fit(std::uint64_t lo, std::uint64_t span) {
    if (span <= slots_.size()) return;
    std::uint64_t cap = slots_.size();
    while (cap < span) cap *= 2;
    std::vector<T> grown(cap);
    for (std::uint64_t s = lo; s < lo + slots_.size(); ++s) {
      grown[s & (cap - 1)] = std::move((*this)[s]);
    }
    slots_ = std::move(grown);
  }

 private:
  std::vector<T> slots_ = std::vector<T>(8);
};

/// Per-process shim: the simulator endpoint that hides the ARQ machinery
/// from the real application endpoint.
class ReliableTransport::Shim final : public Endpoint {
 public:
  Shim(ReliableTransport& owner, Endpoint* app) : owner_(owner), app_(app) {}

  /// Take the id the layer below assigned this shim.
  void bind(ProcessId self) {
    self_ = self;
    data_pool_ = &owner_.lower_.arena(self).pool<DataFrame>();
    ack_pool_ = &owner_.lower_.arena(self).pool<AckFrame>();
  }

  // ---- sending side -------------------------------------------------------
  void send_app(ProcessId to, BodyRef body, MessageMeta meta) {
    Outgoing& out = peer(to).out;
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

    out.unacked.fit(out.first, seq - out.first + 1);
    Pending& pending = out.unacked[seq];
    pending.frame = BodyRef::adopt(frame);
    pending.deadline = owner_.lower_.now() + owner_.options_.retransmit_after;
    pending.retries = 0;
    transmit(to, pending.frame);
    arm_until(pending.deadline);
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
      on_ack(m.from, ack->cumulative);
      return;
    }
    const auto* frame = m.try_as<DataFrame>();
    if (frame == nullptr) {
      // Not an ARQ frame (foreign traffic): pass through untouched.
      app_->on_message(m);
      return;
    }
    Incoming& in = peer(m.from).in;
    if (frame->seq > in.delivered) {
      const std::uint64_t ahead = frame->seq - in.delivered;
      if (ahead > kReceiveWindow) {
        ++window_discards_;
      } else if (ahead > 1) {
        in.early.fit(in.delivered + 1, ahead);
        BodyRef& slot = in.early[frame->seq];
        if (!slot) slot = m.body;
      } else {
        // In sequence: deliver it, then the buffered run it completes,
        // each exactly once.  A slot is emptied before its frame goes up.
        BodyRef next = m.body;
        while (next) {
          const auto& f = *static_cast<const DataFrame*>(next.get());
          Message app_msg;
          app_msg.from = m.from;
          app_msg.to = self_;
          app_msg.body = f.payload;
          app_msg.meta = f.payload_meta;
          app_msg.id = m.id;
          app_msg.send_time = m.send_time;
          app_msg.deliver_time = m.deliver_time;
          ++in.delivered;
          app_->on_message(app_msg);
          next = std::move(in.early[in.delivered + 1]);
        }
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
    timer_armed_ = false;
    const TimePoint t = owner_.lower_.now();
    bool have_next = false;
    TimePoint next{};
    for (std::size_t to = 0; to < peers_.size(); ++to) {
      if (!peers_[to]) continue;
      Outgoing& out = peers_[to]->out;
      for (std::uint64_t seq = out.first; seq <= out.next_seq; ++seq) {
        Pending& pending = out.unacked[seq];
        if (pending.deadline.us <= t.us &&
            !resend(static_cast<ProcessId>(to), out, pending)) {
          break;
        }
        if (!have_next || pending.deadline.us < next.us) {
          have_next = true;
          next = pending.deadline;
        }
      }
    }
    if (have_next) arm_until(next);
  }

  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t dead_drops() const { return dead_drops_; }
  [[nodiscard]] std::uint64_t window_discards() const {
    return window_discards_;
  }
  [[nodiscard]] const std::vector<ProcessId>& dead_targets() const {
    return dead_targets_;
  }

 private:
  /// An unacked frame and its resend schedule (a cumulative ACK pops the
  /// slot, so the schedule's lifetime is exactly the frame's).  The frame
  /// is never mutated after construction, so a plain owning ref suffices.
  struct Pending {
    BodyRef frame;         ///< always a DataFrame
    TimePoint deadline{};  ///< resend when no ACK covers it by then
    std::uint32_t retries = 0;
  };
  struct Outgoing {
    std::uint64_t first = 1;     ///< oldest unacked seq
    std::uint64_t next_seq = 0;  ///< newest seq sent; unacked: [first, it]
    SeqRing<Pending> unacked;
    bool dead = false;
  };
  struct Incoming {
    std::uint64_t delivered = 0;
    /// Frames (DataFrames) that arrived past a gap, by seq; the slot of
    /// delivered + 1 is always empty.
    SeqRing<BodyRef> early;
  };
  struct Peer {
    Outgoing out;
    Incoming in;
  };

  /// State shared with `p`, created on first contact.  Peers live behind
  /// pointers so references stay valid while an app callback contacts a
  /// new peer.
  Peer& peer(ProcessId p) {
    PARDSM_CHECK(p >= 0, "ARQ: bad peer id");
    const auto i = static_cast<std::size_t>(p);
    if (i >= peers_.size()) peers_.resize(i + 1);
    if (!peers_[i]) peers_[i] = std::make_unique<Peer>();
    return *peers_[i];
  }

  void on_ack(ProcessId from, std::uint64_t cumulative) {
    Outgoing& out = peer(from).out;
    if (cumulative > out.next_seq) return;  // acks a frame never sent
    if (cumulative + 1 == out.first) {
      // Duplicate ack: the receiver holds a frame past a gap at `first`.
      // Resend the head now rather than at its deadline — but only its
      // first transmission: once a resend is in flight, a duplicate ack
      // may predate it, and the head's deadline covers a resend lost too.
      if (out.first > out.next_seq) return;
      Pending& head = out.unacked[out.first];
      if (head.retries == 0 && resend(from, out, head)) {
        arm_until(head.deadline);
      }
      return;
    }
    for (; out.first <= cumulative; ++out.first) {
      out.unacked[out.first].frame.reset();
    }
  }

  /// Resend one frame and push its deadline out; returns false if the
  /// frame exhausted max_retransmits instead (the channel just died).
  bool resend(ProcessId to, Outgoing& out, Pending& pending) {
    const ReliableOptions& o = owner_.options_;
    if (++pending.retries > o.max_retransmits) {
      give_up(to, out);
      return false;
    }
    ++retransmissions_;
    pending.deadline = owner_.lower_.now() + o.retransmit_after;
    transmit(to, pending.frame);
    return true;
  }

  /// A frame exhausted max_retransmits.
  void give_up(ProcessId to, Outgoing& out) {
    dead_drops_ += out.next_seq + 1 - out.first;
    for (; out.first <= out.next_seq; ++out.first) {
      out.unacked[out.first].frame.reset();
    }
    out.dead = true;
    dead_targets_.push_back(to);
  }

  /// Make sure the ARQ timer fires no later than `deadline`.  Extra timers
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

  ReliableTransport& owner_;
  Endpoint* app_;
  ProcessId self_ = 0;
  BodyPool<DataFrame>* data_pool_ = nullptr;
  BodyPool<AckFrame>* ack_pool_ = nullptr;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< by ProcessId
  std::uint64_t retransmissions_ = 0;
  std::uint64_t dead_drops_ = 0;
  std::uint64_t window_discards_ = 0;
  std::vector<ProcessId> dead_targets_;
  bool timer_armed_ = false;
  TimePoint armed_deadline_{};
};

ReliableTransport::ReliableTransport(HostTransport& lower,
                                     ReliableOptions options)
    : lower_(lower), options_(options) {}

ReliableTransport::~ReliableTransport() = default;

ProcessId ReliableTransport::add_endpoint(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  auto shim = std::make_unique<Shim>(*this, ep);
  // The layer below numbers the endpoints: 0, 1, 2, ... on an all-local
  // root, just its local ids on one node of a multi-process deployment.
  const ProcessId assigned = lower_.add_endpoint(shim.get());
  PARDSM_CHECK(assigned >= 0 &&
                   static_cast<std::size_t>(assigned) >= shims_.size(),
               "interleaved registration with the layer below");
  shim->bind(assigned);
  shims_.resize(static_cast<std::size_t>(assigned));
  shims_.push_back(std::move(shim));
  return assigned;
}

void ReliableTransport::send(ProcessId from, ProcessId to, BodyRef body,
                             MessageMeta meta) {
  PARDSM_CHECK(from >= 0 && static_cast<std::size_t>(from) < shims_.size() &&
                   shims_[static_cast<std::size_t>(from)] != nullptr,
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

std::size_t ReliableTransport::process_count() const {
  return lower_.process_count();
}

std::uint64_t ReliableTransport::retransmissions() const {
  std::uint64_t sum = 0;
  for (const auto& shim : shims_) {
    if (shim) sum += shim->retransmissions();
  }
  return sum;
}

std::vector<std::pair<ProcessId, ProcessId>> ReliableTransport::dead_channels()
    const {
  std::vector<std::pair<ProcessId, ProcessId>> out;
  for (std::size_t i = 0; i < shims_.size(); ++i) {
    if (!shims_[i]) continue;
    for (ProcessId to : shims_[i]->dead_targets()) {
      out.emplace_back(static_cast<ProcessId>(i), to);
    }
  }
  return out;
}

std::uint64_t ReliableTransport::dead_channel_drops() const {
  std::uint64_t sum = 0;
  for (const auto& shim : shims_) {
    if (shim) sum += shim->dead_drops();
  }
  return sum;
}

std::uint64_t ReliableTransport::window_discards() const {
  std::uint64_t sum = 0;
  for (const auto& shim : shims_) {
    if (shim) sum += shim->window_discards();
  }
  return sum;
}

}  // namespace pardsm
