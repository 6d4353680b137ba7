#include "simnet/batching.h"

#include "simnet/check.h"

namespace pardsm {

namespace {

/// Timer tags: the batching layer owns bit 62 (bit 63 belongs to the ARQ
/// layer), so application — and ARQ, when batching sits below it — tags
/// pass through unchanged.
constexpr TimerTag kBatchTimerBit = 1ULL << 62;

/// A destination's queue flushes when it reaches this many messages,
/// which bounds frame size and memory.
constexpr std::size_t kMaxBatch = 64;

/// Frame kind, interned once.
const KindId kBatchKind("BATCH");

const wire::BodyRegistrar batch_codec(
    wire::kBatchFrame, [](WireReader& r, BodyArena& arena) -> BodyRef {
      BatchFrame* f = arena.create<BatchFrame>();
      BodyRef owner = BodyRef::adopt(f);
      // An item is at least its enqueue time, a meta and a body tag.
      f->items.resize(wire::get_count(
          r, 8 + wire::kMinMetaWireBytes + wire::kMinBodyWireBytes));
      for (auto& item : f->items) {
        item.enqueued = wire::get_time(r);
        item.meta = wire::decode_meta(r);
        item.body = wire::decode_body(r, arena);
      }
      return owner;
    });

}  // namespace

/// Per-process shim: holds the sender-side coalescing queues and unpacks
/// incoming frames for the real application endpoint.
class BatchingTransport::Shim final : public Endpoint {
 public:
  Shim(BatchingTransport& owner, Endpoint* app, ProcessId self)
      : owner_(owner),
        app_(app),
        self_(self),
        frame_pool_(&owner.lower_.arena(self).pool<BatchFrame>()) {}

  // ---- sending side -------------------------------------------------------
  void send_app(ProcessId to, BodyRef body, MessageMeta meta) {
    const bool urgent = meta.urgent;
    auto& queue = pending_[to];
    queue.push_back(
        {std::move(body), std::move(meta), owner_.lower_.now()});
    if (urgent) {
      // Flush the whole destination queue, this message last: per-pair
      // FIFO survives and the urgent payload leaves at once.
      ++stats_.urgent_flushes;
      flush_to(to);
      return;
    }
    if (queue.size() >= kMaxBatch) {
      flush_to(to);
      return;
    }
    arm_timer();
  }

  void flush_to(ProcessId to) { flush(to, pending_[to]); }

  void flush(ProcessId to, std::vector<BatchFrame::Item>& queue) {
    if (queue.empty()) return;
    if (queue.size() == 1) {
      // Identical bytes to the unbatched send, just later.
      BatchFrame::Item item = std::move(queue.front());
      queue.clear();
      ++stats_.singleton_flushes;
      owner_.lower_.send(self_, to, std::move(item.body),
                         std::move(item.meta));
      return;
    }
    BatchFrame* frame = frame_pool_->create();
    MessageMeta meta;
    meta.kind = kBatchKind;
    for (const BatchFrame::Item& item : queue) {
      meta.control_bytes += item.meta.control_bytes + kPerItemFramingBytes;
      meta.payload_bytes += item.meta.payload_bytes;
      for (VarId x : item.meta.vars_mentioned) meta.vars_mentioned.push_back(x);
      meta.urgent = meta.urgent || item.meta.urgent;
    }
    ++stats_.frames_sent;
    stats_.messages_batched += queue.size();
    // Swap rather than move: the frame takes the queue's members and the
    // queue inherits the recycled frame's (empty) buffer, so both vectors
    // keep their capacity across flush cycles.
    frame->items.swap(queue);
    owner_.lower_.send(self_, to, BodyRef::adopt(frame), std::move(meta));
  }

  void flush_all() {
    for (auto& [to, queue] : pending_) flush(to, queue);
  }

  // ---- receiving side -----------------------------------------------------
  void on_message(const Message& m) override {
    const auto* frame = m.try_as<BatchFrame>();
    if (frame == nullptr) {
      app_->on_message(m);
      return;
    }
    for (const BatchFrame::Item& item : frame->items) {
      Message app_msg;
      app_msg.from = m.from;
      app_msg.to = self_;
      app_msg.body = item.body;
      app_msg.meta = item.meta;
      app_msg.id = m.id;
      app_msg.send_time = item.enqueued;
      app_msg.deliver_time = m.deliver_time;
      app_->on_message(app_msg);
    }
  }

  void on_timer(TimerTag tag) override {
    if ((tag & kBatchTimerBit) == 0) {
      app_->on_timer(tag);
      return;
    }
    timer_armed_ = false;
    flush_all();
  }

  void arm_timer() {
    if (timer_armed_) return;
    timer_armed_ = true;
    owner_.lower_.set_timer(self_, owner_.options_.window, kBatchTimerBit);
  }

  [[nodiscard]] const BatchingStats& stats() const { return stats_; }

 private:
  BatchingTransport& owner_;
  Endpoint* app_;
  ProcessId self_;
  BodyPool<BatchFrame>* frame_pool_;
  /// Per-destination coalescing queues (ordered map: flush_all walks
  /// destinations in ascending id, deterministically).
  std::map<ProcessId, std::vector<BatchFrame::Item>> pending_;
  BatchingStats stats_;
  bool timer_armed_ = false;
};

BatchingTransport::BatchingTransport(HostTransport& lower,
                                     BatchingOptions options)
    : lower_(lower), options_(options) {
  PARDSM_CHECK(options_.window.us > 0, "batching window must be positive");
}

BatchingTransport::~BatchingTransport() = default;

ProcessId BatchingTransport::add_endpoint(Endpoint* ep) {
  PARDSM_CHECK(ep != nullptr, "add_endpoint: null endpoint");
  auto shim = std::make_unique<Shim>(*this, ep,
                                     static_cast<ProcessId>(shims_.size()));
  const ProcessId assigned = lower_.add_endpoint(shim.get());
  PARDSM_CHECK(assigned == static_cast<ProcessId>(shims_.size()),
               "interleaved registration with the layer below");
  shims_.push_back(std::move(shim));
  return assigned;
}

void BatchingTransport::send(ProcessId from, ProcessId to, BodyRef body,
                             MessageMeta meta) {
  PARDSM_CHECK(from >= 0 && static_cast<std::size_t>(from) < shims_.size(),
               "send: bad sender");
  shims_[static_cast<std::size_t>(from)]->send_app(to, std::move(body),
                                                   std::move(meta));
}

void BatchingTransport::set_timer(ProcessId who, Duration delay,
                                  TimerTag tag) {
  PARDSM_CHECK((tag & kBatchTimerBit) == 0,
               "timer tags from above must not use bit 62 (batching layer)");
  lower_.set_timer(who, delay, tag);
}

std::size_t BatchingTransport::process_count() const { return shims_.size(); }

BatchingStats BatchingTransport::stats() const {
  BatchingStats sum;
  for (const auto& shim : shims_) {
    const BatchingStats& s = shim->stats();
    sum.frames_sent += s.frames_sent;
    sum.messages_batched += s.messages_batched;
    sum.singleton_flushes += s.singleton_flushes;
    sum.urgent_flushes += s.urgent_flushes;
  }
  return sum;
}

}  // namespace pardsm
