#include "mcs/protocol.h"

#include <map>

#include "simnet/wire.h"

namespace pardsm::mcs {

namespace {

/// Re-sync handshake bodies.  The recovering process asks each chosen peer
/// for the current copies of the variables it replicates; the peer answers
/// with (x, value, provenance) triples.  Both travel as ordinary messages,
/// so NetworkStats charges their bytes like any other control traffic.
struct ResyncRequest final : MessageBody {
  std::uint32_t epoch = 0;  ///< recovery round (stale responses are ignored)
  std::vector<VarId> vars;

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kResyncRequest;
  }
  void wire_encode(WireWriter& w) const override {
    w.u32(epoch);
    w.u32(static_cast<std::uint32_t>(vars.size()));
    for (VarId x : vars) w.i32(x);
  }
};

struct ResyncEntry {
  VarId x = kNoVar;
  Value value = kBottom;
  WriteId source{};
};

struct ResyncResponse final : MessageBody {
  std::uint32_t epoch = 0;
  std::vector<ResyncEntry> entries;

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kResyncResponse;
  }
  void wire_encode(WireWriter& w) const override {
    w.u32(epoch);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const ResyncEntry& e : entries) {
      w.i32(e.x);
      w.i64(e.value);
      wire::put_write_id(w, e.source);
    }
  }
};

const wire::BodyRegistrar resync_req_codec(
    wire::kResyncRequest, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<ResyncRequest>();
      BodyRef owner = BodyRef::adopt(b);
      b->epoch = r.u32();
      b->vars.resize(wire::get_count(r, 4));
      for (auto& x : b->vars) x = r.i32();
      return owner;
    });
const wire::BodyRegistrar resync_resp_codec(
    wire::kResyncResponse, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<ResyncResponse>();
      BodyRef owner = BodyRef::adopt(b);
      b->epoch = r.u32();
      // An entry is a variable, a value and a write id.
      b->entries.resize(wire::get_count(r, 4 + 8 + 12));
      for (auto& e : b->entries) {
        e.x = r.i32();
        e.value = r.i64();
        e.source = wire::get_write_id(r);
      }
      return owner;
    });

/// Message kinds, interned once (the base intercepts them by KindId before
/// protocol dispatch, so regular traffic pays one 2-byte compare, not a
/// dynamic_cast).
const KindId kResyncReqKind("RSYNC_REQ");
const KindId kResyncRespKind("RSYNC_RESP");

/// The default expansion: one point-to-point send per destination, in
/// plan order, sharing the body and copying the meta — bit-identical to
/// the per-destination send loops the protocols used to hand-write.
class FanoutMulticast final : public MulticastService {
 public:
  void submit(Transport& transport, ProcessId from,
              SendPlan&& plan) override {
    const std::size_t n = plan.to.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 1 == n) {
        transport.send(from, plan.to[i], std::move(plan.body),
                       std::move(plan.meta));
      } else {
        transport.send(from, plan.to[i], plan.body, plan.meta);
      }
    }
  }
};

}  // namespace

MulticastService& MulticastService::fanout() {
  static FanoutMulticast instance;
  return instance;
}

void McsProcess::on_message(const Message& m) {
  if (crashed_) {
    // Belt and braces: the runtime already suppresses deliveries to down
    // processes; anything that still arrives here is lost with the crash.
    ++rstats_.deliveries_dropped_while_down;
    return;
  }
  if (m.meta.kind == kResyncReqKind) {
    serve_resync_request(m);
    return;
  }
  if (m.meta.kind == kResyncRespKind) {
    absorb_resync_response(m);
    return;
  }
  handle_message(m);
}

void McsProcess::on_timer(TimerTag tag) {
  if (crashed_) {
    // A fail-paused process must neither act on timers nor lose them (a
    // swallowed flush timer would strand buffered updates forever): park
    // the tag and replay it once on recovery.
    ++rstats_.timers_deferred;
    deferred_timers_.push_back(tag);
    return;
  }
  handle_timer(tag);
}

void McsProcess::crash() {
  PARDSM_CHECK(!crashed_, "crash: process already down");
  crashed_ = true;
  ++rstats_.crashes;
  // A crash mid-re-sync supersedes that round: its responses are stale.
  ++resync_epoch_;
  pending_resyncs_ = 0;
  on_crash();
}

void McsProcess::recover() {
  PARDSM_CHECK(crashed_, "recover: process is not down");
  crashed_ = false;
  on_recover();
  // Replay timers that fired during the downtime, in fire order, as fresh
  // zero-delay timers (they run after this event, through the runtime).
  for (TimerTag tag : deferred_timers_) {
    transport().set_timer(self_, Duration{}, tag);
  }
  deferred_timers_.clear();
  start_resync();
}

ProcessId McsProcess::resync_source(VarId x) const {
  for (ProcessId q : replicas_of(x)) {
    if (q != self_) return q;  // sorted: the lowest-id other member
  }
  return kNoProcess;
}

void McsProcess::start_resync() {
  recovery_started_ = now();
  last_recovery_latency_ = {};
  ++resync_epoch_;

  // One request per peer, covering every held variable that peer serves.
  std::map<ProcessId, std::vector<VarId>> by_peer;
  for (VarId x : store_.vars()) {
    const ProcessId q = resync_source(x);
    if (q != kNoProcess && q != self_) by_peer[q].push_back(x);
  }
  pending_resyncs_ = static_cast<std::uint32_t>(by_peer.size());
  for (auto& [peer, vars] : by_peer) {
    auto* body = arena().create<ResyncRequest>();
    body->epoch = resync_epoch_;
    body->vars = std::move(vars);

    MessageMeta meta;
    meta.kind = kResyncReqKind;
    meta.control_bytes = 8 + 8 * body->vars.size();
    for (VarId x : body->vars) meta.vars_mentioned.push_back(x);

    rstats_.resync_bytes += meta.wire_bytes();
    ++rstats_.resync_requests_sent;
    // Urgent: recovery latency must not wait out a coalescing window.
    emit_to(peer, BodyRef::adopt(body), std::move(meta), /*urgent=*/true);
  }
}

void McsProcess::serve_resync_request(const Message& m) {
  const auto* req = m.as<ResyncRequest>();
  PARDSM_CHECK(req != nullptr, "re-sync request with foreign body");
  auto* body = arena().create<ResyncResponse>();
  body->epoch = req->epoch;

  MessageMeta meta;
  meta.kind = kResyncRespKind;
  for (VarId x : req->vars) {
    if (!store_.holds(x)) continue;
    const Stored& s = store_.get(x);
    body->entries.push_back({x, s.value, s.source});
    meta.vars_mentioned.push_back(x);
  }
  meta.control_bytes = 8 + 24 * body->entries.size();  // epoch + (x, WriteId)
  meta.payload_bytes = 8 * body->entries.size();

  ++rstats_.resync_responses_served;
  emit_to(m.from, BodyRef::adopt(body), std::move(meta), /*urgent=*/true);
}

void McsProcess::absorb_resync_response(const Message& m) {
  const auto* resp = m.as<ResyncResponse>();
  PARDSM_CHECK(resp != nullptr, "re-sync response with foreign body");
  if (resp->epoch != resync_epoch_ || pending_resyncs_ == 0) return;

  rstats_.resync_bytes += m.meta.wire_bytes();
  for (const ResyncEntry& e : resp->entries) {
    apply_resync_entry(e.x, e.value, e.source, m.from);
  }
  if (--pending_resyncs_ == 0) {
    last_recovery_latency_ = now() - recovery_started_;
    max_recovery_latency_ =
        std::max(max_recovery_latency_, last_recovery_latency_);
  }
}

void McsProcess::apply_resync_entry(VarId x, Value value,
                                    const WriteId& source,
                                    ProcessId responder) {
  if (!store_.holds(x)) return;
  if (!resync_adoptable(x, responder, source)) return;
  const Stored& local = store_.get(x);
  // Never-regress rule: adopt the peer's copy only when it provably moves
  // this replica forward — filling an untouched slot, or advancing along
  // one writer's own sequence.  Copies that cannot be so ordered are left
  // to the ARQ layer's guaranteed (re)delivery: adopting them here could
  // roll back past observations, which no consistency criterion forgives.
  const bool fills_bottom = !local.source.valid() && source.valid();
  const bool advances_writer = source.valid() &&
                               source.writer == local.source.writer &&
                               source.seq > local.source.seq;
  if (fills_bottom || advances_writer) {
    store_.put(x, value, source);
    ++rstats_.resync_values_applied;
  }
}

const char* to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kAtomicHome:
      return "atomic-home";
    case ProtocolKind::kSequencerSC:
      return "sequencer-sc";
    case ProtocolKind::kCausalFull:
      return "causal-full";
    case ProtocolKind::kCausalPartialNaive:
      return "causal-partial-naive";
    case ProtocolKind::kCausalPartialAdHoc:
      return "causal-partial-adhoc";
    case ProtocolKind::kPramPartial:
      return "pram-partial";
    case ProtocolKind::kSlowPartial:
      return "slow-partial";
    case ProtocolKind::kCachePartial:
      return "cache-partial";
    case ProtocolKind::kProcessorPartial:
      return "processor-partial";
  }
  return "?";
}

const std::vector<ProtocolKind>& all_protocols() {
  static const std::vector<ProtocolKind> kAll = {
      ProtocolKind::kAtomicHome,         ProtocolKind::kSequencerSC,
      ProtocolKind::kCausalFull,         ProtocolKind::kCausalPartialNaive,
      ProtocolKind::kCausalPartialAdHoc, ProtocolKind::kPramPartial,
      ProtocolKind::kSlowPartial,        ProtocolKind::kCachePartial,
      ProtocolKind::kProcessorPartial,
  };
  return kAll;
}

GuaranteeLevel guarantee_of(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kAtomicHome:
      return GuaranteeLevel::kAtomic;
    case ProtocolKind::kSequencerSC:
      return GuaranteeLevel::kSequential;
    case ProtocolKind::kCausalFull:
    case ProtocolKind::kCausalPartialNaive:
    case ProtocolKind::kCausalPartialAdHoc:
      return GuaranteeLevel::kCausal;
    case ProtocolKind::kPramPartial:
      return GuaranteeLevel::kPram;
    case ProtocolKind::kSlowPartial:
      return GuaranteeLevel::kSlow;
    case ProtocolKind::kCachePartial:
      return GuaranteeLevel::kCache;
    case ProtocolKind::kProcessorPartial:
      return GuaranteeLevel::kProcessor;
  }
  return GuaranteeLevel::kSlow;
}

}  // namespace pardsm::mcs
