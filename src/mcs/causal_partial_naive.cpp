#include "mcs/causal_partial_naive.h"

#include "simnet/wire.h"

namespace pardsm::mcs {

/// Update (with value) to C(x) members / notification (no value) to the
/// rest.  Both advance the receiver's vector clock.
struct PartialCausalMsg final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  bool has_value = false;
  WriteId id{};
  VectorClock vc;

  /// Pool reset: every field is overwritten on reuse (the send path
  /// assigns update/notify fields explicitly, the wire decoder assigns
  /// them all) and the clock's copy-assignment reuses its storage, so
  /// nothing needs clearing.
  // pardsm-lint: overwritten-by-creator(x, v, has_value, id, vc)
  void reset() {}

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kPartialCausalMsg;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    w.boolean(has_value);
    wire::put_write_id(w, id);
    put_vector_clock(w, vc);
  }
};

namespace {

const wire::BodyRegistrar partial_causal_codec(
    wire::kPartialCausalMsg, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<PartialCausalMsg>();
      b->x = r.i32();
      b->v = r.i64();
      b->has_value = r.boolean();
      b->id = wire::get_write_id(r);
      b->vc = get_vector_clock(r);
      return BodyRef::adopt(b);
    });

/// Message kinds, interned once so the send path never hits the table.
const KindId kUpdateKind("PUPD");
const KindId kNotifyKind("PNOT");

}  // namespace

CausalPartialNaiveProcess::CausalPartialNaiveProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)),
      vc_(dist.process_count()) {
  buffer_.set_key_count(dist.process_count());
}

void CausalPartialNaiveProcess::on_attach() {
  msg_pool_ = &arena().pool<PartialCausalMsg>();
}

void CausalPartialNaiveProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void CausalPartialNaiveProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  vc_.increment(id());
  const WriteId wid{id(), next_write_seq_++};
  const TimePoint t = now();
  mutable_store().put(x, v, wid);
  recorder().record_write(id(), x, v, wid, t, t);
  ++mutable_stats().writes;

  auto* update = msg_pool_->create();
  update->x = x;
  update->v = v;
  update->has_value = true;
  update->id = wid;
  update->vc = vc_;

  auto* notify = msg_pool_->create();
  *notify = *update;  // payload fields only: each body keeps its identity
  notify->has_value = false;
  notify->v = kBottom;

  const BodyRef update_ref = BodyRef::adopt(update);
  const BodyRef notify_ref = BodyRef::adopt(notify);

  MessageMeta upd_meta;
  upd_meta.kind = kUpdateKind;
  upd_meta.control_bytes = vc_.wire_bytes() + 16 + 8;
  upd_meta.payload_bytes = 8;
  upd_meta.vars_mentioned = {x};

  MessageMeta not_meta = upd_meta;
  not_meta.kind = kNotifyKind;
  not_meta.payload_bytes = 0;

  // Per-recipient metadata (update vs notify) splits the round into
  // single-destination plans, emitted in ascending-q order — the exact
  // send order (and hence channel RNG draw order) of the pre-seam loop.
  const auto n = static_cast<ProcessId>(transport().process_count());
  for (ProcessId q = 0; q < n; ++q) {
    if (q == id()) continue;
    if (clique_holds(q, x)) {
      emit_to(q, update_ref, upd_meta);
    } else {
      emit_to(q, notify_ref, not_meta);
    }
  }
  done();
}

void CausalPartialNaiveProcess::handle_message(const Message& m) {
  // Checked before the buffer holds it, so check/deliver can rely on it.
  PARDSM_CHECK(m.try_as<PartialCausalMsg>() != nullptr,
               "causal-partial: unexpected message body");
  buffer_.arrive(m, *this, mutable_stats());
}

Readiness CausalPartialNaiveProcess::check(const Message& m,
                                           std::uint64_t& resume) const {
  const auto* u = m.try_as<PartialCausalMsg>();
  return clock_readiness(vc_, u->vc, m.from, resume);
}

std::uint32_t CausalPartialNaiveProcess::deliver(const Message& m) {
  const auto* u = m.try_as<PartialCausalMsg>();
  vc_.merge(u->vc);  // raises only vc_[m.from]: ready means the rest is ≤
  if (u->has_value && replicates(u->x)) {
    mutable_store().put(u->x, u->v, u->id);
    ++mutable_stats().updates_applied;
  }
  return static_cast<std::uint32_t>(m.from);
}

}  // namespace pardsm::mcs
