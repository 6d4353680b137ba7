#include "mcs/causal_full.h"

#include "simnet/wire.h"

namespace pardsm::mcs {

/// Body of a full-replication causal update.
struct CausalUpdate final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};
  VectorClock vc;

  /// Pool reset: every field is overwritten on reuse (write path and wire
  /// decoder assign all four) and the clock's copy-assignment reuses its
  /// storage, so nothing needs clearing.
  // pardsm-lint: overwritten-by-creator(x, v, id, vc)
  void reset() {}

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kCausalUpdate;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
    put_vector_clock(w, vc);
  }
};

namespace {

const wire::BodyRegistrar causal_codec(
    wire::kCausalUpdate, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<CausalUpdate>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->vc = get_vector_clock(r);
      return BodyRef::adopt(b);
    });

/// All variables of the distribution (full replication ignores X_i for
/// storage purposes; the *application* still only accesses X_i).
std::vector<VarId> all_vars(const graph::Distribution& dist) {
  std::vector<VarId> out(dist.var_count);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    out[x] = static_cast<VarId>(x);
  }
  return out;
}

/// Message kind, interned once so the send path never hits the table.
const KindId kUpdateKind("CUPD");

}  // namespace

CausalFullProcess::CausalFullProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)),
      vc_(dist.process_count()) {
  // Replace the partial store with a complete one.
  mutable_store() = ReplicaStore(all_vars(dist));
  buffer_.set_key_count(dist.process_count());
}

void CausalFullProcess::on_attach() {
  update_pool_ = &arena().pool<CausalUpdate>();
}

void CausalFullProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void CausalFullProcess::write(VarId x, Value v, WriteCallback done) {
  vc_.increment(id());
  const WriteId wid{id(), next_write_seq_++};
  const TimePoint t = now();
  mutable_store().put(x, v, wid);
  recorder().record_write(id(), x, v, wid, t, t);
  ++mutable_stats().writes;

  auto* body = update_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;
  body->vc = vc_;

  SendPlan plan;
  plan.body = BodyRef::adopt(body);
  plan.meta.kind = kUpdateKind;
  plan.meta.control_bytes = vc_.wire_bytes() + 16 /*write id*/ + 8 /*var*/;
  plan.meta.payload_bytes = 8;
  plan.meta.vars_mentioned = {x};
  const auto n = static_cast<ProcessId>(transport().process_count());
  for (ProcessId q = 0; q < n; ++q) {
    if (q != id()) plan.to.push_back(q);
  }
  emit(std::move(plan));
  done();
}

void CausalFullProcess::handle_message(const Message& m) {
  // Checked before the buffer holds it, so check/deliver can rely on it.
  PARDSM_CHECK(m.try_as<CausalUpdate>() != nullptr,
               "causal-full: unexpected message body");
  buffer_.arrive(m, *this, mutable_stats());
}

Readiness CausalFullProcess::check(const Message& m,
                                   std::uint64_t& resume) const {
  const auto* u = m.try_as<CausalUpdate>();
  return clock_readiness(vc_, u->vc, m.from, resume);
}

std::uint32_t CausalFullProcess::deliver(const Message& m) {
  const auto* u = m.try_as<CausalUpdate>();
  vc_.merge(u->vc);  // raises only vc_[m.from]: ready means the rest is ≤
  mutable_store().put(u->x, u->v, u->id);
  ++mutable_stats().updates_applied;
  return static_cast<std::uint32_t>(m.from);
}

}  // namespace pardsm::mcs
