#include "mcs/pram_partial.h"

#include <algorithm>

#include "simnet/wire.h"

namespace pardsm::mcs {

struct PramUpdate final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kPramUpdate;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
  }
};

namespace {

const wire::BodyRegistrar pram_codec(
    wire::kPramUpdate, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<PramUpdate>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      return BodyRef::adopt(b);
    });

/// Message kinds, interned once so the send path never hits the table.
const KindId kUpdateKind("PRAM");

}  // namespace

PramPartialProcess::PramPartialProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)) {}

void PramPartialProcess::on_attach() {
  update_pool_ = &arena().pool<PramUpdate>();
  neighbours_.clear();
  for (VarId x : store().vars()) {
    for (ProcessId q : replicas_of(x)) {
      if (q != id()) neighbours_.push_back(q);
    }
  }
  std::sort(neighbours_.begin(), neighbours_.end());
  neighbours_.erase(std::unique(neighbours_.begin(), neighbours_.end()),
                    neighbours_.end());
  last_applied_.assign(neighbours_.size(), -1);
}

void PramPartialProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void PramPartialProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  const WriteId wid{id(), next_write_seq_++};
  const TimePoint t = now();
  mutable_store().put(x, v, wid);
  recorder().record_write(id(), x, v, wid, t, t);
  ++mutable_stats().writes;

  auto* body = update_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;

  SendPlan plan;
  plan.body = BodyRef::adopt(body);
  plan.meta.kind = kUpdateKind;
  plan.meta.control_bytes = 16 /*write id*/ + 8 /*var*/;
  plan.meta.payload_bytes = 8;
  plan.meta.vars_mentioned = {x};
  for (ProcessId q : replicas_of(x)) {
    if (q != id()) plan.to.push_back(q);
  }
  emit(std::move(plan));
  done();
}

void PramPartialProcess::handle_message(const Message& m) {
  const auto* u = m.try_as<PramUpdate>();
  PARDSM_CHECK(u != nullptr, "pram: unexpected message body");
  PARDSM_CHECK(replicates(u->x), "pram: update for unreplicated variable");
  // Every C(x) member but self is a neighbour, so the sender must be both.
  const auto it =
      std::lower_bound(neighbours_.begin(), neighbours_.end(), m.from);
  PARDSM_CHECK(it != neighbours_.end() && *it == m.from &&
                   clique_holds(m.from, u->x),
               "pram: update from a process outside C(x)");
  // Ignore duplicated (hence stale: originals arrive FIFO) copies — an old
  // value must never overwrite a newer one from the same writer.
  auto& last =
      last_applied_[static_cast<std::size_t>(it - neighbours_.begin())];
  if (u->id.seq <= last) return;
  last = u->id.seq;
  mutable_store().put(u->x, u->v, u->id);
  ++mutable_stats().updates_applied;
}

}  // namespace pardsm::mcs
