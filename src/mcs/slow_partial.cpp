#include "mcs/slow_partial.h"

#include "simnet/wire.h"

namespace pardsm::mcs {

struct SlowUpdate final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};
  std::int64_t var_seq = 0;  ///< per-(writer, x) sequence, 1-based

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kSlowUpdate;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
    w.i64(var_seq);
  }
};

namespace {

const wire::BodyRegistrar slow_codec(
    wire::kSlowUpdate, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<SlowUpdate>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->var_seq = r.i64();
      return BodyRef::adopt(b);
    });

/// Deterministic application jitter (microseconds) per (writer, var, seq):
/// spreads the apply times of different variables' updates so the
/// cross-variable reordering freedom of slow memory is actually exercised,
/// identically under both runtimes.
Duration jitter(ProcessId writer, VarId x, std::int64_t seq) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(writer) * 0xBF58476D1CE4E5B9ULL;
  h ^= static_cast<std::uint64_t>(x) * 0x94D049BB133111EBULL;
  h ^= static_cast<std::uint64_t>(seq) * 0xD6E8FEB86659FD93ULL;
  h ^= h >> 29;
  return micros(static_cast<std::int64_t>(h % 300));
}

/// Message kind, interned once so the send path never hits the table.
const KindId kUpdateKind("SLOW");

}  // namespace

SlowPartialProcess::SlowPartialProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)) {}

void SlowPartialProcess::on_attach() {
  update_pool_ = &arena().pool<SlowUpdate>();
}

void SlowPartialProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void SlowPartialProcess::write(VarId x, Value v, WriteCallback done) {
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
  body->var_seq = ++my_var_seq_[x];

  SendPlan plan;
  plan.body = BodyRef::adopt(body);
  plan.meta.kind = kUpdateKind;
  plan.meta.control_bytes = 16 + 8 + 8;
  plan.meta.payload_bytes = 8;
  plan.meta.vars_mentioned = {x};
  for (ProcessId q : replicas_of(x)) {
    if (q != id()) plan.to.push_back(q);
  }
  emit(std::move(plan));
  done();
}

void SlowPartialProcess::handle_message(const Message& m) {
  const auto* u = m.try_as<SlowUpdate>();
  PARDSM_CHECK(u != nullptr, "slow: unexpected message body");
  Pending p;
  p.x = u->x;
  p.v = u->v;
  p.id = u->id;
  p.var_seq = u->var_seq;
  p.writer = m.from;
  // try_emplace (not operator[]): the recycling-allocated queue has no
  // default constructor — a fresh key wires the shared node pool in.
  auto [qit, fresh] = pending_.try_emplace(
      std::make_pair(m.from, u->x),
      PendingQueue::allocator_type(&node_pool_));
  qit->second.insert_or_assign(u->var_seq, p);
  ++mutable_stats().updates_buffered;

  const TimerTag tag = next_timer_++;
  timers_[tag] = {m.from, u->x};
  transport().set_timer(id(), jitter(m.from, u->x, u->var_seq), tag);
}

void SlowPartialProcess::handle_timer(TimerTag tag) {
  auto it = timers_.find(tag);
  if (it == timers_.end()) return;
  const auto [writer, x] = it->second;
  timers_.erase(it);
  drain(writer, x);
}

void SlowPartialProcess::drain(ProcessId writer, VarId x) {
  auto key = std::make_pair(writer, x);
  auto qit = pending_.find(key);
  if (qit == pending_.end()) return;  // only reachable after handle_message
  auto& queue = qit->second;
  auto& expect = expected_[key];  // default 0 → first var_seq is 1
  // Discard stale entries (duplicated copies of already-applied updates).
  while (!queue.empty() && queue.begin()->first <= expect) {
    queue.erase(queue.begin());
  }
  while (!queue.empty() && queue.begin()->first == expect + 1) {
    const Pending& p = queue.begin()->second;
    if (replicates(p.x)) {
      mutable_store().put(p.x, p.v, p.id);
      ++mutable_stats().updates_applied;
    }
    ++expect;
    queue.erase(queue.begin());
    while (!queue.empty() && queue.begin()->first <= expect) {
      queue.erase(queue.begin());
    }
  }
}

}  // namespace pardsm::mcs
