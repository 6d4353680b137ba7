#include "mcs/atomic_home.h"

#include <algorithm>

#include "simnet/wire.h"

namespace pardsm::mcs {

struct AtomicReadRequest final : MessageBody {
  VarId x = kNoVar;
  std::uint64_t rpc = 0;

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kAtomicReadRequest;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.u64(rpc);
  }
};

struct AtomicReadReply final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId source{};
  std::uint64_t rpc = 0;

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kAtomicReadReply;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, source);
    w.u64(rpc);
  }
};

struct AtomicWriteRequest final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};
  std::uint64_t rpc = 0;

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kAtomicWriteRequest;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
    w.u64(rpc);
  }
};

struct AtomicWriteAck final : MessageBody {
  VarId x = kNoVar;
  std::uint64_t rpc = 0;

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kAtomicWriteAck;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.u64(rpc);
  }
};

struct AtomicRefresh final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kAtomicRefresh;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
  }
};

namespace {

const wire::BodyRegistrar atomic_rreq_codec(
    wire::kAtomicReadRequest, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AtomicReadRequest>();
      b->x = r.i32();
      b->rpc = r.u64();
      return BodyRef::adopt(b);
    });
const wire::BodyRegistrar atomic_rrsp_codec(
    wire::kAtomicReadReply, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AtomicReadReply>();
      b->x = r.i32();
      b->v = r.i64();
      b->source = wire::get_write_id(r);
      b->rpc = r.u64();
      return BodyRef::adopt(b);
    });
const wire::BodyRegistrar atomic_wreq_codec(
    wire::kAtomicWriteRequest, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AtomicWriteRequest>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->rpc = r.u64();
      return BodyRef::adopt(b);
    });
const wire::BodyRegistrar atomic_wack_codec(
    wire::kAtomicWriteAck, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AtomicWriteAck>();
      b->x = r.i32();
      b->rpc = r.u64();
      return BodyRef::adopt(b);
    });
const wire::BodyRegistrar atomic_refresh_codec(
    wire::kAtomicRefresh, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AtomicRefresh>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      return BodyRef::adopt(b);
    });

/// Message kinds, interned once so the send path never hits the table.
const KindId kReadReqKind("RREQ");
const KindId kReadRspKind("RRSP");
const KindId kWriteReqKind("WREQ");
const KindId kWriteAckKind("WACK");
const KindId kRefreshKind("RFSH");

}  // namespace

AtomicHomeProcess::AtomicHomeProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)) {}

void AtomicHomeProcess::on_attach() {
  read_req_pool_ = &arena().pool<AtomicReadRequest>();
  read_reply_pool_ = &arena().pool<AtomicReadReply>();
  write_req_pool_ = &arena().pool<AtomicWriteRequest>();
  write_ack_pool_ = &arena().pool<AtomicWriteAck>();
  refresh_pool_ = &arena().pool<AtomicRefresh>();
}

ProcessId AtomicHomeProcess::home_of(VarId x) const {
  const auto& replicas = replicas_of(x);
  PARDSM_CHECK(!replicas.empty(), "variable with no replicas");
  return replicas.front();
}

void AtomicHomeProcess::read(VarId x, ReadCallback done) {
  PARDSM_CHECK(replicates(x), "application read outside X_i");
  const ProcessId home = home_of(x);
  if (home == id()) {
    // The authoritative copy is local: linearization point is here.
    local_read(x, done);
    return;
  }
  ++mutable_stats().remote_reads;
  const std::uint64_t rpc = next_rpc_++;
  pending_reads_[rpc] = PendingRead{std::move(done), now()};

  auto* body = read_req_pool_->create();
  body->x = x;
  body->rpc = rpc;
  MessageMeta meta;
  meta.kind = kReadReqKind;
  meta.control_bytes = 8 + 8;
  meta.vars_mentioned = {x};
  emit_to(home, BodyRef::adopt(body), std::move(meta), /*urgent=*/true);
}

void AtomicHomeProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  const ProcessId home = home_of(x);
  const WriteId wid{id(), next_write_seq_++};
  if (home == id()) {
    const TimePoint t = now();
    mutable_store().put(x, v, wid);
    recorder().record_write(id(), x, v, wid, t, t);
    ++mutable_stats().writes;
    // Refresh the standby replicas.
    auto* refresh = refresh_pool_->create();
    refresh->x = x;
    refresh->v = v;
    refresh->id = wid;
    SendPlan plan;
    plan.body = BodyRef::adopt(refresh);
    plan.meta.kind = kRefreshKind;
    plan.meta.control_bytes = 16 + 8;
    plan.meta.payload_bytes = 8;
    plan.meta.vars_mentioned = {x};
    for (ProcessId q : replicas_of(x)) {
      if (q != id()) plan.to.push_back(q);
    }
    emit(std::move(plan));
    done();
    return;
  }
  ++mutable_stats().writes;
  const std::uint64_t rpc = next_rpc_++;
  PendingWrite pending;
  pending.x = x;
  pending.v = v;
  pending.id = wid;
  pending.done = std::move(done);
  pending.invoked = now();
  pending_writes_[rpc] = std::move(pending);

  auto* body = write_req_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;
  body->rpc = rpc;
  MessageMeta meta;
  meta.kind = kWriteReqKind;
  meta.control_bytes = 16 + 8 + 8;
  meta.payload_bytes = 8;
  meta.vars_mentioned = {x};
  emit_to(home, BodyRef::adopt(body), std::move(meta), /*urgent=*/true);
}

void AtomicHomeProcess::handle_message(const Message& m) {
  if (const auto* rr = m.try_as<AtomicReadRequest>()) {
    PARDSM_CHECK(home_of(rr->x) == id(), "read request at non-home");
    const Stored& s = mutable_store().get(rr->x);
    auto* reply = read_reply_pool_->create();
    reply->x = rr->x;
    reply->v = s.value;
    reply->source = s.source;
    reply->rpc = rr->rpc;
    MessageMeta meta;
    meta.kind = kReadRspKind;
    meta.control_bytes = 16 + 8 + 8;
    meta.payload_bytes = 8;
    meta.vars_mentioned = {rr->x};
    emit_to(m.from, BodyRef::adopt(reply), std::move(meta), /*urgent=*/true);
    return;
  }
  if (const auto* reply = m.try_as<AtomicReadReply>()) {
    auto it = pending_reads_.find(reply->rpc);
    if (it == pending_reads_.end()) return;  // duplicated reply
    PendingRead pending = std::move(it->second);
    pending_reads_.erase(it);
    recorder().record_read(id(), reply->x, reply->v, reply->source,
                           pending.invoked, now());
    pending.done(reply->v);
    return;
  }
  if (const auto* wr = m.try_as<AtomicWriteRequest>()) {
    PARDSM_CHECK(home_of(wr->x) == id(), "write request at non-home");
    // Apply at most once (duplicated requests re-ack but must not revert
    // the authoritative copy to an older value).
    if (applied_ids_.insert(wr->id)) {
      mutable_store().put(wr->x, wr->v, wr->id);
      ++mutable_stats().updates_applied;
    }
    // Refresh standbys (everyone in C(x) except home and writer).
    auto* refresh = refresh_pool_->create();
    refresh->x = wr->x;
    refresh->v = wr->v;
    refresh->id = wr->id;
    SendPlan rplan;
    rplan.body = BodyRef::adopt(refresh);
    rplan.meta.kind = kRefreshKind;
    rplan.meta.control_bytes = 16 + 8;
    rplan.meta.payload_bytes = 8;
    rplan.meta.vars_mentioned = {wr->x};
    for (ProcessId q : replicas_of(wr->x)) {
      if (q != id() && q != m.from) rplan.to.push_back(q);
    }
    emit(std::move(rplan));
    auto* ack = write_ack_pool_->create();
    ack->x = wr->x;
    ack->rpc = wr->rpc;
    MessageMeta meta;
    meta.kind = kWriteAckKind;
    meta.control_bytes = 8 + 8;
    meta.vars_mentioned = {wr->x};
    emit_to(m.from, BodyRef::adopt(ack), std::move(meta), /*urgent=*/true);
    return;
  }
  if (const auto* ack = m.try_as<AtomicWriteAck>()) {
    auto it = pending_writes_.find(ack->rpc);
    if (it == pending_writes_.end()) return;  // duplicated ack
    PendingWrite pending = std::move(it->second);
    pending_writes_.erase(it);
    recorder().record_write(id(), pending.x, pending.v, pending.id,
                            pending.invoked, now());
    pending.done();
    return;
  }
  const auto* refresh = m.try_as<AtomicRefresh>();
  PARDSM_CHECK(refresh != nullptr, "atomic-home: unexpected body");
  // Standby copy; never read while this process is not the home.
  if (replicates(refresh->x)) {
    mutable_store().put(refresh->x, refresh->v, refresh->id);
  }
}

}  // namespace pardsm::mcs
