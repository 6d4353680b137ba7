#include "mcs/sequencer_sc.h"

#include "simnet/wire.h"

namespace pardsm::mcs {

struct SeqWriteRequest final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};
  TimePoint invoked{};

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kSeqWriteRequest;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
    wire::put_time(w, invoked);
  }
};

struct SeqWriteCommit final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  WriteId id{};
  std::int64_t gseq = 0;
  ProcessId requester = kNoProcess;
  TimePoint invoked{};

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kSeqWriteCommit;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    wire::put_write_id(w, id);
    w.i64(gseq);
    w.i32(requester);
    wire::put_time(w, invoked);
  }
};

namespace {

const wire::BodyRegistrar seq_req_codec(
    wire::kSeqWriteRequest, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<SeqWriteRequest>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->invoked = wire::get_time(r);
      return BodyRef::adopt(b);
    });

const wire::BodyRegistrar seq_commit_codec(
    wire::kSeqWriteCommit, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<SeqWriteCommit>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->gseq = r.i64();
      b->requester = r.i32();
      b->invoked = wire::get_time(r);
      return BodyRef::adopt(b);
    });

/// Message kinds, interned once so the send path never hits the table.
const KindId kWriteReqKind("WREQ");
const KindId kCommitKind("WCMT");

}  // namespace

SequencerScProcess::SequencerScProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)) {}

void SequencerScProcess::on_attach() {
  request_pool_ = &arena().pool<SeqWriteRequest>();
  commit_pool_ = &arena().pool<SeqWriteCommit>();
}

void SequencerScProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void SequencerScProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  const WriteId wid{id(), next_write_seq_++};
  const TimePoint t = now();
  waiting_[wid] = std::move(done);
  invoked_at_[wid] = t;
  ++mutable_stats().writes;

  if (id() == kSequencer) {
    sequence_write(x, v, wid, id(), t);
    return;
  }
  auto* body = request_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;
  body->invoked = t;

  MessageMeta meta;
  meta.kind = kWriteReqKind;
  meta.control_bytes = 16 + 8;
  meta.payload_bytes = 8;
  meta.vars_mentioned = {x};
  emit_to(kSequencer, BodyRef::adopt(body), std::move(meta), /*urgent=*/true);
}

void SequencerScProcess::sequence_write(VarId x, Value v, WriteId wid,
                                        ProcessId requester,
                                        TimePoint invoked) {
  // A duplicated request must not be sequenced twice.
  if (!sequenced_ids_.insert(wid)) return;
  ++global_seq_;
  ++sequenced_;
  auto* body = commit_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;
  body->gseq = global_seq_;
  body->requester = requester;
  body->invoked = invoked;

  // Urgent: the requester's write completes only when its commit lands.
  SendPlan plan;
  plan.body = BodyRef::adopt(body);
  plan.meta.kind = kCommitKind;
  plan.meta.control_bytes = 16 + 8 + 8 + 8;
  plan.meta.payload_bytes = 8;
  plan.meta.vars_mentioned = {x};
  plan.urgent = true;
  for (ProcessId q : replicas_of(x)) {
    if (q != id()) plan.to.push_back(q);
  }
  emit(std::move(plan));
  // Local application on the sequencer (if it replicates x).
  if (replicates(x)) {
    apply_commit(x, v, wid, requester, invoked, global_seq_);
  } else if (requester == id()) {
    PARDSM_CHECK(false, "writer must replicate its own variable");
  }
}

void SequencerScProcess::apply_commit(VarId x, Value v, WriteId wid,
                                      ProcessId requester, TimePoint invoked,
                                      std::int64_t gseq) {
  // Duplicate suppression: commits arrive in ascending gseq (FIFO from the
  // sequencer); a late duplicate must not revert the replica.
  if (gseq <= last_gseq_applied_) return;
  last_gseq_applied_ = gseq;
  if (replicates(x)) {
    mutable_store().put(x, v, wid);
    ++mutable_stats().updates_applied;
  }
  if (requester == id()) {
    // Our own write is now globally ordered and locally applied: complete.
    recorder().record_write(id(), x, v, wid, invoked, now());
    auto it = waiting_.find(wid);
    PARDSM_CHECK(it != waiting_.end(), "commit for unknown pending write");
    auto done = std::move(it->second);
    waiting_.erase(it);
    invoked_at_.erase(wid);
    done();
  }
}

void SequencerScProcess::handle_message(const Message& m) {
  if (const auto* req = m.try_as<SeqWriteRequest>()) {
    PARDSM_CHECK(id() == kSequencer, "write request sent to non-sequencer");
    sequence_write(req->x, req->v, req->id, m.from, req->invoked);
    return;
  }
  const auto* commit = m.try_as<SeqWriteCommit>();
  PARDSM_CHECK(commit != nullptr, "sequencer-sc: unexpected message body");
  apply_commit(commit->x, commit->v, commit->id, commit->requester,
               commit->invoked, commit->gseq);
}

}  // namespace pardsm::mcs
