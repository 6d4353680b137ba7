#include "mcs/cache_partial.h"

#include <algorithm>

#include "mcs/cache_messages.h"

namespace pardsm::mcs {

namespace {

/// Message kinds, interned once so the send path never hits the table.
const KindId kWriteReqKind("CWRQ");
const KindId kCommitKind("CCMT");

// Decoders for the shared cache/processor bodies live here (exactly one TU
// may register each tag; processor_partial.cpp reuses these bodies).
const wire::BodyRegistrar cache_wreq_codec(
    wire::kCacheWriteReq, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<detail::CacheWriteReq>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->invoked = wire::get_time(r);
      b->writer_seq = r.i64();
      detail::get_prior_counts(r, b->prior_counts);
      return BodyRef::adopt(b);
    });
const wire::BodyRegistrar cache_commit_codec(
    wire::kCacheCommit, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<detail::CacheCommit>();
      b->x = r.i32();
      b->v = r.i64();
      b->id = wire::get_write_id(r);
      b->var_seq = r.i64();
      b->requester = r.i32();
      b->invoked = wire::get_time(r);
      b->writer_seq = r.i64();
      detail::get_prior_counts(r, b->prior_counts);
      return BodyRef::adopt(b);
    });

}  // namespace

CachePartialProcess::CachePartialProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : McsProcess(self, dist, recorder, std::move(cliques)) {}

void CachePartialProcess::on_attach() {
  request_pool_ = &arena().pool<detail::CacheWriteReq>();
  commit_pool_ = &arena().pool<detail::CacheCommit>();
}

ProcessId CachePartialProcess::home_of(VarId x) const {
  const auto& replicas = replicas_of(x);
  PARDSM_CHECK(!replicas.empty(), "variable with no replicas");
  return replicas.front();
}

void CachePartialProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void CachePartialProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  const WriteId wid{id(), next_write_seq_};
  const std::int64_t writer_seq = next_write_seq_++;
  const TimePoint t = now();

  PendingWrite pending;
  pending.x = x;
  pending.v = v;
  pending.id = wid;
  pending.done = std::move(done);
  pending.invoked = t;
  waiting_[wid] = std::move(pending);
  ++mutable_stats().writes;

  const auto priors = prior_counts_for(x);

  if (home_of(x) == id()) {
    sequence(x, v, wid, id(), t, writer_seq, priors);
    return;
  }
  auto* body = request_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;
  body->invoked = t;
  body->writer_seq = writer_seq;
  body->prior_counts = priors;

  MessageMeta meta;
  meta.kind = kWriteReqKind;
  meta.control_bytes = 16 + 8 + 8 + 16 * priors.size();
  meta.payload_bytes = 8;
  meta.vars_mentioned = {x};
  emit_to(home_of(x), BodyRef::adopt(body), std::move(meta), /*urgent=*/true);
}

detail::PriorCounts CachePartialProcess::prior_counts_for(VarId) {
  return {};  // plain cache consistency needs no cross-variable metadata
}

void CachePartialProcess::sequence(VarId x, Value v, WriteId wid,
                                   ProcessId requester, TimePoint invoked,
                                   std::int64_t writer_seq,
                                   const detail::PriorCounts& prior_counts) {
  PARDSM_CHECK(home_of(x) == id(), "sequence() at non-home");
  const std::int64_t seq = ++var_seq_[x];

  auto* body = commit_pool_->create();
  body->x = x;
  body->v = v;
  body->id = wid;
  body->var_seq = seq;
  body->requester = requester;
  body->invoked = invoked;
  body->writer_seq = writer_seq;
  body->prior_counts = prior_counts;
  // One commit body, two holders: the multicast plan and the home-local
  // delivery below share it by refcount.
  const BodyRef commit_ref = BodyRef::adopt(body);

  MessageMeta meta;
  meta.kind = kCommitKind;
  meta.control_bytes = 16 + 8 + 8 + 8 + 8 + 16 * prior_counts.size();
  meta.payload_bytes = 8;
  meta.vars_mentioned = {x};

  // Urgent: the requester's write completes only when its commit lands.
  SendPlan plan;
  plan.body = commit_ref;
  plan.meta = meta;
  plan.urgent = true;
  for (ProcessId q : replicas_of(x)) {
    if (q != id()) plan.to.push_back(q);
  }
  emit(std::move(plan));
  // Home-local copy of the commit.
  Message self_msg;
  self_msg.from = id();
  self_msg.to = id();
  self_msg.body = commit_ref;
  self_msg.meta = meta;
  handle_commit(self_msg);
}

void CachePartialProcess::handle_commit(const Message& m) {
  if (commit_ready(m)) {
    apply_commit(m);
    // Applying one commit can unblock buffered ones (PC subclass).
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = buffer_.begin(); it != buffer_.end(); ++it) {
        if (commit_ready(*it)) {
          const Message msg = *it;
          buffer_.erase(it);
          apply_commit(msg);
          progress = true;
          break;
        }
      }
    }
  } else {
    buffer_.push_back(m);
    mutable_stats().max_buffer_depth =
        std::max(mutable_stats().max_buffer_depth,
                 static_cast<std::uint64_t>(buffer_.size()));
  }
}

bool CachePartialProcess::commit_ready(const Message&) { return true; }

void CachePartialProcess::apply_commit(const Message& m) {
  const auto* c = m.try_as<detail::CacheCommit>();
  PARDSM_CHECK(c != nullptr, "cache: unexpected commit body");
  // Duplicate suppression: originals arrive in var_seq order (FIFO from
  // the home); a late duplicate must not revert the replica.
  auto [seq_it, first] = applied_var_seq_.try_emplace(c->x, 0);
  if (c->var_seq <= seq_it->second) return;
  seq_it->second = c->var_seq;

  if (replicates(c->x)) {
    mutable_store().put(c->x, c->v, c->id);
    ++mutable_stats().updates_applied;
  }
  on_applied(c->id.writer);
  if (c->requester == id()) {
    auto it = waiting_.find(c->id);
    if (it == waiting_.end()) return;  // duplicated own commit
    PendingWrite pending = std::move(it->second);
    waiting_.erase(it);
    recorder().record_write(id(), pending.x, pending.v, pending.id,
                            pending.invoked, now());
    pending.done();
  }
}

void CachePartialProcess::on_applied(ProcessId) {}

void CachePartialProcess::handle_message(const Message& m) {
  if (const auto* req = m.try_as<detail::CacheWriteReq>()) {
    sequence(req->x, req->v, req->id, m.from, req->invoked, req->writer_seq,
             req->prior_counts);
    return;
  }
  PARDSM_CHECK(m.try_as<detail::CacheCommit>() != nullptr,
               "cache: unexpected message body");
  handle_commit(m);
}

}  // namespace pardsm::mcs
