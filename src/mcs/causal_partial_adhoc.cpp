#include "mcs/causal_partial_adhoc.h"

#include "simnet/wire.h"

namespace pardsm::mcs {

/// The writer's seen-counters at send time, in VarId order, as a pooled
/// refcounted body shared by every copy of the multicast (one snapshot
/// per write instead of one per recipient).
///
/// Recycling keeps `entries` — including every inner counter vector —
/// constructed; only the live-prefix length resets.  Refilling assigns
/// into the retained storage, so a steady-state write never allocates.
struct DepSnapshotBody final : MessageBody {
  std::vector<std::pair<VarId, std::vector<std::int64_t>>> entries;
  std::size_t count = 0;  ///< live prefix of `entries`

  // `entries` is deliberately retained across recycles (that is the whole
  // point of the pool); only the [0, count) prefix is ever read, and
  // next_slot() hands each prefix slot out for assignment before use.
  // pardsm-lint: overwritten-by-creator(entries)
  void reset() { count = 0; }

  /// Grow the live prefix by one slot (reusing a retained entry when one
  /// exists) and return it for assignment.
  [[nodiscard]] std::pair<VarId, std::vector<std::int64_t>>& next_slot() {
    if (count == entries.size()) entries.emplace_back();
    return entries[count++];
  }
};

/// Hoop-routed causal message.  `deps` holds the sender's full pre-write
/// dependency snapshot; receivers only consult the entries they track,
/// and the control-byte accounting counts only those entries — exactly
/// the bytes a real implementation would put on the wire for that
/// recipient.  `var_seq` is the per-(writer, x) sequence number of this
/// write (1-based).
struct AdHocMsg final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  bool has_value = false;
  WriteId id{};
  std::int64_t var_seq = 0;
  BodyRef deps;

  // Every creation site (the write fan-out and the wire decoder) assigns
  // all scalar fields before the body escapes.
  // pardsm-lint: overwritten-by-creator(x, v, has_value, id, var_seq)
  void reset() { deps.reset(); }

  [[nodiscard]] const DepSnapshotBody* snapshot() const {
    return static_cast<const DepSnapshotBody*>(deps.get());
  }

  [[nodiscard]] std::uint32_t wire_type() const override {
    return wire::kAdHocMsg;
  }
  void wire_encode(WireWriter& w) const override {
    w.i32(x);
    w.i64(v);
    w.boolean(has_value);
    wire::put_write_id(w, id);
    w.i64(var_seq);
    // The in-memory snapshot is shared by every copy of the multicast; on
    // the wire each frame carries its own copy (real frames cannot share).
    const DepSnapshotBody* snap = snapshot();
    w.u32(static_cast<std::uint32_t>(snap ? snap->count : 0));
    if (snap) {
      for (std::size_t i = 0; i < snap->count; ++i) {
        const auto& [y, counts] = snap->entries[i];
        w.i32(y);
        w.u32(static_cast<std::uint32_t>(counts.size()));
        for (std::int64_t c : counts) w.i64(c);
      }
    }
  }
};

namespace {

const wire::BodyRegistrar adhoc_codec(
    wire::kAdHocMsg, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AdHocMsg>();
      b->x = r.i32();
      b->v = r.i64();
      b->has_value = r.boolean();
      b->id = wire::get_write_id(r);
      b->var_seq = r.i64();
      auto* deps = arena.create<DepSnapshotBody>();
      const std::size_t vars = r.u32();
      for (std::size_t i = 0; i < vars; ++i) {
        auto& [y, counts] = deps->next_slot();
        y = r.i32();
        counts.resize(r.u32());
        for (auto& c : counts) c = r.i64();
      }
      b->deps = BodyRef::adopt(deps);
      return BodyRef::adopt(b);
    });

/// Message kinds, interned once so the send path never hits the table.
const KindId kUpdateKind("AUPD");
const KindId kNotifyKind("ANOT");

}  // namespace

std::shared_ptr<const StaticRelevance> StaticRelevance::analyze(
    const graph::Distribution& dist) {
  auto out = std::make_shared<StaticRelevance>();
  const graph::ShareGraph sg(dist);
  out->relevant = graph::all_relevant_sets(sg);
  out->tracks.resize(dist.process_count());
  out->tracks_mask.assign(dist.process_count(),
                          std::vector<std::uint8_t>(dist.var_count, 0));
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    for (ProcessId p : out->relevant[x]) {
      out->tracks[static_cast<std::size_t>(p)].push_back(
          static_cast<VarId>(x));
      out->tracks_mask[static_cast<std::size_t>(p)][x] = 1;
    }
  }
  return out;
}

CausalPartialAdHocProcess::CausalPartialAdHocProcess(
    ProcessId self, const graph::Distribution& dist,
    HistoryRecorder& recorder,
    std::shared_ptr<const StaticRelevance> analysis)
    : McsProcess(self, dist, recorder), analysis_(std::move(analysis)) {
  PARDSM_CHECK(analysis_ != nullptr, "ad-hoc protocol needs analysis");
  seen_.resize(dist.var_count);
  key_base_.resize(dist.var_count);
  const std::size_t n = dist.process_count();
  const auto& tracked = analysis_->tracks[static_cast<std::size_t>(self)];
  PARDSM_CHECK(tracked.size() * n < 0xFFFF'FFFFU,
               "ad-hoc: too many counters for 32-bit buffer keys");
  for (std::size_t t = 0; t < tracked.size(); ++t) {
    const auto y = static_cast<std::size_t>(tracked[t]);
    seen_[y].assign(n, 0);
    key_base_[y] = static_cast<std::uint32_t>(t * n);
  }
  buffer_.set_key_count(tracked.size() * n);
}

void CausalPartialAdHocProcess::on_attach() {
  msg_pool_ = &arena().pool<AdHocMsg>();
  snap_pool_ = &arena().pool<DepSnapshotBody>();
}

std::int64_t CausalPartialAdHocProcess::seen(VarId y, ProcessId k) const {
  const auto yi = static_cast<std::size_t>(y);
  if (y < 0 || yi >= seen_.size() || seen_[yi].empty()) return 0;
  return seen_[yi][static_cast<std::size_t>(k)];
}

void CausalPartialAdHocProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void CausalPartialAdHocProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  const WriteId wid{id(), next_write_seq_++};
  const TimePoint t = now();

  // Dependencies are the counters BEFORE counting this write, so `seen_`
  // is left untouched until every message is built (avoids snapshotting
  // the whole table per write).
  auto& own = seen_[static_cast<std::size_t>(x)];
  PARDSM_CHECK(!own.empty(), "ad-hoc: write on untracked variable");
  const std::int64_t var_seq = own[static_cast<std::size_t>(id())] + 1;

  mutable_store().put(x, v, wid);
  recorder().record_write(id(), x, v, wid, t, t);
  ++mutable_stats().writes;

  const auto& relevant = analysis_->relevant[static_cast<std::size_t>(x)];

  // One shared snapshot per write, in ascending-VarId order (tracks[self]
  // is sorted — the same order the tracked-map iteration produced); each
  // recipient's meta still charges only the entries that recipient
  // tracks.
  auto* deps = snap_pool_->create();
  for (VarId y : analysis_->tracks[static_cast<std::size_t>(id())]) {
    auto& [slot_y, slot_counts] = deps->next_slot();
    slot_y = y;
    slot_counts = seen_[static_cast<std::size_t>(y)];  // retained capacity
  }
  const BodyRef deps_ref = BodyRef::adopt(deps);

  for (ProcessId q : relevant) {
    if (q == id()) continue;
    const auto& q_mask = analysis_->tracks_mask[static_cast<std::size_t>(q)];

    auto* body = msg_pool_->create();
    body->x = x;
    body->id = wid;
    body->var_seq = var_seq;
    body->has_value = clique_holds(q, x);
    body->v = body->has_value ? v : kBottom;
    body->deps = deps_ref;

    // Control bytes: pre-write counters restricted to variables q also
    // tracks.
    std::uint64_t dep_bytes = 0;
    for (std::size_t i = 0; i < deps->count; ++i) {
      const auto& [y, counts] = deps->entries[i];
      if (!q_mask[static_cast<std::size_t>(y)]) continue;
      dep_bytes += 8 + 8 * counts.size();
    }

    MessageMeta meta;
    meta.kind = body->has_value ? kUpdateKind : kNotifyKind;
    meta.control_bytes = 16 /*write id*/ + 8 /*var*/ + 8 /*var_seq*/ +
                         dep_bytes;
    meta.payload_bytes = body->has_value ? 8 : 0;
    meta.vars_mentioned = {x};

    // Control bytes are restricted per recipient, so each gets its own
    // single-destination plan (in the pre-seam ascending order).
    emit_to(q, BodyRef::adopt(body), std::move(meta));
  }
  own[static_cast<std::size_t>(id())] = var_seq;
  done();
}

void CausalPartialAdHocProcess::handle_message(const Message& m) {
  buffer_.arrive(m, *this, mutable_stats());
}

std::uint32_t CausalPartialAdHocProcess::key_of(std::size_t y,
                                                std::size_t k) const {
  return key_base_[y] + static_cast<std::uint32_t>(k);
}

Readiness CausalPartialAdHocProcess::check(const Message& m,
                                           std::uint64_t& resume) const {
  const auto* u = m.as<AdHocMsg>();
  PARDSM_CHECK(u != nullptr, "ad-hoc: unexpected message body");

  // Per-(writer, var) FIFO: this must be the next write of the sender on x
  // that we incorporate; a write already counted is a stale copy.
  const auto xi = static_cast<std::size_t>(u->x);
  PARDSM_CHECK(xi < seen_.size() && !seen_[xi].empty(),
               "ad-hoc: received metadata for an untracked variable — "
               "routing violates Theorem 1 sets");
  const auto from = static_cast<std::size_t>(m.from);
  const std::int64_t have = seen_[xi][from];
  if (have >= u->var_seq) return Readiness::stale();
  if (have != u->var_seq - 1) return Readiness::wait(key_of(xi, from));

  // Dependency domination for every variable we track (entries of the
  // shared snapshot we do not track carry no constraint for us).  The
  // cursor packs (snapshot entry, writer) of the first unchecked counter.
  const DepSnapshotBody* snap = u->snapshot();
  std::size_t i = resume >> 32;
  std::size_t k = resume & 0xFFFF'FFFFU;
  for (; i < snap->count; ++i, k = 0) {
    const auto& [y, counts] = snap->entries[i];
    const auto yi = static_cast<std::size_t>(y);
    if (yi >= seen_.size() || seen_[yi].empty()) continue;  // not tracked
    const auto& mine = seen_[yi];
    for (; k < counts.size(); ++k) {
      if (mine[k] < counts[k]) {
        resume = (static_cast<std::uint64_t>(i) << 32) | k;
        return Readiness::wait(key_of(yi, k));
      }
    }
  }
  resume = static_cast<std::uint64_t>(i) << 32;
  return Readiness::ready();
}

std::uint32_t CausalPartialAdHocProcess::deliver(const Message& m) {
  const auto* u = m.as<AdHocMsg>();
  const auto xi = static_cast<std::size_t>(u->x);
  seen_[xi][static_cast<std::size_t>(m.from)] = u->var_seq;
  if (u->has_value && replicates(u->x)) {
    mutable_store().put(u->x, u->v, u->id);
    ++mutable_stats().updates_applied;
  }
  return key_of(xi, static_cast<std::size_t>(m.from));
}

}  // namespace pardsm::mcs
