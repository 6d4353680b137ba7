#include "mcs/causal_partial_adhoc.h"

#include <algorithm>

#include "simnet/wire.h"

namespace pardsm::mcs {

/// A dependency snapshot: entries in ascending-VarId order over one flat
/// counter array.  The writer's snapshot points at its layout
/// (StaticRelevance::layout[writer]) and copies only the counters; it is a
/// pooled refcounted body shared by every copy of the multicast (one
/// snapshot per write instead of one per recipient).  A decoded one owns
/// its entries, only those its recipient tracks, packed.
///
/// Recycling keeps both vectors' capacity: the writer refills the
/// counters by assignment, so a steady-state write never allocates.
struct DepSnapshotBody final : MessageBody {
  /// The writer's layout, or null on a decoded snapshot.  Like
  /// AdHocMsg::recipient_tracks it points into the analysis the system's
  /// processes share, so it is read only while they are alive.
  const std::vector<DepEntry>* layout = nullptr;
  std::vector<DepEntry> decoded;
  std::vector<std::int64_t> counters;

  [[nodiscard]] const std::vector<DepEntry>& entries() const {
    return layout != nullptr ? *layout : decoded;
  }

  void reset() {
    layout = nullptr;
    decoded.clear();
    counters.clear();
  }
};

/// Hoop-routed causal message.  `deps` is the dependency snapshot; the
/// receiver consults only the entries it tracks, through one span table
/// for the writer's shared snapshot and a decoded per-recipient one.
/// `recipient_tracks` (the recipient's StaticRelevance::tracks_mask row)
/// restricts the encoded frame to those entries — exactly the bytes
/// meta.control_bytes charges; decoded bodies are already restricted and
/// keep it null.  `var_seq` is the per-(writer, x) sequence number of
/// this write (1-based).
struct AdHocMsg final : MessageBody {
  VarId x = kNoVar;
  Value v = kBottom;
  bool has_value = false;
  WriteId id{};
  std::int64_t var_seq = 0;
  const std::uint8_t* recipient_tracks = nullptr;
  BodyRef deps;

  // Every creation site (the write fan-out and the wire decoder) assigns
  // all scalar fields before the body escapes.
  // pardsm-lint: overwritten-by-creator(x, v, has_value, id, var_seq)
  void reset() {
    recipient_tracks = nullptr;
    deps.reset();
  }

  [[nodiscard]] const DepSnapshotBody* snapshot() const {
    return static_cast<const DepSnapshotBody*>(deps.get());
  }

  [[nodiscard]] bool encodes(const DepEntry& e) const {
    return recipient_tracks == nullptr ||
           recipient_tracks[static_cast<std::size_t>(e.y)] != 0;
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
    const DepSnapshotBody& snap = *snapshot();
    std::uint32_t sent = 0;
    for (const DepEntry& e : snap.entries()) sent += encodes(e) ? 1 : 0;
    w.u32(sent);
    for (const DepEntry& e : snap.entries()) {
      if (!encodes(e)) continue;
      w.i32(e.y);
      w.u32(e.size);
      for (std::uint32_t k = 0; k < e.size; ++k) {
        w.i64(snap.counters[e.begin + k]);
      }
    }
  }
};

namespace {

const wire::BodyRegistrar adhoc_codec(
    wire::kAdHocMsg, [](WireReader& r, BodyArena& arena) -> BodyRef {
      auto* b = arena.create<AdHocMsg>();
      BodyRef owner = BodyRef::adopt(b);
      b->x = r.i32();
      b->v = r.i64();
      b->has_value = r.boolean();
      b->id = wire::get_write_id(r);
      b->var_seq = r.i64();
      auto* deps = arena.create<DepSnapshotBody>();
      b->deps = BodyRef::adopt(deps);
      // An entry is at least its variable and its counter count.
      deps->decoded.resize(wire::get_count(r, 4 + 4));
      for (DepEntry& e : deps->decoded) {
        e.y = r.i32();
        e.size = static_cast<std::uint32_t>(wire::get_count(r, 8));
        e.begin = static_cast<std::uint32_t>(deps->counters.size());
        for (std::uint32_t k = 0; k < e.size; ++k) {
          deps->counters.push_back(r.i64());
        }
      }
      return owner;
    });

/// Message kinds, interned once so the send path never hits the table.
const KindId kUpdateKind("AUPD");
const KindId kNotifyKind("ANOT");

/// True if some mine[k] may be below theirs[k] for k in [0, n): the sign
/// bit of mine[k] - theirs[k], OR-ed without a branch so the loop
/// vectorizes.  Own counters are never negative, so a lagging counter
/// always sets the bit; a hostile negative `theirs` can set it falsely,
/// which only sends the caller to its exact per-counter scan.
bool may_lag(const std::int64_t* mine, const std::int64_t* theirs,
             std::size_t n) {
  std::uint64_t sign = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sign |= static_cast<std::uint64_t>(mine[k]) -
            static_cast<std::uint64_t>(theirs[k]);
  }
  return (sign >> 63) != 0;
}

}  // namespace

std::shared_ptr<const StaticRelevance> StaticRelevance::analyze(
    const graph::Distribution& dist) {
  auto out = std::make_shared<StaticRelevance>();
  const std::size_t n = dist.process_count();
  const graph::ShareGraph sg(dist);
  out->relevant = graph::all_relevant_sets(sg);
  out->clique_size.resize(dist.var_count);
  out->layout.resize(n);
  out->tracks_mask.assign(n, std::vector<std::uint8_t>(dist.var_count, 0));
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto writers =
        static_cast<std::uint32_t>(sg.clique(static_cast<VarId>(x)).size());
    out->clique_size[x] = writers;
    for (ProcessId p : out->relevant[x]) {
      auto& layout = out->layout[static_cast<std::size_t>(p)];
      const std::uint64_t begin =
          layout.empty() ? 0 : layout.back().begin + layout.back().size;
      PARDSM_CHECK(begin + writers < 0xFFFF'FFFFULL,
                   "ad-hoc: too many counters for 32-bit buffer keys");
      layout.push_back(
          {static_cast<VarId>(x), static_cast<std::uint32_t>(begin), writers});
      out->tracks_mask[static_cast<std::size_t>(p)][x] = 1;
    }
  }
  // Every message w sends q carries w's entries on the variables q
  // tracks, whatever the written variable, so one sum per pair serves
  // all of w's writes.  Only pairs the fan-out uses are summed.
  out->pair_control_bytes.assign(n * n, 0);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    for (ProcessId w : sg.clique(static_cast<VarId>(x))) {
      const auto& lw = out->layout[static_cast<std::size_t>(w)];
      for (ProcessId q : out->relevant[x]) {
        auto& bytes = out->pair_control_bytes[static_cast<std::size_t>(w) * n +
                                              static_cast<std::size_t>(q)];
        if (q == w || bytes != 0) continue;
        const auto& q_mask = out->tracks_mask[static_cast<std::size_t>(q)];
        bytes = kFixedControlBytes;
        for (const DepEntry& e : lw) {
          if (q_mask[static_cast<std::size_t>(e.y)]) bytes += entry_bytes(e.size);
        }
      }
    }
  }
  return out;
}

CausalPartialAdHocProcess::CausalPartialAdHocProcess(
    ProcessId self, const graph::Distribution& dist,
    HistoryRecorder& recorder, std::shared_ptr<const CliqueTable> cliques,
    std::shared_ptr<const StaticRelevance> analysis)
    : McsProcess(self, dist, recorder, std::move(cliques)),
      analysis_(std::move(analysis)) {
  PARDSM_CHECK(analysis_ != nullptr, "ad-hoc protocol needs analysis");
  key_base_.assign(dist.var_count, kUntracked);
  const auto& own = analysis_->layout[static_cast<std::size_t>(self)];
  for (const DepEntry& e : own) {
    key_base_[static_cast<std::size_t>(e.y)] = e.begin;
  }
  const std::size_t keys = own.empty() ? 0 : own.back().begin + own.back().size;
  counters_.assign(keys, 0);
  buffer_.set_key_count(keys);
  compile_spans();
}

void CausalPartialAdHocProcess::compile_spans() {
  // The senders are the pairs the fan-out uses towards this process: every
  // writer of a variable tracked here.
  const std::size_t n = analysis_->layout.size();
  std::size_t count = 0;
  for (std::size_t w = 0; w < n; ++w) {
    count += analysis_->control_bytes(static_cast<ProcessId>(w), id()) != 0;
  }
  senders_.reserve(count);
  spans_.reserve(count);  // exact when both sides' layouts line up
  for (std::size_t w = 0; w < n; ++w) {
    if (analysis_->control_bytes(static_cast<ProcessId>(w), id()) == 0) {
      continue;
    }
    const std::size_t first = spans_.size();
    senders_.push_back(
        {static_cast<ProcessId>(w), static_cast<std::uint32_t>(first)});
    // The variables both track, in the sender's (ascending) order; a span
    // grows while both sides stay contiguous.
    std::uint32_t packed = 0;
    for (const DepEntry& e : analysis_->layout[w]) {
      const std::uint32_t mine = key_base_[static_cast<std::size_t>(e.y)];
      if (mine == kUntracked) continue;
      DepSpan* last = spans_.size() > first ? &spans_.back() : nullptr;
      if (last != nullptr && last->theirs + last->size == e.begin &&
          last->mine + last->size == mine) {
        last->size += e.size;
      } else {
        spans_.push_back({e.begin, packed, mine, e.size});
      }
      packed += e.size;
    }
  }
}

std::pair<std::size_t, std::size_t> CausalPartialAdHocProcess::spans_of(
    ProcessId from) const {
  const auto it = std::lower_bound(
      senders_.begin(), senders_.end(), from,
      [](const Sender& s, ProcessId p) { return s.who < p; });
  PARDSM_CHECK(it != senders_.end() && it->who == from,
               "ad-hoc: message from a process that writes nothing tracked "
               "here");
  const auto next = it + 1;
  return {it->first, next == senders_.end() ? spans_.size() : next->first};
}

bool CausalPartialAdHocProcess::expected_entries(
    ProcessId from, const DepSnapshotBody& snap) const {
  if (from < 0 || static_cast<std::size_t>(from) >= analysis_->layout.size()) {
    return false;
  }
  // The decoder lays the counters out packed, in entry order.
  std::size_t j = 0;
  for (const DepEntry& e : analysis_->layout[static_cast<std::size_t>(from)]) {
    if (key_base_[static_cast<std::size_t>(e.y)] == kUntracked) continue;
    if (j == snap.decoded.size()) return false;
    const DepEntry& got = snap.decoded[j++];
    if (got.y != e.y || got.size != e.size) return false;
  }
  return j == snap.decoded.size();
}

void CausalPartialAdHocProcess::on_attach() {
  msg_pool_ = &arena().pool<AdHocMsg>();
  snap_pool_ = &arena().pool<DepSnapshotBody>();
}

std::int64_t CausalPartialAdHocProcess::seen(VarId y, ProcessId k) const {
  const std::uint32_t base = base_of(y);
  if (base == kUntracked) return 0;
  const std::size_t pos = writer_pos(y, k);
  return pos == kNotWriter ? 0 : counters_[base + pos];
}

std::uint32_t CausalPartialAdHocProcess::base_of(VarId y) const {
  const auto yi = static_cast<std::size_t>(y);
  return y >= 0 && yi < key_base_.size() ? key_base_[yi] : kUntracked;
}

std::size_t CausalPartialAdHocProcess::writer_pos(VarId y, ProcessId k) const {
  const auto& c = replicas_of(y);
  const auto it = std::lower_bound(c.begin(), c.end(), k);
  if (it == c.end() || *it != k) return kNotWriter;
  return static_cast<std::size_t>(it - c.begin());
}

void CausalPartialAdHocProcess::read(VarId x, ReadCallback done) {
  local_read(x, done);
}

void CausalPartialAdHocProcess::write(VarId x, Value v, WriteCallback done) {
  PARDSM_CHECK(replicates(x), "application write outside X_i");
  const WriteId wid{id(), next_write_seq_++};
  const TimePoint t = now();

  // Dependencies are the counters BEFORE counting this write, so
  // `counters_` is left untouched until every message is built.
  const std::uint32_t base = base_of(x);
  PARDSM_CHECK(base != kUntracked, "ad-hoc: write on untracked variable");
  auto& own = counters_[base + writer_pos(x, id())];
  const std::int64_t var_seq = own + 1;

  mutable_store().put(x, v, wid);
  recorder().record_write(id(), x, v, wid, t, t);
  ++mutable_stats().writes;

  // One shared snapshot per write: this process's layout and a copy of
  // its counters.  Each recipient's frame and meta carry only the entries
  // that recipient tracks.
  auto* deps = snap_pool_->create();
  deps->layout = &analysis_->layout[static_cast<std::size_t>(id())];
  deps->counters.assign(counters_.begin(), counters_.end());
  const BodyRef deps_ref = BodyRef::adopt(deps);

  for (ProcessId q : analysis_->relevant[static_cast<std::size_t>(x)]) {
    if (q == id()) continue;
    auto* body = msg_pool_->create();
    body->x = x;
    body->id = wid;
    body->var_seq = var_seq;
    body->has_value = clique_holds(q, x);
    body->v = body->has_value ? v : kBottom;
    body->recipient_tracks =
        analysis_->tracks_mask[static_cast<std::size_t>(q)].data();
    body->deps = deps_ref;

    MessageMeta meta;
    meta.kind = body->has_value ? kUpdateKind : kNotifyKind;
    meta.control_bytes = analysis_->control_bytes(id(), q);
    meta.payload_bytes = body->has_value ? 8 : 0;
    meta.vars_mentioned = {x};

    // Control bytes are restricted per recipient, so each gets its own
    // single-destination plan (in the pre-seam ascending order).
    emit_to(q, BodyRef::adopt(body), std::move(meta));
  }
  own = var_seq;
  done();
}

void CausalPartialAdHocProcess::handle_message(const Message& m) {
  const auto* u = m.try_as<AdHocMsg>();
  PARDSM_CHECK(u != nullptr, "ad-hoc: unexpected message body");
  // A decoded snapshot is outside input: its entries must be exactly the
  // ones the span table expects, checked once here, before any walk.
  const DepSnapshotBody* snap = u->snapshot();
  PARDSM_CHECK(snap->layout != nullptr || expected_entries(m.from, *snap),
               "ad-hoc: dependency entries are not the (y, |C(y)|) list "
               "both ends track");
  buffer_.arrive(m, *this, mutable_stats());
}

std::uint32_t CausalPartialAdHocProcess::fifo_key(const AdHocMsg& u,
                                                  ProcessId from) const {
  const std::uint32_t base = base_of(u.x);
  PARDSM_CHECK(base != kUntracked,
               "ad-hoc: received metadata for an untracked variable — "
               "routing violates Theorem 1 sets");
  const std::size_t pos = writer_pos(u.x, from);
  PARDSM_CHECK(pos != kNotWriter,
               "ad-hoc: update from a process outside C(x)");
  return base + static_cast<std::uint32_t>(pos);
}

Readiness CausalPartialAdHocProcess::check(const Message& m,
                                           std::uint64_t& resume) const {
  const auto* u = m.try_as<AdHocMsg>();  // checked by handle_message

  // Per-(writer, var) FIFO: this must be the next write of the sender on x
  // that we incorporate; a write already counted is a stale copy.
  const std::uint32_t key = fifo_key(*u, m.from);
  const std::int64_t have = counters_[key];
  if (have >= u->var_seq) return Readiness::stale();
  if (have != u->var_seq - 1) return Readiness::wait(key);

  // Dependency domination for every variable both track (entries we do
  // not track carry no constraint for us), span by span in the sender's
  // ascending order, so the first failing counter is the lowest-id
  // lagging writer of the lowest lagging variable.  The cursor packs
  // (span, offset) of the first unchecked counter.
  const DepSnapshotBody* snap = u->snapshot();
  const bool packed = snap->layout == nullptr;
  PARDSM_DCHECK(packed || &snap->entries() ==
                              &analysis_->layout[static_cast<std::size_t>(m.from)],
                "ad-hoc: snapshot layout is not the sender's");
  const auto [first, last] = spans_of(m.from);
  std::size_t i = first + (resume >> 32);
  std::size_t k = resume & 0xFFFF'FFFFU;
  for (; i < last; ++i, k = 0) {
    const DepSpan& s = spans_[i];
    const std::int64_t* mine = counters_.data() + s.mine;
    const std::int64_t* theirs =
        snap->counters.data() + (packed ? s.packed : s.theirs);
    if (!may_lag(mine + k, theirs + k, s.size - k)) continue;
    for (; k < s.size; ++k) {
      if (mine[k] < theirs[k]) {
        resume = (static_cast<std::uint64_t>(i - first) << 32) | k;
        return Readiness::wait(s.mine + static_cast<std::uint32_t>(k));
      }
    }
  }
  resume = static_cast<std::uint64_t>(last - first) << 32;
  return Readiness::ready();
}

std::uint32_t CausalPartialAdHocProcess::deliver(const Message& m) {
  const auto* u = m.try_as<AdHocMsg>();  // checked by handle_message
  const std::uint32_t key = fifo_key(*u, m.from);
  counters_[key] = u->var_seq;
  if (u->has_value && replicates(u->x)) {
    mutable_store().put(u->x, u->v, u->id);
    ++mutable_stats().updates_applied;
  }
  return key;
}

}  // namespace pardsm::mcs
