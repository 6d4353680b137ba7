#include "mcs/recorder.h"

#include "simnet/check.h"

namespace pardsm::mcs {

void HistoryRecorder::use_canonical_order() {
  PARDSM_CHECK(size() == 0,
               "use_canonical_order: operations already recorded");
  canonical_ = true;
}

void HistoryRecorder::use_discard_mode() {
  PARDSM_CHECK(size() == 0, "use_discard_mode: operations already recorded");
  discard_ = true;
}

std::uint64_t HistoryRecorder::discarded_ops() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) total += s.discarded;
  return total;
}

void HistoryRecorder::record_write(ProcessId p, VarId x, Value v, WriteId id,
                                   TimePoint invoked, TimePoint responded) {
  if (discard_) {
    ++slots_[static_cast<std::size_t>(p)].discarded;
    return;
  }
  if (canonical_) {
    slots_[static_cast<std::size_t>(p)].pending.push_back(
        {true, x, v, id, invoked, responded});
    return;
  }
  std::lock_guard lock(mu_);
  const auto op = history_.push_write(p, x, v, id);
  history_.set_interval(op, invoked, responded);
}

void HistoryRecorder::record_read(ProcessId p, VarId x, Value value,
                                  WriteId source, TimePoint invoked,
                                  TimePoint responded) {
  if (discard_) {
    ++slots_[static_cast<std::size_t>(p)].discarded;
    return;
  }
  if (canonical_) {
    slots_[static_cast<std::size_t>(p)].pending.push_back(
        {false, x, value, source, invoked, responded});
    return;
  }
  std::lock_guard lock(mu_);
  const auto op = history_.push_read(p, x, value, source);
  history_.set_interval(op, invoked, responded);
}

hist::History HistoryRecorder::build_canonical() const {
  // (process, program order): every local history is that process's own
  // deterministic execution, so the rebuilt History is independent of how
  // the processes' operations interleaved in wall time.
  hist::History h(process_count_, var_count_);
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    for (const PendingOp& op : slots_[p].pending) {
      const auto idx =
          op.is_write
              ? h.push_write(static_cast<ProcessId>(p), op.x, op.value, op.id)
              : h.push_read(static_cast<ProcessId>(p), op.x, op.value, op.id);
      h.set_interval(idx, op.invoked, op.responded);
    }
  }
  return h;
}

hist::History HistoryRecorder::history() const {
  if (canonical_) return build_canonical();
  std::lock_guard lock(mu_);
  return history_;
}

hist::History HistoryRecorder::take_history() {
  if (canonical_) {
    hist::History h = build_canonical();
    for (Slot& s : slots_) s.pending = {};
    return h;
  }
  std::lock_guard lock(mu_);
  return std::move(history_);
}

std::size_t HistoryRecorder::size() const {
  if (discard_) return static_cast<std::size_t>(discarded_ops());
  if (canonical_) {
    std::size_t total = 0;
    for (const Slot& s : slots_) total += s.pending.size();
    return total;
  }
  std::lock_guard lock(mu_);
  return history_.size();
}

}  // namespace pardsm::mcs
