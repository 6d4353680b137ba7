#include "simnet/stats.h"

#include <algorithm>

#include "simnet/check.h"

namespace pardsm {

void NetworkStats::resize(std::size_t n) {
  std::lock_guard lock(mu_);
  per_process_.assign(n, ProcessTraffic{});
  exposure_.assign(n, std::vector<std::uint64_t>(var_hint_, 0));
}

void NetworkStats::set_var_hint(std::size_t m) {
  std::lock_guard lock(mu_);
  if (m <= var_hint_) return;
  var_hint_ = m;
  for (auto& row : exposure_) {
    if (row.size() < m) row.resize(m, 0);
  }
}

std::size_t NetworkStats::var_hint() const {
  std::lock_guard lock(mu_);
  return var_hint_;
}

void NetworkStats::presize_exposure_row(ProcessId p, std::size_t m) {
  std::lock_guard lock(mu_);
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < exposure_.size(),
               "presize_exposure_row: bad process");
  auto& row = exposure_[static_cast<std::size_t>(p)];
  if (row.size() < m) row.resize(m, 0);
}

void NetworkStats::on_send(const Message& m) {
  std::lock_guard lock(mu_);
  PARDSM_CHECK(m.from >= 0 &&
                   static_cast<std::size_t>(m.from) < per_process_.size(),
               "on_send: bad sender");
  auto& t = per_process_[static_cast<std::size_t>(m.from)];
  ++t.msgs_sent;
  t.control_bytes_sent += m.meta.control_bytes;
  t.payload_bytes_sent += m.meta.payload_bytes;
}

void NetworkStats::on_deliver(const Message& m) {
  std::lock_guard lock(mu_);
  PARDSM_CHECK(m.to >= 0 &&
                   static_cast<std::size_t>(m.to) < per_process_.size(),
               "on_deliver: bad receiver");
  auto& t = per_process_[static_cast<std::size_t>(m.to)];
  ++t.msgs_received;
  t.control_bytes_received += m.meta.control_bytes;
  t.payload_bytes_received += m.meta.payload_bytes;
  auto& exp = exposure_[static_cast<std::size_t>(m.to)];
  for (VarId x : m.meta.vars_mentioned) {
    const auto xi = static_cast<std::size_t>(x);
    // Guarded fallback only: rows are pre-sized to the declared variable
    // count, so this branch fires solely for callers that never gave a
    // var hint (or a message mentioning an undeclared variable).
    if (xi >= exp.size()) exp.resize(xi + 1, 0);
    ++exp[xi];
  }
}

ProcessTraffic NetworkStats::traffic(ProcessId p) const {
  std::lock_guard lock(mu_);
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < per_process_.size(),
               "traffic: bad process");
  return per_process_[static_cast<std::size_t>(p)];
}

std::vector<ProcessTraffic> NetworkStats::per_process_snapshot() const {
  std::lock_guard lock(mu_);
  return per_process_;
}

ProcessTraffic NetworkStats::total() const {
  std::lock_guard lock(mu_);
  ProcessTraffic sum;
  for (const auto& t : per_process_) {
    sum.msgs_sent += t.msgs_sent;
    sum.msgs_received += t.msgs_received;
    sum.control_bytes_sent += t.control_bytes_sent;
    sum.payload_bytes_sent += t.payload_bytes_sent;
    sum.control_bytes_received += t.control_bytes_received;
    sum.payload_bytes_received += t.payload_bytes_received;
  }
  return sum;
}

std::uint64_t NetworkStats::exposure(ProcessId p, VarId x) const {
  std::lock_guard lock(mu_);
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < exposure_.size(),
               "exposure: bad process");
  const auto& exp = exposure_[static_cast<std::size_t>(p)];
  const auto xi = static_cast<std::size_t>(x);
  return x >= 0 && xi < exp.size() ? exp[xi] : 0;
}

std::set<ProcessId> NetworkStats::processes_exposed_to(VarId x) const {
  std::lock_guard lock(mu_);
  std::set<ProcessId> out;
  const auto xi = static_cast<std::size_t>(x);
  for (std::size_t p = 0; p < exposure_.size(); ++p) {
    if (xi < exposure_[p].size() && exposure_[p][xi] > 0) {
      out.insert(static_cast<ProcessId>(p));
    }
  }
  return out;
}

std::vector<std::set<ProcessId>> NetworkStats::exposure_sets(
    std::size_t var_count) const {
  std::lock_guard lock(mu_);
  std::vector<std::set<ProcessId>> out(var_count);
  for (std::size_t p = 0; p < exposure_.size(); ++p) {
    const auto& exp = exposure_[p];
    const std::size_t bound = std::min(var_count, exp.size());
    for (std::size_t x = 0; x < bound; ++x) {
      if (exp[x] > 0) out[x].insert(static_cast<ProcessId>(p));
    }
  }
  return out;
}

std::set<VarId> NetworkStats::variables_seen_by(ProcessId p) const {
  std::lock_guard lock(mu_);
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < exposure_.size(),
               "variables_seen_by: bad process");
  std::set<VarId> out;
  const auto& exp = exposure_[static_cast<std::size_t>(p)];
  for (std::size_t x = 0; x < exp.size(); ++x) {
    if (exp[x] > 0) out.insert(static_cast<VarId>(x));
  }
  return out;
}

std::uint64_t NetworkStats::messages_delivered() const {
  std::lock_guard lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& t : per_process_) sum += t.msgs_received;
  return sum;
}

void NetworkStats::merge_from(const NetworkStats& other) {
  std::scoped_lock lock(mu_, other.mu_);
  PARDSM_CHECK(other.per_process_.size() <= per_process_.size(),
               "merge_from: other covers more processes");
  for (std::size_t p = 0; p < other.per_process_.size(); ++p) {
    const auto& src = other.per_process_[p];
    auto& dst = per_process_[p];
    dst.msgs_sent += src.msgs_sent;
    dst.msgs_received += src.msgs_received;
    dst.control_bytes_sent += src.control_bytes_sent;
    dst.payload_bytes_sent += src.payload_bytes_sent;
    dst.control_bytes_received += src.control_bytes_received;
    dst.payload_bytes_received += src.payload_bytes_received;
    const auto& srow = other.exposure_[p];
    auto& drow = exposure_[p];
    if (drow.size() < srow.size()) drow.resize(srow.size(), 0);
    for (std::size_t x = 0; x < srow.size(); ++x) drow[x] += srow[x];
  }
}

void NetworkStats::clear() {
  std::lock_guard lock(mu_);
  for (auto& t : per_process_) t = ProcessTraffic{};
  for (auto& e : exposure_) e.assign(e.size(), 0);
}

}  // namespace pardsm
