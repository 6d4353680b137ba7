#include "simnet/stats.h"

#include <algorithm>

#include "simnet/check.h"

namespace pardsm {

void NetworkStats::resize(std::size_t n) {
  slots_.assign(n, Slot{});
  for (Slot& s : slots_) s.exposure.assign(var_hint_, 0);
}

void NetworkStats::set_var_hint(std::size_t m) {
  if (m <= var_hint_) return;
  var_hint_ = m;
  for (Slot& s : slots_) {
    if (s.exposure.size() < m) s.exposure.resize(m, 0);
  }
}

std::size_t NetworkStats::index(ProcessId p, const char* what) const {
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < slots_.size(), what);
  return static_cast<std::size_t>(p);
}

void NetworkStats::on_send(const Message& m) {
  auto& t = slots_[index(m.from, "on_send: bad sender")].traffic;
  ++t.msgs_sent;
  t.control_bytes_sent += m.meta.control_bytes;
  t.payload_bytes_sent += m.meta.payload_bytes;
}

void NetworkStats::on_deliver(const Message& m) {
  Slot& s = slots_[index(m.to, "on_deliver: bad receiver")];
  auto& exp = s.exposure;
  for (VarId x : m.meta.vars_mentioned) {
    const auto xi = static_cast<std::size_t>(x);
    // Guarded fallback only: rows are pre-sized to the declared variable
    // count, so this branch fires solely for callers that never gave a
    // var hint (or a message mentioning an undeclared variable).  A
    // negative id lands here too, before it can index anything.
    if (xi >= exp.size()) {
      PARDSM_CHECK(x >= 0, "on_deliver: negative variable id");
      exp.resize(xi + 1, 0);
    }
    ++exp[xi];
  }
  auto& t = s.traffic;
  ++t.msgs_received;
  t.control_bytes_received += m.meta.control_bytes;
  t.payload_bytes_received += m.meta.payload_bytes;
}

ProcessTraffic NetworkStats::traffic(ProcessId p) const {
  return slots_[index(p, "traffic: bad process")].traffic;
}

std::vector<ProcessTraffic> NetworkStats::per_process_snapshot() const {
  std::vector<ProcessTraffic> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.push_back(s.traffic);
  return out;
}

ProcessTraffic NetworkStats::total() const {
  ProcessTraffic sum;
  for (const Slot& s : slots_) {
    const ProcessTraffic& t = s.traffic;
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
  const auto& exp = slots_[index(p, "exposure: bad process")].exposure;
  const auto xi = static_cast<std::size_t>(x);
  return x >= 0 && xi < exp.size() ? exp[xi] : 0;
}

std::set<ProcessId> NetworkStats::processes_exposed_to(VarId x) const {
  std::set<ProcessId> out;
  const auto xi = static_cast<std::size_t>(x);
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    const auto& exp = slots_[p].exposure;
    if (xi < exp.size() && exp[xi] > 0) out.insert(static_cast<ProcessId>(p));
  }
  return out;
}

std::vector<std::set<ProcessId>> NetworkStats::exposure_sets(
    std::size_t var_count) const {
  std::vector<std::set<ProcessId>> out(var_count);
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    const auto& exp = slots_[p].exposure;
    const std::size_t bound = std::min(var_count, exp.size());
    for (std::size_t x = 0; x < bound; ++x) {
      if (exp[x] > 0) out[x].insert(static_cast<ProcessId>(p));
    }
  }
  return out;
}

std::set<VarId> NetworkStats::variables_seen_by(ProcessId p) const {
  std::set<VarId> out;
  const auto& exp =
      slots_[index(p, "variables_seen_by: bad process")].exposure;
  for (std::size_t x = 0; x < exp.size(); ++x) {
    if (exp[x] > 0) out.insert(static_cast<VarId>(x));
  }
  return out;
}

std::uint64_t NetworkStats::messages_delivered() const {
  std::uint64_t sum = 0;
  for (const Slot& s : slots_) sum += s.traffic.msgs_received;
  return sum;
}

void NetworkStats::clear() {
  for (Slot& s : slots_) {
    s.traffic = ProcessTraffic{};
    s.exposure.assign(s.exposure.size(), 0);
  }
}

}  // namespace pardsm
