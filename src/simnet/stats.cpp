#include "simnet/stats.h"

#include "simnet/check.h"

namespace pardsm {

void NetworkStats::resize(std::size_t n) {
  slots_.assign(n, Slot{});
  for (Slot& s : slots_) s.exposure.reserve(reserved_vars());
}

void NetworkStats::set_var_hint(std::size_t m) {
  if (m <= var_hint_) return;
  var_hint_ = m;
  for (Slot& s : slots_) s.exposure.reserve(reserved_vars());
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
    PARDSM_CHECK(x >= 0, "on_deliver: negative variable id");
    ++exp.get_or_insert(static_cast<std::uint64_t>(x), 0);
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
  if (x < 0) return 0;
  const std::uint64_t* count = exp.find(static_cast<std::uint64_t>(x));
  return count != nullptr ? *count : 0;
}

std::set<ProcessId> NetworkStats::processes_exposed_to(VarId x) const {
  std::set<ProcessId> out;
  if (x < 0) return out;
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    if (slots_[p].exposure.find(static_cast<std::uint64_t>(x)) != nullptr) {
      out.insert(out.end(), static_cast<ProcessId>(p));
    }
  }
  return out;
}

std::vector<std::set<ProcessId>> NetworkStats::exposure_sets(
    std::size_t var_count) const {
  std::vector<std::set<ProcessId>> out(var_count);
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    // Processes are visited in ascending order, so each insert appends.
    slots_[p].exposure.for_each([&](std::uint64_t x, std::uint64_t) {
      if (x < var_count) {
        out[x].insert(out[x].end(), static_cast<ProcessId>(p));
      }
    });
  }
  return out;
}

std::set<VarId> NetworkStats::variables_seen_by(ProcessId p) const {
  std::set<VarId> out;
  slots_[index(p, "variables_seen_by: bad process")].exposure.for_each(
      [&](std::uint64_t x, std::uint64_t) {
        out.insert(static_cast<VarId>(x));
      });
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
    s.exposure.reset();
  }
}

}  // namespace pardsm
