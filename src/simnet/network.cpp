#include "simnet/network.h"

#include "simnet/check.h"

namespace pardsm {

ChannelFaults::ChannelFaults(std::size_t n, const ChannelOptions& options)
    : n_(n),
      default_loss_(options.drop_probability),
      default_duplicate_(options.duplicate_probability),
      down_(n, 0) {
  refresh_fault_flag();
}

void ChannelFaults::check_pair(ProcessId from, ProcessId to,
                               const char* what) const {
  PARDSM_CHECK(from >= 0 && static_cast<std::size_t>(from) < n_ && to >= 0 &&
                   static_cast<std::size_t>(to) < n_,
               what);
}

Network::Network(std::size_t n, ChannelOptions options,
                 std::unique_ptr<LatencyModel> latency, Rng rng)
    : ChannelFaults(n, options),
      channel_{.fifo = options.fifo,
               .latency = latency ? std::move(latency)
                                  : std::make_unique<ConstantLatency>(
                                        millis(1))},
      // Copy first so the latency stream equals the pre-split stream of a
      // fault-free run; fork after (forking advances `rng`, not the copy).
      latency_rng_(rng),
      fault_rng_(rng.fork(/*tag=*/0x4641554CULL)) {}  // "FAUL"

DeliveryPlan Network::plan_delivery(ProcessId from, ProcessId to,
                                    TimePoint send_time) {
  check_pair(from, to, "plan_delivery: bad process");
  return channel_.plan(*this, from, to, send_time, latency_rng_,
                       [this]() -> Rng& { return fault_rng_; });
}

// A cut count's one writer updates it with a relaxed load and store (no
// read-modify-write: nobody else writes it).

void ChannelFaults::sever(ProcessId from, ProcessId to) {
  check_pair(from, to, "sever: bad process");
  std::uint32_t& cuts = severed_.get_or_insert(pair(from, to), 0);
  std::atomic_ref<std::uint32_t>(cuts).store(cuts + 1,
                                             std::memory_order_relaxed);
  refresh_fault_flag();
}

void ChannelFaults::heal(ProcessId from, ProcessId to) {
  check_pair(from, to, "heal: bad process");
  std::uint32_t* cuts = severed_.find(pair(from, to));
  if (cuts != nullptr && *cuts > 0) {
    std::atomic_ref<std::uint32_t>(*cuts).store(*cuts - 1,
                                                std::memory_order_relaxed);
  }
}

bool ChannelFaults::severed(ProcessId from, ProcessId to) const {
  check_pair(from, to, "severed: bad process");
  const std::uint32_t* cuts = severed_.find(pair(from, to));
  return cuts != nullptr && relaxed_load(*cuts) != 0;
}

void ChannelFaults::reserve_cut(ProcessId from, ProcessId to) {
  check_pair(from, to, "reserve_cut: bad process");
  (void)severed_.get_or_insert(pair(from, to), 0);
  refresh_fault_flag();
}

void ChannelFaults::set_loss(ProcessId from, ProcessId to,
                             double probability) {
  check_pair(from, to, "set_loss: bad process");
  loss_.get_or_insert(pair(from, to), 0.0) = probability;
  refresh_fault_flag();
}

void ChannelFaults::set_loss_all(double probability) {
  // What overwriting every cell of the dense table did: the new rate
  // answers for every pair, including previously overridden ones.
  default_loss_ = probability;
  loss_.clear();
  refresh_fault_flag();
}

double ChannelFaults::loss(ProcessId from, ProcessId to) const {
  check_pair(from, to, "loss: bad process");
  const double* p = loss_.find(pair(from, to));
  return p != nullptr ? *p : default_loss_;
}

void ChannelFaults::set_duplicate(ProcessId from, ProcessId to,
                                  double probability) {
  check_pair(from, to, "set_duplicate: bad process");
  duplicate_.get_or_insert(pair(from, to), 0.0) = probability;
  refresh_fault_flag();
}

void ChannelFaults::set_duplicate_all(double probability) {
  default_duplicate_ = probability;
  duplicate_.clear();
  refresh_fault_flag();
}

double ChannelFaults::duplicate(ProcessId from, ProcessId to) const {
  check_pair(from, to, "duplicate: bad process");
  const double* p = duplicate_.find(pair(from, to));
  return p != nullptr ? *p : default_duplicate_;
}

double ChannelFaults::effective_loss(ProcessId from, ProcessId to,
                                     TimePoint now) const {
  check_pair(from, to, "effective_loss: bad process");
  if (override_) {
    const double p = override_->loss(from, to, now);
    if (p >= 0.0) return p;
  }
  const double* p = loss_.find(pair(from, to));
  return p != nullptr ? *p : default_loss_;
}

double ChannelFaults::effective_duplicate(ProcessId from, ProcessId to,
                                          TimePoint now) const {
  check_pair(from, to, "effective_duplicate: bad process");
  if (override_) {
    const double p = override_->duplicate(from, to, now);
    if (p >= 0.0) return p;
  }
  const double* p = duplicate_.find(pair(from, to));
  return p != nullptr ? *p : default_duplicate_;
}

void ChannelFaults::set_down(ProcessId p, bool down) {
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < n_,
               "set_down: bad process");
  std::atomic_ref<std::uint8_t>(down_[static_cast<std::size_t>(p)])
      .store(down ? 1 : 0, std::memory_order_relaxed);
  refresh_fault_flag(down);
}

bool ChannelFaults::is_down(ProcessId p) const {
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < n_,
               "is_down: bad process");
  return relaxed_load(down_[static_cast<std::size_t>(p)]) != 0;
}

}  // namespace pardsm
