// Tracing for the traced run, recorded only through public seams so the
// traced run does no extra work inside the program:
//
//   * TracingMulticast — an EngineConfig::multicast wrapper that delegates
//     to MulticastService::fanout(), timing each submit, counting plans and
//     destinations, and keeping a bounded sample of (from, to, meta,
//     encoded body) for the layer replays.  Thread-safe: the parallel root
//     submits from every shard concurrently.
//   * SpanLog — phase spans kept in memory and written out at the end,
//     each with its self time (duration minus its children's).
//   * ThreadPeak — samples the process's OS thread count while a run is in
//     flight.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mcs/protocol.h"

namespace perfbench {

class TracingMulticast final : public pardsm::mcs::MulticastService {
 public:
  /// Sample one plan in `stride`, at most `limit` plans in total.
  TracingMulticast(std::size_t stride, std::size_t limit)
      : stride_(stride), limit_(limit) {}

  void submit(pardsm::Transport& transport, pardsm::ProcessId from,
              pardsm::mcs::SendPlan&& plan) override;

  struct Sample {
    pardsm::ProcessId from = pardsm::kNoProcess;
    pardsm::ProcessId to = pardsm::kNoProcess;
    pardsm::MessageMeta meta;
    std::vector<std::uint8_t> body;  ///< wire::encode_body bytes
  };

  [[nodiscard]] std::uint64_t plans() const { return plans_.load(); }
  [[nodiscard]] std::uint64_t dests() const { return dests_.load(); }
  [[nodiscard]] std::uint64_t submit_ns() const { return submit_ns_.load(); }
  /// The samples gathered so far (call after the run).
  [[nodiscard]] std::vector<Sample> samples() const;

 private:
  const std::size_t stride_;
  const std::size_t limit_;
  std::atomic<std::uint64_t> plans_{0};
  std::atomic<std::uint64_t> dests_{0};
  std::atomic<std::uint64_t> submit_ns_{0};
  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_
};

/// Marks when the first plan of a run reaches the multicast seam — the end
/// of set-up, as the first op to send anything has issued by then — and
/// otherwise forwards to the default fanout.  Thread-safe.
class FirstSubmit final : public pardsm::mcs::MulticastService {
 public:
  void submit(pardsm::Transport& transport, pardsm::ProcessId from,
              pardsm::mcs::SendPlan&& plan) override;

  /// Seconds from `start` to the first submit; `fallback` when the run
  /// submitted nothing.
  [[nodiscard]] double seconds_after(std::chrono::steady_clock::time_point start,
                                     double fallback) const;

 private:
  std::atomic<std::int64_t> first_ns_{0};  ///< steady_clock epoch ns; 0 = none
};

struct Span {
  std::string name;
  std::string parent;  ///< empty for a root span
  double start_s = 0;  ///< from the log's epoch
  double dur_s = 0;
  std::uint64_t count = 1;  ///< calls folded into this span
};

class SpanLog {
 public:
  SpanLog();
  /// Record a finished span that started at `start` and lasted `dur_s`.
  void add(std::string name, std::string parent,
           std::chrono::steady_clock::time_point start, double dur_s,
           std::uint64_t count = 1);
  /// Duration minus the summed durations of the span's direct children.
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] double dur_s(const std::string& name) const;
  /// Write every span with its self time as JSON; false on I/O failure.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Peak OS thread count of this process (excluding the sampler itself)
/// while the object is alive.
class ThreadPeak {
 public:
  ThreadPeak();
  ~ThreadPeak();
  ThreadPeak(const ThreadPeak&) = delete;
  ThreadPeak& operator=(const ThreadPeak&) = delete;

  [[nodiscard]] std::uint64_t peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::thread sampler_;
};

}  // namespace perfbench
