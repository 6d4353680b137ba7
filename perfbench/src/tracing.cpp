#include "tracing.h"

#include <dirent.h>

#include <chrono>
#include <fstream>

#include "harness.h"
#include "simnet/wire.h"

namespace perfbench {

using namespace pardsm;

void TracingMulticast::submit(Transport& transport, ProcessId from,
                              mcs::SendPlan&& plan) {
  const std::uint64_t k = plans_.fetch_add(1, std::memory_order_relaxed);
  dests_.fetch_add(plan.to.size(), std::memory_order_relaxed);
  // Capture before the plan is moved into the fanout, outside the timed
  // region.  Bodies are encoded immediately: the run's arenas die with it.
  if (k % stride_ == 0 && !plan.to.empty() && plan.body) {
    std::lock_guard lock(mu_);
    if (samples_.size() < limit_) {
      Sample s;
      s.from = from;
      s.to = plan.to[0];
      s.meta = plan.meta;
      WireWriter w;
      wire::encode_body(w, *plan.body);
      s.body = w.take();
      samples_.push_back(std::move(s));
    }
  }
  const auto t0 = Clock::now();
  MulticastService::fanout().submit(transport, from, std::move(plan));
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  submit_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                       std::memory_order_relaxed);
}

std::vector<TracingMulticast::Sample> TracingMulticast::samples() const {
  std::lock_guard lock(mu_);
  return samples_;
}

void FirstSubmit::submit(Transport& transport, ProcessId from,
                         mcs::SendPlan&& plan) {
  if (first_ns_.load(std::memory_order_relaxed) == 0) {
    const std::int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now().time_since_epoch())
                                 .count();
    std::int64_t none = 0;
    first_ns_.compare_exchange_strong(none, now);
  }
  MulticastService::fanout().submit(transport, from, std::move(plan));
}

double FirstSubmit::seconds_after(Clock::time_point start,
                                  double fallback) const {
  const std::int64_t ns = first_ns_.load();
  if (ns == 0) return fallback;
  return seconds_between(
      start, Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                 std::chrono::nanoseconds(ns))));
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

void SpanLog::add(std::string name, std::string parent,
                  Clock::time_point start, double dur_s,
                  std::uint64_t count) {
  spans_.push_back({std::move(name), std::move(parent),
                    seconds_between(epoch_, start), dur_s, count});
}

double SpanLog::dur_s(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.dur_s;
  }
  return total;
}

double SpanLog::self_s(const std::string& name) const {
  double self = dur_s(name);
  for (const Span& s : spans_) {
    if (s.parent == name) self -= s.dur_s;
  }
  return self;
}

bool SpanLog::write(const std::string& path, const std::string& workload,
                    std::uint64_t seed) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"parent\": \"" << s.parent
        << "\", \"start_s\": " << s.start_s << ", \"dur_s\": " << s.dur_s
        << ", \"self_s\": " << self_s(s.name) << ", \"count\": " << s.count
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::uint64_t thread_count() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::uint64_t n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

ThreadPeak::ThreadPeak() {
  peak_ = thread_count();
  sampler_ = std::thread([this] {
    while (!stop_.load()) {
      const std::uint64_t n = thread_count();
      if (n > 0 && n - 1 > peak_.load()) peak_ = n - 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ThreadPeak::~ThreadPeak() {
  stop_ = true;
  sampler_.join();
}

}  // namespace perfbench
