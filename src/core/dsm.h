// pardsm public API: one object that wires a distribution, a consistency
// protocol and a simulated network into a runnable DSM.
//
// Quickstart (examples/quickstart.cpp):
//
//   pardsm::SystemConfig config;
//   config.protocol = pardsm::mcs::ProtocolKind::kPramPartial;
//   config.distribution = pardsm::graph::topo::chain_with_hoop(4);
//   pardsm::System dsm(std::move(config));
//   dsm.write(0, 0, 42, [] {});
//   dsm.run();
//   dsm.read_now(3, 0);           // wait-free local read
//   auto h = dsm.history();       // exact recorded history
//
// The System owns a deterministic Simulator and attaches the processes to
// it directly: no client, decorator or workload generator sits between the
// caller and McsProcess, so the apps (src/apps) drive processes by hand.
// For scripted or generated batch runs on any runtime — including
// std::thread execution — use mcs::run (mcs/engine.h):
//
//   mcs::run({.protocol = kind, .distribution = &dist, .scripts = &scripts,
//             .runtime = mcs::EngineRuntime::kThreads});
#pragma once

#include <functional>
#include <memory>

#include "mcs/driver.h"
#include "sharegraph/share_graph.h"
#include "simnet/simulator.h"

namespace pardsm {

/// Configuration of a System.
struct SystemConfig {
  mcs::ProtocolKind protocol = mcs::ProtocolKind::kPramPartial;
  graph::Distribution distribution{};
  std::uint64_t seed = 1;
  ChannelOptions channel{};
  /// Uniform message latency bounds.
  Duration latency_lo = millis(1);
  Duration latency_hi = millis(1);
};

/// A complete DSM instance on the deterministic simulator.
class System {
 public:
  explicit System(SystemConfig config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // -- application-facing operations --------------------------------------
  /// Asynchronous read of x at process p (callback style; wait-free
  /// protocols complete before returning).
  void read(ProcessId p, VarId x, mcs::ReadCallback done);

  /// Asynchronous write.
  void write(ProcessId p, VarId x, Value v, mcs::WriteCallback done);

  /// Convenience: wait-free read completed inline.  Only valid for
  /// wait-free protocols (checked).
  [[nodiscard]] Value read_now(ProcessId p, VarId x);

  // -- scheduling / execution ---------------------------------------------
  /// Schedule a closure at an absolute simulated time.
  void at(TimePoint when, std::function<void()> fn);

  /// Schedule a closure `d` after the current simulated time.
  void after(Duration d, std::function<void()> fn);

  /// Run to quiescence.
  void run();

  /// Run until `deadline`; true if quiescent earlier.
  bool run_until(TimePoint deadline);

  [[nodiscard]] TimePoint now() const;

  // -- results --------------------------------------------------------------
  /// Recorded operation history (exact read-from provenance).
  [[nodiscard]] hist::History history() const;

  /// Network statistics (traffic, per-variable exposure).
  [[nodiscard]] const NetworkStats& stats() const;

  /// Per-variable observed metadata exposure (the empirical x-relevance).
  [[nodiscard]] std::vector<std::set<ProcessId>> observed_relevance() const;

  [[nodiscard]] mcs::McsProcess& process(ProcessId p);
  [[nodiscard]] const graph::Distribution& distribution() const;
  [[nodiscard]] std::size_t process_count() const;
  [[nodiscard]] Simulator& simulator() { return *sim_; }

 private:
  SystemConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<mcs::HistoryRecorder> recorder_;
  std::vector<std::unique_ptr<mcs::McsProcess>> processes_;
};

/// Library version string.
[[nodiscard]] const char* version();

}  // namespace pardsm
