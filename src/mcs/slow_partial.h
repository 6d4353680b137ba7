// Slow memory with partial replication (Hutto & Ahamad; the paper cites it
// via Sinha [16] as the rung below PRAM).
//
// Guarantee: writes by one process to one *variable* are observed in
// program order; writes by the same process to different variables may be
// observed reordered.  The protocol deliberately exercises that freedom:
// each incoming update is buffered and applied after a deterministic
// per-variable jitter, preserving per-(writer, variable) order via
// sequence numbers but freely interleaving across variables — a model for
// per-variable channels or NUMA store buffers.
//
// Efficiency is as good as PRAM: updates go only to C(x), O(1) control
// bytes.  The ablation bench (bench_control_overhead) shows the weaker
// criterion buys nothing further — PRAM is already efficient, which is why
// the paper stops at PRAM.
#pragma once

#include <map>

#include "mcs/protocol.h"
#include "simnet/recycling_alloc.h"

namespace pardsm::mcs {

struct SlowUpdate;

/// One process of the slow-memory partial-replication protocol.
class SlowPartialProcess final : public McsProcess {
 public:
  SlowPartialProcess(ProcessId self, const graph::Distribution& dist,
                     HistoryRecorder& recorder,
                     std::shared_ptr<const CliqueTable> cliques);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void handle_timer(TimerTag tag) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override { return "slow-partial"; }
  [[nodiscard]] bool wait_free() const override { return true; }

 private:
  struct Pending {
    VarId x = kNoVar;
    Value v = kBottom;
    WriteId id{};
    std::int64_t var_seq = 0;
    ProcessId writer = kNoProcess;
  };
  /// Jitter queues and timer entries churn once per delivered update;
  /// recycling their map nodes keeps the steady state off the heap.
  using PendingQueue =
      std::map<std::int64_t, Pending, std::less<std::int64_t>,
               RecyclingAlloc<std::pair<const std::int64_t, Pending>>>;
  void drain(ProcessId writer, VarId x);

  /// Pool handle cached at attach() so each write is a freelist pop.
  BodyPool<SlowUpdate>* update_pool_ = nullptr;
  std::int64_t next_write_seq_ = 0;
  /// Node freelist shared by the churn-prone containers below (declared
  /// first: containers must die before their pool).
  RecyclingPool node_pool_;
  /// Writer-local per-variable sequence numbers for outgoing updates.
  std::map<VarId, std::int64_t> my_var_seq_;
  /// Next expected var_seq per (writer, variable).
  std::map<std::pair<ProcessId, VarId>, std::int64_t> expected_;
  /// Buffered out-of-jitter updates per (writer, variable), keyed by seq.
  /// Outer keys persist once seen (cold inserts); the inner queues churn
  /// and draw their nodes from node_pool_.
  std::map<std::pair<ProcessId, VarId>, PendingQueue> pending_;
  /// Timer tags -> (writer, variable) queues to drain.
  std::map<TimerTag, std::pair<ProcessId, VarId>, std::less<TimerTag>,
           RecyclingAlloc<std::pair<const TimerTag,
                                    std::pair<ProcessId, VarId>>>>
      timers_{RecyclingAlloc<std::pair<const TimerTag,
                                       std::pair<ProcessId, VarId>>>(
          &node_pool_)};
  TimerTag next_timer_ = 1;
};

}  // namespace pardsm::mcs
