// Causal consistency with complete replication (the classical baseline).
//
// Ahamad et al. [3]-style protocol: every process replicates every
// variable; a write is applied locally (wait-free) and broadcast with the
// writer's vector clock; receivers delay updates until causally ready.
//
// Control information per update: an n-entry vector clock — and the update
// goes to *everyone*.  This is the "complete replication avoids
// scalability" strawman of the paper's introduction, measured in
// bench_control_overhead.
#pragma once

#include "mcs/causal_buffer.h"
#include "mcs/protocol.h"
#include "mcs/vector_clock.h"

namespace pardsm::mcs {

struct CausalUpdate;

/// One process of the full-replication causal protocol.
class CausalFullProcess final : public McsProcess {
 public:
  CausalFullProcess(ProcessId self, const graph::Distribution& dist,
                    HistoryRecorder& recorder,
                    std::shared_ptr<const CliqueTable> cliques);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override { return "causal-full"; }
  [[nodiscard]] bool wait_free() const override { return true; }

  [[nodiscard]] const VectorClock& clock() const { return vc_; }

 protected:
  /// Full replication: every peer holds every variable, so re-sync always
  /// has a source even when C(x) excludes this process.
  [[nodiscard]] ProcessId resync_source(VarId) const override {
    if (distribution().process_count() < 2) return kNoProcess;
    return id() == 0 ? 1 : 0;
  }

 private:
  friend class CausalBuffer;
  [[nodiscard]] Readiness check(const Message& m, std::uint64_t& resume) const;
  std::uint32_t deliver(const Message& m);

  /// Pool handle cached at attach() so each write is a freelist pop.
  BodyPool<CausalUpdate>* update_pool_ = nullptr;
  VectorClock vc_;
  std::int64_t next_write_seq_ = 0;
  CausalBuffer buffer_;  ///< keyed by writer
};

}  // namespace pardsm::mcs
