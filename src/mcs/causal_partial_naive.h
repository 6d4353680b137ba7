// Causal consistency with partial replication — distribution-oblivious.
//
// Sound for *any* variable distribution, at the cost Theorem 1 proves
// unavoidable in that setting: every process must be told about every
// write.  Value payloads go only to C(x); all other processes receive a
// value-less NOTIFY carrying the same causal metadata, so the vector-clock
// delivery condition still sees every write.
//
// This is the honest implementation of the paper's observation that, when
// the distribution is not known a priori, "each process in the system has
// to transmit control information regarding all the shared data,
// contradicting scalability".
#pragma once

#include "mcs/causal_buffer.h"
#include "mcs/protocol.h"
#include "mcs/vector_clock.h"

namespace pardsm::mcs {

struct PartialCausalMsg;

/// One process of the naive partial-replication causal protocol.
class CausalPartialNaiveProcess final : public McsProcess {
 public:
  CausalPartialNaiveProcess(ProcessId self, const graph::Distribution& dist,
                            HistoryRecorder& recorder,
                            std::shared_ptr<const CliqueTable> cliques);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override {
    return "causal-partial-naive";
  }
  [[nodiscard]] bool wait_free() const override { return true; }

  [[nodiscard]] const VectorClock& clock() const { return vc_; }

 private:
  friend class CausalBuffer;
  [[nodiscard]] Readiness check(const Message& m, std::uint64_t& resume) const;
  std::uint32_t deliver(const Message& m);

  /// Pool handle cached at attach() so each write is a freelist pop.
  BodyPool<PartialCausalMsg>* msg_pool_ = nullptr;
  VectorClock vc_;
  std::int64_t next_write_seq_ = 0;
  CausalBuffer buffer_;  ///< keyed by writer
};

}  // namespace pardsm::mcs
