// Atomic (linearizable) memory via per-variable home nodes.
//
// The strongest criterion the paper lists [12].  Each variable has a home
// — the lowest-id member of C(x) — holding the authoritative copy.  Both
// reads and writes are RPCs to the home, so every operation takes effect
// at a single point between invocation and response: linearizability by
// construction (validated by the Wing-Gong style checker in
// history/linearizability.h).
//
// The protocol shows the *other* price of strong criteria under partial
// replication: metadata stays inside C(x), but reads lose the wait-free
// local-access property the paper's §3.3 demands of scalable DSM — every
// read pays a network round trip (bench_latency quantifies this against
// the wait-free protocols).  Non-home replicas receive asynchronous
// refresh updates (warm standbys) but never serve reads.
#pragma once

#include <map>

#include "mcs/protocol.h"
#include "mcs/write_id_dedup.h"
#include "simnet/recycling_alloc.h"

namespace pardsm::mcs {

struct AtomicReadRequest;
struct AtomicReadReply;
struct AtomicWriteRequest;
struct AtomicWriteAck;
struct AtomicRefresh;

/// One process of the home-based atomic protocol.
class AtomicHomeProcess final : public McsProcess {
 public:
  AtomicHomeProcess(ProcessId self, const graph::Distribution& dist,
                    HistoryRecorder& recorder,
                    std::shared_ptr<const CliqueTable> cliques);

  void read(VarId x, ReadCallback done) override;
  void write(VarId x, Value v, WriteCallback done) override;
  void handle_message(const Message& m) override;
  void on_attach() override;

  [[nodiscard]] std::string name() const override { return "atomic-home"; }
  [[nodiscard]] bool wait_free() const override { return false; }

  /// The home of variable x under this distribution.
  [[nodiscard]] ProcessId home_of(VarId x) const;

 protected:
  /// Standby copies of x are refreshed only by x's home, so a re-synced
  /// copy served by the home rides the same FIFO channel as any backlog
  /// and can safely be adopted (when this process *is* the home its copy
  /// is authoritative; peers can never be ahead).
  [[nodiscard]] bool resync_adoptable(VarId x, ProcessId responder,
                                      const WriteId&) const override {
    return responder == home_of(x);
  }

 private:
  struct PendingRead {
    ReadCallback done;
    TimePoint invoked{};
  };
  struct PendingWrite {
    VarId x = kNoVar;
    Value v = kBottom;
    WriteId id{};
    WriteCallback done;
    TimePoint invoked{};
  };

  /// Pool handles cached at attach() so each RPC leg is a freelist pop.
  BodyPool<AtomicReadRequest>* read_req_pool_ = nullptr;
  BodyPool<AtomicReadReply>* read_reply_pool_ = nullptr;
  BodyPool<AtomicWriteRequest>* write_req_pool_ = nullptr;
  BodyPool<AtomicWriteAck>* write_ack_pool_ = nullptr;
  BodyPool<AtomicRefresh>* refresh_pool_ = nullptr;
  std::int64_t next_write_seq_ = 0;
  std::uint64_t next_rpc_ = 1;
  /// Node freelist for the per-in-flight-RPC maps below (declared first:
  /// containers must die before their pool).
  RecyclingPool node_pool_;
  std::map<std::uint64_t, PendingRead, std::less<std::uint64_t>,
           RecyclingAlloc<std::pair<const std::uint64_t, PendingRead>>>
      pending_reads_{
          RecyclingAlloc<std::pair<const std::uint64_t, PendingRead>>(
              &node_pool_)};
  std::map<std::uint64_t, PendingWrite, std::less<std::uint64_t>,
           RecyclingAlloc<std::pair<const std::uint64_t, PendingWrite>>>
      pending_writes_{
          RecyclingAlloc<std::pair<const std::uint64_t, PendingWrite>>(
              &node_pool_)};
  /// Home-side duplicate suppression: writes already applied here
  /// (watermark + frontier — a std::set would grow one node per write).
  WriteIdDedup applied_ids_;
};

}  // namespace pardsm::mcs
