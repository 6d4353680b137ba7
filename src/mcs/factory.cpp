#include "mcs/factory.h"

#include "mcs/atomic_home.h"
#include "mcs/cache_partial.h"
#include "mcs/causal_full.h"
#include "mcs/causal_partial_adhoc.h"
#include "mcs/causal_partial_naive.h"
#include "mcs/pram_partial.h"
#include "mcs/processor_partial.h"
#include "mcs/sequencer_sc.h"
#include "mcs/slow_partial.h"

namespace pardsm::mcs {

std::vector<std::unique_ptr<McsProcess>> make_processes(
    ProtocolKind kind, const graph::Distribution& dist,
    HistoryRecorder& recorder) {
  const std::size_t n = dist.process_count();
  std::vector<std::unique_ptr<McsProcess>> out;
  out.reserve(n);

  // One C(x) table for the whole system, shared before any constructor
  // runs (a constructor may consult replicas_of).
  const auto cliques = std::make_shared<const CliqueTable>(dist);
  std::shared_ptr<const StaticRelevance> analysis;
  if (kind == ProtocolKind::kCausalPartialAdHoc) {
    analysis = StaticRelevance::analyze(dist);
  }

  for (std::size_t p = 0; p < n; ++p) {
    const auto self = static_cast<ProcessId>(p);
    switch (kind) {
      case ProtocolKind::kAtomicHome:
        out.push_back(std::make_unique<AtomicHomeProcess>(self, dist,
                                                          recorder, cliques));
        break;
      case ProtocolKind::kSequencerSC:
        out.push_back(std::make_unique<SequencerScProcess>(
            self, dist, recorder, cliques));
        break;
      case ProtocolKind::kCausalFull:
        out.push_back(std::make_unique<CausalFullProcess>(self, dist,
                                                          recorder, cliques));
        break;
      case ProtocolKind::kCausalPartialNaive:
        out.push_back(std::make_unique<CausalPartialNaiveProcess>(
            self, dist, recorder, cliques));
        break;
      case ProtocolKind::kCausalPartialAdHoc:
        out.push_back(std::make_unique<CausalPartialAdHocProcess>(
            self, dist, recorder, cliques, analysis));
        break;
      case ProtocolKind::kPramPartial:
        out.push_back(std::make_unique<PramPartialProcess>(
            self, dist, recorder, cliques));
        break;
      case ProtocolKind::kSlowPartial:
        out.push_back(std::make_unique<SlowPartialProcess>(
            self, dist, recorder, cliques));
        break;
      case ProtocolKind::kCachePartial:
        out.push_back(std::make_unique<CachePartialProcess>(
            self, dist, recorder, cliques));
        break;
      case ProtocolKind::kProcessorPartial:
        out.push_back(std::make_unique<ProcessorPartialProcess>(
            self, dist, recorder, cliques));
        break;
    }
  }
  return out;
}

}  // namespace pardsm::mcs
