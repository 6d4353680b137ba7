#include "mcs/processor_partial.h"

#include "mcs/cache_messages.h"

namespace pardsm::mcs {

ProcessorPartialProcess::ProcessorPartialProcess(
    ProcessId self, const graph::Distribution& dist, HistoryRecorder& recorder,
    std::shared_ptr<const CliqueTable> cliques)
    : CachePartialProcess(self, dist, recorder, std::move(cliques)) {}

detail::PriorCounts ProcessorPartialProcess::prior_counts_for(VarId x) {
  detail::PriorCounts priors;
  // replicas_of(x) is sorted ascending, so the flat vector stays in the
  // ProcessId order the wire format pins.
  for (ProcessId q : replicas_of(x)) {
    auto& sent = sent_to_[q];
    priors.push_back({q, sent});
    ++sent;
  }
  return priors;
}

bool ProcessorPartialProcess::commit_ready(const Message& m) {
  const auto* c = m.try_as<detail::CacheCommit>();
  PARDSM_CHECK(c != nullptr, "processor: unexpected commit body");
  const std::int64_t* need = detail::find_prior(c->prior_counts, id());
  if (need == nullptr) return true;  // no constraint for us
  return applied_from_[c->id.writer] >= *need;
}

void ProcessorPartialProcess::on_applied(ProcessId writer) {
  ++applied_from_[writer];
}

}  // namespace pardsm::mcs
