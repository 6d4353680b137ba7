#include "core/analysis.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "mcs/causal_partial_adhoc.h"
#include "simnet/check.h"

namespace pardsm::core {

namespace {

bool subset(const std::set<ProcessId>& a, const std::set<ProcessId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

bool VariableReport::within_clique() const { return subset(observed, clique); }

bool VariableReport::within_relevant() const {
  return subset(observed, theorem1_relevant);
}

EfficiencyReport analyze_run(
    const graph::Distribution& dist,
    const std::vector<std::set<ProcessId>>& observed_relevance,
    const ProcessTraffic& traffic) {
  PARDSM_CHECK(observed_relevance.size() == dist.var_count,
               "one observation set per variable required");
  const graph::ShareGraph sg(dist);
  EfficiencyReport report;
  report.traffic = traffic;
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    const auto xv = static_cast<VarId>(x);
    VariableReport vr;
    vr.var = xv;
    const auto clique = sg.clique(xv);
    vr.clique.insert(clique.begin(), clique.end());
    vr.theorem1_relevant = graph::x_relevant(sg, xv);
    vr.observed = observed_relevance[x];
    if (!vr.within_clique()) ++report.vars_leaking_past_clique;
    if (!vr.within_relevant()) ++report.vars_leaking_past_relevant;
    report.per_var.push_back(std::move(vr));
  }
  return report;
}

std::string EfficiencyReport::to_table() const {
  std::ostringstream os;
  os << std::left << std::setw(6) << "var" << std::setw(8) << "|C(x)|"
     << std::setw(8) << "|R(x)|" << std::setw(10) << "observed"
     << std::setw(12) << "in-C(x)?" << "in-R(x)?\n";
  for (const auto& vr : per_var) {
    // Two-step append (not `"x" + std::to_string(...)`): avoids GCC 12's
    // -Wrestrict false positive on operator+(const char*, string&&).
    std::string var_label = "x";
    var_label += std::to_string(vr.var);
    os << std::left << std::setw(6) << var_label
       << std::setw(8) << vr.clique.size() << std::setw(8)
       << vr.theorem1_relevant.size() << std::setw(10) << vr.observed.size()
       << std::setw(12) << (vr.within_clique() ? "yes" : "NO")
       << (vr.within_relevant() ? "yes" : "NO") << '\n';
  }
  os << "leaking past C(x): " << vars_leaking_past_clique << "/"
     << per_var.size() << "; past R(x): " << vars_leaking_past_relevant
     << "/" << per_var.size() << '\n';
  return os.str();
}

ControlModel predict(mcs::ProtocolKind kind, const graph::Distribution& dist) {
  const std::size_t n = dist.process_count();
  const std::size_t m = dist.var_count;
  PARDSM_CHECK(m > 0, "predict: empty distribution");
  const graph::ShareGraph sg(dist);

  double total_msgs = 0;
  double total_bytes = 0;
  double total_outside = 0;
  double total_writes = 0;  // one per (x, writer) pair, uniform load

  std::shared_ptr<const mcs::StaticRelevance> analysis;
  if (kind == mcs::ProtocolKind::kCausalPartialAdHoc) {
    analysis = mcs::StaticRelevance::analyze(dist);
  }

  for (std::size_t x = 0; x < m; ++x) {
    const auto xv = static_cast<VarId>(x);
    const auto& clique = sg.clique(xv);
    if (clique.empty()) continue;
    const std::set<ProcessId> cset(clique.begin(), clique.end());

    for (ProcessId w : clique) {
      total_writes += 1;
      switch (kind) {
        case mcs::ProtocolKind::kCausalFull:
        case mcs::ProtocolKind::kCausalPartialNaive: {
          total_msgs += static_cast<double>(n - 1);
          total_bytes += static_cast<double>(n - 1) *
                         static_cast<double>(8 * n + 24);
          total_outside += static_cast<double>(n - cset.size());
          break;
        }
        case mcs::ProtocolKind::kCausalPartialAdHoc: {
          for (ProcessId q : analysis->relevant[x]) {
            if (q == w) continue;
            total_msgs += 1;
            total_bytes +=
                static_cast<double>(analysis->control_bytes(w, q));
            if (!cset.count(q)) total_outside += 1;
          }
          break;
        }
        case mcs::ProtocolKind::kPramPartial: {
          total_msgs += static_cast<double>(cset.size() - 1);
          total_bytes += static_cast<double>(cset.size() - 1) * 24.0;
          break;
        }
        case mcs::ProtocolKind::kSlowPartial: {
          total_msgs += static_cast<double>(cset.size() - 1);
          total_bytes += static_cast<double>(cset.size() - 1) * 32.0;
          break;
        }
        case mcs::ProtocolKind::kSequencerSC: {
          const bool at_sequencer = (w == 0);
          const double commits =
              static_cast<double>(cset.size()) - (cset.count(0) ? 1.0 : 0.0);
          if (at_sequencer) {
            total_msgs += commits;
            total_bytes += commits * 40.0;
          } else {
            total_msgs += 1.0 + commits;
            total_bytes += 24.0 + commits * 40.0;
            if (!cset.count(0)) total_outside += 1;
          }
          break;
        }
        case mcs::ProtocolKind::kAtomicHome: {
          const ProcessId home = clique.front();
          if (w == home) {
            total_msgs += static_cast<double>(cset.size() - 1);
            total_bytes += static_cast<double>(cset.size() - 1) * 24.0;
          } else {
            // request + ack + refresh to the other replicas
            total_msgs += 2.0 + static_cast<double>(cset.size() - 2);
            total_bytes +=
                32.0 + 16.0 + static_cast<double>(cset.size() - 2) * 24.0;
          }
          break;
        }
        case mcs::ProtocolKind::kCachePartial:
        case mcs::ProtocolKind::kProcessorPartial: {
          // request to the home (unless the writer is the home) + a commit
          // to every other C(x) member.  Processor consistency adds one
          // (receiver, count) pair per C(x) member to both messages.
          const ProcessId home = clique.front();
          const double pri =
              kind == mcs::ProtocolKind::kProcessorPartial
                  ? 16.0 * static_cast<double>(cset.size())
                  : 0.0;
          const double commits = static_cast<double>(cset.size() - 1);
          total_msgs += commits;
          total_bytes += commits * (48.0 + pri);
          if (w != home) {
            total_msgs += 1.0;
            total_bytes += 32.0 + pri;
          }
          break;
        }
      }
    }
  }

  ControlModel model;
  if (total_writes > 0) {
    model.messages_per_write = total_msgs / total_writes;
    model.control_bytes_per_write = total_bytes / total_writes;
    model.recipients_outside_clique = total_outside / total_writes;
  }
  return model;
}

}  // namespace pardsm::core
