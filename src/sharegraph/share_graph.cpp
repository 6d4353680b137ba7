#include "sharegraph/share_graph.h"

#include <algorithm>
#include <sstream>

#include "simnet/check.h"

namespace pardsm::graph {

bool Distribution::holds(ProcessId p, VarId x) const {
  PARDSM_CHECK(p >= 0 && static_cast<std::size_t>(p) < per_process.size(),
               "Distribution::holds: bad process");
  const auto& xs = per_process[static_cast<std::size_t>(p)];
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

std::vector<ProcessId> Distribution::replicas_of(VarId x) const {
  std::vector<ProcessId> out;
  for (std::size_t p = 0; p < per_process.size(); ++p) {
    if (holds(static_cast<ProcessId>(p), x)) {
      out.push_back(static_cast<ProcessId>(p));
    }
  }
  return out;
}

double Distribution::average_replication() const {
  if (var_count == 0) return 0.0;
  std::size_t total = 0;
  for (const auto& xs : per_process) total += xs.size();
  return static_cast<double>(total) / static_cast<double>(var_count);
}

std::vector<std::vector<ProcessId>> build_cliques(const Distribution& dist) {
  // Two passes: count then fill.  At large n the push_back-only build
  // reallocates every clique log|C(x)| times; exact reserves make it one
  // allocation per variable.
  std::vector<std::uint32_t> sizes(dist.var_count, 0);
  for (const auto& held : dist.per_process) {
    for (VarId x : held) {
      PARDSM_CHECK(x >= 0 && static_cast<std::size_t>(x) < dist.var_count,
                   "variable id out of range");
      ++sizes[static_cast<std::size_t>(x)];
    }
  }
  std::vector<std::vector<ProcessId>> cliques(dist.var_count);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    cliques[x].reserve(sizes[x]);
  }
  for (std::size_t p = 0; p < dist.per_process.size(); ++p) {
    for (VarId x : dist.per_process[p]) {
      cliques[static_cast<std::size_t>(x)].push_back(
          static_cast<ProcessId>(p));  // p ascending → sorted
    }
  }
  for (auto& clique : cliques) {
    clique.erase(std::unique(clique.begin(), clique.end()), clique.end());
  }
  return cliques;
}

ShareGraph::ShareGraph(Distribution dist)
    : dist_(std::move(dist)), cliques_(build_cliques(dist_)) {
  const std::size_t n = dist_.process_count();
  var_sets_.resize(n);
  adjacency_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    auto& xs = var_sets_[p];
    xs = dist_.per_process[p];
    std::sort(xs.begin(), xs.end());
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    // SG = ∪_x C(x): p's neighbours are its cliques' other members.
    auto& adj = adjacency_[p];
    for (VarId x : xs) {
      for (ProcessId q : cliques_[static_cast<std::size_t>(x)]) {
        if (static_cast<std::size_t>(q) != p) adj.push_back(q);
      }
    }
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
}

bool ShareGraph::has_edge(ProcessId i, ProcessId j) const {
  if (i == j) return false;
  const auto& adj = neighbours(i);
  return std::binary_search(adj.begin(), adj.end(), j);
}

std::vector<VarId> ShareGraph::label(ProcessId i, ProcessId j) const {
  PARDSM_CHECK(i >= 0 && static_cast<std::size_t>(i) < var_sets_.size() &&
                   j >= 0 && static_cast<std::size_t>(j) < var_sets_.size(),
               "label: bad process");
  std::vector<VarId> out;
  std::set_intersection(var_sets_[static_cast<std::size_t>(i)].begin(),
                        var_sets_[static_cast<std::size_t>(i)].end(),
                        var_sets_[static_cast<std::size_t>(j)].begin(),
                        var_sets_[static_cast<std::size_t>(j)].end(),
                        std::back_inserter(out));
  return out;
}

const std::vector<ProcessId>& ShareGraph::neighbours(ProcessId i) const {
  PARDSM_CHECK(i >= 0 && static_cast<std::size_t>(i) < adjacency_.size(),
               "neighbours: bad process");
  return adjacency_[static_cast<std::size_t>(i)];
}

const std::vector<ProcessId>& ShareGraph::clique(VarId x) const {
  PARDSM_CHECK(x >= 0 && static_cast<std::size_t>(x) < cliques_.size(),
               "clique: bad variable");
  return cliques_[static_cast<std::size_t>(x)];
}

std::size_t ShareGraph::edge_count() const {
  std::size_t twice = 0;
  for (const auto& adj : adjacency_) twice += adj.size();
  return twice / 2;
}

std::vector<std::vector<ProcessId>> ShareGraph::components() const {
  const std::size_t n = process_count();
  std::vector<int> comp(n, -1);
  int next = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (comp[s] != -1) continue;
    // BFS.
    std::vector<std::size_t> frontier{s};
    comp[s] = next;
    while (!frontier.empty()) {
      const std::size_t v = frontier.back();
      frontier.pop_back();
      for (ProcessId w : adjacency_[v]) {
        if (comp[static_cast<std::size_t>(w)] == -1) {
          comp[static_cast<std::size_t>(w)] = next;
          frontier.push_back(static_cast<std::size_t>(w));
        }
      }
    }
    ++next;
  }
  std::vector<std::vector<ProcessId>> out(static_cast<std::size_t>(next));
  for (std::size_t v = 0; v < n; ++v) {
    out[static_cast<std::size_t>(comp[v])].push_back(
        static_cast<ProcessId>(v));
  }
  return out;
}

std::string ShareGraph::to_dot() const {
  std::ostringstream os;
  os << "graph SG {\n";
  for (std::size_t p = 0; p < process_count(); ++p) {
    os << "  p" << p << ";\n";
  }
  for (std::size_t i = 0; i < process_count(); ++i) {
    for (ProcessId j : adjacency_[i]) {
      if (static_cast<std::size_t>(j) <= i) continue;
      os << "  p" << i << " -- p" << j << " [label=\"";
      bool first = true;
      for (VarId x : label(static_cast<ProcessId>(i), j)) {
        if (!first) os << ',';
        first = false;
        os << 'x' << x;
      }
      os << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace pardsm::graph
