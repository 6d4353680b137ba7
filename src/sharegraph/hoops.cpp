#include "sharegraph/hoops.h"

#include <algorithm>

namespace pardsm::graph {

namespace {

/// Extends `path` (a C(x) member, then vertices outside C(x)) by every
/// neighbour; no label check, since each step leaves or enters a vertex
/// outside C(x) (hoops.h).
void dfs_hoops(const ShareGraph& sg, const std::vector<bool>& in_clique,
               std::vector<ProcessId>& path, std::vector<bool>& visited,
               HoopEnumeration& out, std::size_t limit) {
  if (out.hoops.size() >= limit) {
    out.truncated = true;
    return;
  }
  ++out.dfs_steps;
  const ProcessId v = path.back();
  for (ProcessId w : sg.neighbours(v)) {
    if (out.hoops.size() >= limit) {
      out.truncated = true;
      return;
    }
    if (in_clique[static_cast<std::size_t>(w)]) {
      // Complete a hoop if w is a clique member distinct from the start and
      // the path has at least one intermediate.
      if (w != path.front() && path.size() >= 2) {
        Hoop hoop = path;
        hoop.push_back(w);
        if (hoop.front() <= hoop.back()) {  // canonical direction only
          out.hoops.push_back(std::move(hoop));
        }
      }
      continue;
    }
    if (visited[static_cast<std::size_t>(w)]) continue;
    visited[static_cast<std::size_t>(w)] = true;
    path.push_back(w);
    dfs_hoops(sg, in_clique, path, visited, out, limit);
    path.pop_back();
    visited[static_cast<std::size_t>(w)] = false;
  }
}

}  // namespace

HoopEnumeration enumerate_hoops(const ShareGraph& sg, VarId x,
                                std::size_t limit) {
  HoopEnumeration out;
  const std::size_t n = sg.process_count();
  std::vector<bool> in_clique(n, false);
  for (ProcessId p : sg.clique(x)) {
    in_clique[static_cast<std::size_t>(p)] = true;
  }
  for (ProcessId a : sg.clique(x)) {
    std::vector<bool> visited(n, false);
    visited[static_cast<std::size_t>(a)] = true;
    std::vector<ProcessId> path{a};
    dfs_hoops(sg, in_clique, path, visited, out, limit);
    if (out.truncated) break;
  }
  // Deterministic order.
  std::sort(out.hoops.begin(), out.hoops.end());
  out.hoops.erase(std::unique(out.hoops.begin(), out.hoops.end()),
                  out.hoops.end());
  return out;
}

std::set<ProcessId> hoop_members(const ShareGraph& sg, VarId x) {
  std::set<ProcessId> members;
  const auto& clique = sg.clique(x);
  if (clique.size() < 2) return members;
  const std::size_t n = sg.process_count();
  std::vector<bool> in_clique(n, false);
  for (ProcessId c : clique) in_clique[static_cast<std::size_t>(c)] = true;

  // Iterative Tarjan over G_x (hoops.h), rooted at the super-source s.  s
  // is implicit: discovery time 1, its children are C(x)'s members, and a
  // member reached below another vertex closes a back edge to s.  A block
  // is closed at tree edge (p, u) when low[u] >= disc[p]; the blocks
  // closed at p == s are the ones containing s.
  constexpr std::uint32_t kSourceDisc = 1;
  std::vector<std::uint32_t> disc(n, 0);  // 0 = unvisited
  std::vector<std::uint32_t> low(n, 0);
  std::uint32_t last_disc = kSourceDisc;
  struct Frame {
    ProcessId v;
    std::size_t next;  ///< cursor into sg.neighbours(v)
  };
  std::vector<Frame> frames;
  std::vector<ProcessId> unclosed;  // vertices of blocks not yet closed

  const auto visit = [&](ProcessId v, bool child_of_source) {
    const auto vi = static_cast<std::size_t>(v);
    disc[vi] = low[vi] = ++last_disc;
    if (in_clique[vi] && !child_of_source) low[vi] = kSourceDisc;
    frames.push_back({v, 0});
    unclosed.push_back(v);
  };

  for (ProcessId root : clique) {
    if (disc[static_cast<std::size_t>(root)] != 0) continue;
    visit(root, /*child_of_source=*/true);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto vi = static_cast<std::size_t>(f.v);
      const auto& nbrs = sg.neighbours(f.v);
      if (f.next < nbrs.size()) {
        const ProcessId w = nbrs[f.next++];
        const auto wi = static_cast<std::size_t>(w);
        if (in_clique[vi] && in_clique[wi]) continue;  // not an edge of G_x
        if (disc[wi] == 0) {
          visit(w, /*child_of_source=*/false);
        } else {
          low[vi] = std::min(low[vi], disc[wi]);
        }
        continue;
      }
      const ProcessId v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        const auto pi = static_cast<std::size_t>(frames.back().v);
        low[pi] = std::min(low[pi], low[vi]);
        if (low[vi] < disc[pi]) continue;
      }
      // Close the block of tree edge (parent, v): v and everything opened
      // after it.  With parent == s its outside-C(x) vertices are members.
      ProcessId u;
      do {
        u = unclosed.back();
        unclosed.pop_back();
        if (frames.empty() && !in_clique[static_cast<std::size_t>(u)]) {
          members.insert(u);
        }
      } while (u != v);
    }
  }
  return members;
}

bool hoop_exists(const ShareGraph& sg, VarId x) {
  return !hoop_members(sg, x).empty();
}

std::set<ProcessId> x_relevant(const ShareGraph& sg, VarId x) {
  std::set<ProcessId> out = hoop_members(sg, x);
  for (ProcessId p : sg.clique(x)) out.insert(p);
  return out;
}

std::vector<std::set<ProcessId>> all_relevant_sets(const ShareGraph& sg) {
  std::vector<std::set<ProcessId>> out;
  out.reserve(sg.var_count());
  for (std::size_t x = 0; x < sg.var_count(); ++x) {
    out.push_back(x_relevant(sg, static_cast<VarId>(x)));
  }
  return out;
}

RelevanceSummary summarize_relevance(const ShareGraph& sg) {
  RelevanceSummary s;
  for (std::size_t x = 0; x < sg.var_count(); ++x) {
    const auto xv = static_cast<VarId>(x);
    const auto relevant = x_relevant(sg, xv);
    const auto& clique = sg.clique(xv);
    s.total_relevant += relevant.size();
    s.total_replicas += clique.size();
    if (relevant.size() > clique.size()) ++s.vars_with_hoops;
  }
  return s;
}

}  // namespace pardsm::graph
