// The share graph SG (Section 3.1 of the paper).
//
// Vertices are processes; an edge (i, j) exists iff some variable is
// replicated on both p_i and p_j; the edge label is X_i ∩ X_j.  Each
// variable x spans a clique C(x) (the processes replicating x), and
// SG = ∪_x C(x).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/ids.h"

namespace pardsm::graph {

/// A variable distribution: per_process[i] = X_i.
struct Distribution {
  std::string name;
  std::size_t var_count = 0;
  std::vector<std::vector<VarId>> per_process;

  [[nodiscard]] std::size_t process_count() const {
    return per_process.size();
  }

  /// True if process p replicates variable x.
  [[nodiscard]] bool holds(ProcessId p, VarId x) const;

  /// C(x) as a sorted list of processes.
  [[nodiscard]] std::vector<ProcessId> replicas_of(VarId x) const;

  /// Average replication degree (|C(x)| averaged over variables).
  [[nodiscard]] double average_replication() const;
};

/// var -> C(x) for every variable of `dist`: each clique sorted and
/// duplicate-free (a process listing x twice appears once), exactly as
/// replicas_of reports it, built in O(Σ|X_i|) with one allocation per
/// variable.  Checks every variable id against var_count: distributions
/// can come from outside input (NodeSpec files).
[[nodiscard]] std::vector<std::vector<ProcessId>> build_cliques(
    const Distribution& dist);

/// The share graph of a distribution.
class ShareGraph {
 public:
  explicit ShareGraph(Distribution dist);

  [[nodiscard]] const Distribution& distribution() const { return dist_; }
  [[nodiscard]] std::size_t process_count() const {
    return dist_.process_count();
  }
  [[nodiscard]] std::size_t var_count() const { return dist_.var_count; }

  /// True if (i, j) is an edge of SG (some shared variable).
  [[nodiscard]] bool has_edge(ProcessId i, ProcessId j) const;

  /// Edge label: variables shared by p_i and p_j (empty if no edge).
  [[nodiscard]] std::vector<VarId> label(ProcessId i, ProcessId j) const;

  /// Neighbours of p_i in SG (sorted).
  [[nodiscard]] const std::vector<ProcessId>& neighbours(ProcessId i) const;

  /// The clique C(x): processes replicating x (sorted).
  [[nodiscard]] const std::vector<ProcessId>& clique(VarId x) const;

  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const;

  /// Connected components of SG (each sorted; components sorted by min).
  [[nodiscard]] std::vector<std::vector<ProcessId>> components() const;

  /// GraphViz "dot" rendering with variable labels on edges.
  [[nodiscard]] std::string to_dot() const;

 private:
  Distribution dist_;
  std::vector<std::vector<ProcessId>> cliques_;    ///< var -> C(x)
  std::vector<std::vector<VarId>> var_sets_;       ///< process -> X_i, sorted
  std::vector<std::vector<ProcessId>> adjacency_;  ///< ∪ of cliques
};

}  // namespace pardsm::graph
