// Shard assignment for the parallel simulation engine.
//
// The share graph tells us which processes can ever exchange protocol
// traffic: messages only flow inside SG components (a variable's clique is
// a clique of SG, and every protocol's traffic follows cliques).  The
// assignment lays the components out in ascending min-member order (each
// component's members ascending) and cuts that layout into k contiguous
// blocks, block_shard's rule:
//
//   * A component no larger than a block stays whole, on the shard whose
//     block holds its centre.  The sharded and hierarchical topologies of
//     the paper's efficiency argument decompose into many small cells, so
//     nearly all their traffic is shard-local and neighbouring cells share
//     a shard.
//   * A larger component is cut at the block boundaries.  A connected
//     share graph (chains, random replication) is one such component, so
//     process p lands on shard p * k / n: k id blocks whose sizes differ
//     by at most one, the ParallelSimulator's default too.
//
// Contiguity is what makes the parallel root fast: per-process state laid
// out in id order (sequence counters, clients, process objects) is then
// written by one shard per cache line instead of by all of them.  The
// assignment never changes a result (the canonical event order does not
// depend on it); it only decides which thread runs an event.
#pragma once

#include <vector>

#include "sharegraph/share_graph.h"

namespace pardsm::graph {

/// Shard per process (values in [0, num_shards)) for running `dist` on
/// the parallel engine, by the layout rule above.  Finds the components
/// with a union-find over each C(x), without building the share graph.
[[nodiscard]] std::vector<int> shard_assignment(const Distribution& dist,
                                                int num_shards);

/// Connected components of the share graph of `dist` (each sorted,
/// components sorted by minimum member): ShareGraph::components() from a
/// union-find over each C(x), in O(Σ|X_i|) with no adjacency lists.
[[nodiscard]] std::vector<std::vector<ProcessId>> share_components(
    const Distribution& dist);

}  // namespace pardsm::graph
