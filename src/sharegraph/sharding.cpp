#include "sharegraph/sharding.h"

#include <algorithm>
#include <numeric>

#include "simnet/check.h"
#include "simnet/parallel_sim.h"

namespace pardsm::graph {

std::vector<std::vector<ProcessId>> share_components(
    const Distribution& dist) {
  const std::size_t n = dist.process_count();
  // Union-find with path halving whose roots are each set's smallest
  // member, so numbering roots in ascending order numbers the components
  // by minimum member.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  // C(x) is a clique of SG: joining each holder of x to its first holder
  // joins the whole clique.
  std::vector<ProcessId> first(dist.var_count, kNoProcess);
  for (std::size_t p = 0; p < n; ++p) {
    for (VarId x : dist.per_process[p]) {
      PARDSM_CHECK(x >= 0 && static_cast<std::size_t>(x) < dist.var_count,
                   "variable id out of range");
      ProcessId& f = first[static_cast<std::size_t>(x)];
      if (f == kNoProcess) {
        f = static_cast<ProcessId>(p);
        continue;
      }
      const std::size_t a = find(static_cast<std::size_t>(f));
      const std::size_t b = find(p);
      parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::vector<std::vector<ProcessId>> out;
  std::vector<std::size_t> index(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t root = find(p);  // root <= p: numbered already
    if (root == p) {
      index[p] = out.size();
      out.emplace_back();
    }
    out[index[root]].push_back(static_cast<ProcessId>(p));
  }
  return out;
}

std::vector<int> shard_assignment(const Distribution& dist, int num_shards) {
  PARDSM_CHECK(num_shards >= 1, "shard_assignment: need at least one shard");
  const std::size_t n = dist.process_count();
  std::vector<int> shard(n, 0);
  if (num_shards == 1) return shard;

  const auto k = static_cast<std::size_t>(num_shards);
  const std::size_t block = (n + k - 1) / k;
  std::size_t before = 0;  // layout position of the component's first member
  for (const auto& component : share_components(dist)) {
    const std::size_t size = component.size();
    for (std::size_t i = 0; i < size; ++i) {
      // A cell that fits in a block goes whole to the block holding its
      // centre (position before + size / 2); a larger one is cut.
      shard[static_cast<std::size_t>(component[i])] =
          size <= block ? block_shard(2 * before + size, 2 * n, num_shards)
                        : block_shard(before + i, n, num_shards);
    }
    before += size;
  }
  return shard;
}

}  // namespace pardsm::graph
