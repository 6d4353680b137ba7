#include "mcs/replica_store.h"

#include <algorithm>

#include "simnet/check.h"

namespace pardsm::mcs {

ReplicaStore::ReplicaStore(const std::vector<VarId>& vars) : vars_(vars) {
  std::sort(vars_.begin(), vars_.end());
  vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
  PARDSM_CHECK(vars_.empty() || vars_.front() >= 0,
               "ReplicaStore: negative variable id");
  data_.resize(vars_.size());
}

const Stored& ReplicaStore::get(VarId x) const {
  const std::int32_t slot = slot_of(x);
  PARDSM_CHECK(slot >= 0, "ReplicaStore::get: variable not replicated here");
  return data_[static_cast<std::size_t>(slot)];
}

void ReplicaStore::put(VarId x, Value value, WriteId source) {
  const std::int32_t slot = slot_of(x);
  PARDSM_CHECK(slot >= 0, "ReplicaStore::put: variable not replicated here");
  data_[static_cast<std::size_t>(slot)] = Stored{value, source};
  ++version_;
}

}  // namespace pardsm::mcs
