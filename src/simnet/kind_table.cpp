#include "simnet/kind_table.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "simnet/check.h"

namespace pardsm {

namespace {

constexpr std::string_view kArqPrefix = "ARQ:";

/// Global intern table.  Names live in fixed-size chunks that never move,
/// so string_views handed out by KindId::name() stay valid forever and the
/// map keys can view into them.  name() reads without the lock: a chunk
/// and an entry are written before `size` is released past the entry's
/// id, and name() acquires `size` before it reads.
struct Table {
  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxKinds = 0xFFFF;

  std::mutex mu;
  std::array<std::unique_ptr<std::string[]>, kMaxKinds / kChunkSize + 1>
      chunks;
  std::atomic<std::size_t> size{0};
  // Both maps are lookup-only (find/emplace): nothing ever iterates them,
  // so hash order cannot reach message or serialized output.  Kind ids are
  // assigned in insertion order, which is deterministic.
  // pardsm-lint: allow(unordered-iter): lookup-only intern map, never iterated
  std::unordered_map<std::string_view, std::uint16_t> ids;
  // pardsm-lint: allow(unordered-iter): lookup-only ARQ-prefix cache, never iterated
  std::unordered_map<std::uint16_t, std::uint16_t> arq_of;

  Table() { intern_locked(""); }  // id 0: the empty kind

  const std::string& at(std::size_t id) const {
    return chunks[id >> kChunkBits][id & (kChunkSize - 1)];
  }

  std::uint16_t intern_locked(std::string_view name) {
    if (const auto it = ids.find(name); it != ids.end()) return it->second;
    const std::size_t id = size.load(std::memory_order_relaxed);
    PARDSM_CHECK(id < kMaxKinds, "kind table overflow");
    auto& chunk = chunks[id >> kChunkBits];
    if (!chunk) chunk = std::make_unique<std::string[]>(kChunkSize);
    std::string& slot = chunk[id & (kChunkSize - 1)];
    slot = name;
    ids.emplace(slot, static_cast<std::uint16_t>(id));
    size.store(id + 1, std::memory_order_release);
    return static_cast<std::uint16_t>(id);
  }

  std::uint16_t arq_wrapped_locked(std::uint16_t base) {
    if (const auto it = arq_of.find(base); it != arq_of.end()) {
      return it->second;
    }
    // No stack puts ARQ over ARQ; refusing it bounds the table, since a
    // decoded ARQ frame wraps whatever kind its payload names.
    PARDSM_CHECK(!at(base).starts_with(kArqPrefix),
                 "kind is already ARQ-wrapped");
    const std::uint16_t id = intern_locked(std::string(kArqPrefix) + at(base));
    arq_of.emplace(base, id);
    return id;
  }
};

Table& table() {
  static Table t;
  return t;
}

}  // namespace

KindId::KindId(std::string_view name) {
  auto& t = table();
  std::lock_guard lock(t.mu);
  id_ = t.intern_locked(name);
}

std::string_view KindId::name() const {
  const auto& t = table();
  PARDSM_CHECK(id_ < t.size.load(std::memory_order_acquire),
               "KindId out of range");
  return t.at(id_);
}

KindId arq_wrapped(KindId base) {
  auto& t = table();
  PARDSM_CHECK(base.id_ < t.size.load(std::memory_order_acquire),
               "KindId out of range");
  std::lock_guard lock(t.mu);
  return KindId(t.arq_wrapped_locked(base.id_), 0);
}

std::optional<KindId> find_kind(std::string_view name) {
  auto& t = table();
  std::lock_guard lock(t.mu);
  if (const auto it = t.ids.find(name); it != t.ids.end()) {
    return KindId(it->second, 0);
  }
  // "ARQ:" + base is wrapped on first sight, like arq_wrapped() on the
  // sending side; a wrapped base is not wrapped again, so one unknown
  // spelling can add at most one entry per registered plain kind.
  if (!name.starts_with(kArqPrefix)) return std::nullopt;
  const std::string_view base = name.substr(kArqPrefix.size());
  if (base.starts_with(kArqPrefix)) return std::nullopt;
  const auto it = t.ids.find(base);
  if (it == t.ids.end()) return std::nullopt;
  return KindId(t.arq_wrapped_locked(it->second), 0);
}

std::size_t kind_table_size() {
  return table().size.load(std::memory_order_acquire);
}

}  // namespace pardsm
