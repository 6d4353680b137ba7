// Interned message-kind identifiers.
//
// Every message used to carry its kind tag ("PRAM", "RREQ", ...) as a
// std::string copied through the event queue.  The set of kinds in any run
// is tiny and fixed, so kinds are interned once into a process-global
// table and messages carry a 2-byte KindId.  Ids are assigned in first-
// intern order and are stable for the lifetime of the process; id 0 is
// always the empty kind.  The table is thread-safe (the std::thread
// runtime sends from many threads), but protocols are expected to intern
// their kinds once into namespace-scope constants so the steady-state send
// path never touches the table lock.  name() takes no lock at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace pardsm {

class KindId {
 public:
  /// The empty kind "" (id 0) — the default of MessageMeta.
  constexpr KindId() = default;

  /// Intern `name` (implicit: lets `meta.kind = "PRAM"` keep working).
  KindId(std::string_view name);           // NOLINT(google-explicit-*)
  KindId(const char* name) : KindId(std::string_view(name)) {}  // NOLINT

  /// The interned spelling.  Valid for the process lifetime.
  [[nodiscard]] std::string_view name() const;

  [[nodiscard]] std::uint16_t value() const { return id_; }

  friend bool operator==(KindId, KindId) = default;

 private:
  friend KindId arq_wrapped(KindId base);
  friend std::optional<KindId> find_kind(std::string_view name);
  explicit constexpr KindId(std::uint16_t id, int) : id_(id) {}

  std::uint16_t id_ = 0;
};

/// The kind "ARQ:" + base.name(), interned once per base kind and cached,
/// so the reliable-transport wrapper adds no allocation per frame.  Throws
/// if `base` is itself ARQ-wrapped.
[[nodiscard]] KindId arq_wrapped(KindId base);

/// The kind spelled `name` if it is already interned, or "ARQ:" + a
/// registered base that is not itself ARQ-wrapped (wrapped here, once per
/// base).  Interns nothing else: the decoding side of a socket, where the
/// spelling comes from a peer.
[[nodiscard]] std::optional<KindId> find_kind(std::string_view name);

/// Number of distinct kinds interned so far (diagnostics/tests).
[[nodiscard]] std::size_t kind_table_size();

}  // namespace pardsm
