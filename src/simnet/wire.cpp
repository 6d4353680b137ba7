#include "simnet/wire.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pardsm::wire {

namespace {

/// Decoder table.  Registration happens during static initialization of
/// the protocol translation units (single-threaded), lookups happen on
/// the threads that read sockets — a plain array with no lock is safe because the
/// table is write-once-before-main.
constexpr std::size_t kMaxWireType = 128;

std::array<DecodeFn, kMaxWireType>& table() {
  static std::array<DecodeFn, kMaxWireType> t{};
  return t;
}

/// decode_body calls active on this thread (decoders nest through it).
thread_local int tl_body_depth = 0;

}  // namespace

void register_decoder(std::uint32_t type, DecodeFn fn) {
  PARDSM_CHECK(type > 0 && type < kMaxWireType, "wire: tag out of range");
  PARDSM_CHECK(fn != nullptr, "wire: null decoder");
  PARDSM_CHECK(table()[type] == nullptr, "wire: duplicate decoder tag");
  table()[type] = fn;
}

void encode_body(WireWriter& w, const MessageBody& body) {
  const std::uint32_t type = body.wire_type();
  PARDSM_CHECK(type != 0,
               "wire: body has no codec (wire_type 0) — this message kind "
               "cannot cross a socket; add a codec where the body is defined");
  w.u32(type);
  body.wire_encode(w);
}

BodyRef decode_body(WireReader& r, BodyArena& arena) {
  PARDSM_CHECK(tl_body_depth < kMaxBodyDepth,
               "wire: body nesting exceeds the limit");
  struct Depth {
    Depth() { ++tl_body_depth; }
    ~Depth() { --tl_body_depth; }
    Depth(const Depth&) = delete;
    Depth& operator=(const Depth&) = delete;
  } depth;
  const std::uint32_t type = r.u32();
  PARDSM_CHECK(type < kMaxWireType && table()[type] != nullptr,
               "wire: unknown body tag in frame");
  return table()[type](r, arena);
}

void encode_meta(WireWriter& w, const MessageMeta& meta) {
  w.str(meta.kind.name());
  w.u64(meta.control_bytes);
  w.u64(meta.payload_bytes);
  w.boolean(meta.urgent);
  w.u16(static_cast<std::uint16_t>(meta.vars_mentioned.size()));
  for (VarId x : meta.vars_mentioned) w.i32(x);
}

MessageMeta decode_meta(WireReader& r) {
  // Spellings this thread has resolved before: the kinds of a run are few
  // and an id never changes, so the steady state takes no table lock.
  thread_local std::vector<std::pair<std::string, KindId>> resolved;
  MessageMeta meta;
  const std::string_view name = r.str_view();
  const auto hit = std::find_if(resolved.begin(), resolved.end(),
                                [&](const auto& e) { return e.first == name; });
  if (hit != resolved.end()) {
    meta.kind = hit->second;
  } else {
    const std::optional<KindId> kind = find_kind(name);
    PARDSM_CHECK(kind.has_value(), "wire: frame names an unknown kind");
    resolved.emplace_back(name, *kind);
    meta.kind = *kind;
  }
  meta.control_bytes = r.u64();
  meta.payload_bytes = r.u64();
  meta.urgent = r.boolean();
  const std::size_t vars = r.u16();
  for (std::size_t i = 0; i < vars; ++i) meta.vars_mentioned.push_back(r.i32());
  return meta;
}

}  // namespace pardsm::wire
