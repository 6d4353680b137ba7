// Messages exchanged between MCS processes.
//
// Protocol payloads are polymorphic MessageBody subclasses (no byte-level
// serialization: both runtimes live in one address space).  What the paper
// cares about — how much *control information* travels and which variables
// that information concerns — is declared explicitly in MessageMeta by the
// sending protocol and audited by NetworkStats / the efficiency analyzer.
//
// Both halves of a Message move through the event queue without heap
// allocations: MessageMeta interns its kind tag (2-byte KindId) and keeps
// mentioned variables in a small-buffer container, and the body is a
// pooled intrusively-refcounted BodyRef (simnet/body.h) dispatched by a
// 1-byte type tag instead of dynamic_cast.
#pragma once

#include <cstdint>
#include <type_traits>

#include "simnet/body.h"
#include "simnet/ids.h"
#include "simnet/kind_table.h"
#include "simnet/sim_time.h"
#include "simnet/small_vec.h"

namespace pardsm {

/// Accounting metadata attached to every message by the sending protocol.
struct MessageMeta {
  /// Interned tag for traces, e.g. "UPD", "NOTIFY", "ACK".  Assigning a
  /// string literal interns it; hot paths should assign a cached KindId.
  KindId kind;

  /// Bytes of protocol control information (timestamps, ids, clocks...).
  std::uint64_t control_bytes = 0;

  /// Bytes of application data (the written value itself).
  std::uint64_t payload_bytes = 0;

  /// Variables about which this message carries *metadata*.  A process that
  /// receives a message mentioning x becomes observably x-relevant — the
  /// quantity Theorem 1 and Theorem 2 of the paper characterize.
  SmallVec<VarId, 2> vars_mentioned;

  /// Transport hint, not wire data: a coalescing layer (BatchingTransport)
  /// must flush rather than delay this message — set by protocols for
  /// completion-blocking traffic (RPCs, commits, re-sync).  Never counted
  /// in wire_bytes() and ignored by non-batching transports.
  bool urgent = false;

  /// Total bytes on the wire (header modelled as 16 bytes).
  [[nodiscard]] std::uint64_t wire_bytes() const {
    return 16 + control_bytes + payload_bytes;
  }
};

/// A message in flight or being delivered.
struct Message {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  BodyRef body;
  MessageMeta meta;

  /// Filled by the runtime.
  std::uint64_t id = 0;
  TimePoint send_time{};
  TimePoint deliver_time{};

  /// Typed access to the body: a tag compare, not a dynamic_cast, and
  /// nullptr when the body is not exactly a T.  A delivered body may come
  /// from a peer's wire frame, so the check holds in release builds too:
  /// a handler rejects a foreign body instead of reading it as its own.
  template <typename T>
  [[nodiscard]] const T* try_as() const {
    using U = std::remove_cv_t<T>;
    if (!body || detail::BodyAccess::type_of(*body) != body_type_id<U>()) {
      return nullptr;
    }
    return static_cast<const T*>(body.get());
  }
};

}  // namespace pardsm
