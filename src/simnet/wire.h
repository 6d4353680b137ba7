// Byte-level serialization for the real-sockets transport root.
//
// The simulated runtimes pass MessageBody pointers through one address
// space; SocketTransport puts frames on real TCP connections between OS
// processes, so every body that may cross a socket needs an exact byte
// codec.  WireWriter/WireReader are bounds-checked little-endian buffer
// cursors; the body registry maps a stable WireType tag to a decoder, and
// encode_body/decode_body frame a polymorphic body as [tag][fields].
//
// Codecs live next to the bodies they serialize: each protocol .cpp
// overrides MessageBody::wire_type()/wire_encode() on its private body
// structs and registers the matching decoder with a namespace-scope
// wire::BodyRegistrar.  Transport-layer frames (ARQ DATA/ACK, batching
// BatchFrame) nest their payload bodies recursively through
// encode_body/decode_body, so any stack order serializes.
//
// The format favours obviousness over compactness (fixed-width fields,
// kind tags as strings looked up on receipt): the paper's byte ledger is
// MessageMeta::wire_bytes(), not the frame encoding, and SocketTransport
// reports real frame bytes separately (SocketCounters::bytes_*).  A body's
// fields still carry what its meta charges: the ad-hoc causal message,
// for one, encodes only the dependency entries its recipient tracks, each
// with |C(y)| counters.
//
// Decoders never trust a count: wire::get_count() rejects an element
// count the rest of the frame cannot hold before anything is sized by it.
// Nor a nesting depth: decode_body rejects bodies nested deeper than
// kMaxBodyDepth.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "simnet/check.h"
#include "simnet/message.h"
#include "simnet/sim_time.h"

namespace pardsm {

/// Append-only little-endian buffer cursor.
class WireWriter {
 public:
  /// Pre-size the buffer (a capacity hint also keeps GCC's inlined
  /// vector-growth analysis from flagging spurious -Warray-bounds).
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    PARDSM_CHECK(s.size() <= 0xFFFF, "wire: string too long");
    u16(static_cast<std::uint16_t>(s.size()));
    for (char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  }

  /// Overwrite the u32 written at byte offset `pos` (a length prefix
  /// reserved before its payload was known).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    PARDSM_CHECK(pos + 4 <= buf_.size(), "wire: patch past the end");
    std::memcpy(buf_.data() + pos, &v, 4);
  }
  /// Empty the buffer and keep its capacity, for a writer that is reused.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a received frame.  Every accessor throws
/// (PARDSM_CHECK) on underrun — a truncated or corrupt frame must never
/// read past the buffer.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  std::int32_t i32() { return load<std::int32_t>(); }
  std::int64_t i64() { return load<std::int64_t>(); }
  double f64() { return load<double>(); }
  bool boolean() { return u8() != 0; }
  std::string str() { return std::string(str_view()); }
  /// str() without the copy: a view into the frame.
  std::string_view str_view() {
    const std::size_t n = u16();
    const std::uint8_t* p = take(n);
    return {reinterpret_cast<const char*>(p), n};
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    PARDSM_CHECK(pos_ + n <= size_, "wire: frame underrun");
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  template <typename T>
  T load() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

namespace wire {

/// Stable body tags.  Append only — a tag is part of the wire contract
/// between node binaries of the same build (the bootstrap never mixes
/// builds, but stable tags keep frame dumps readable).
enum WireType : std::uint32_t {
  kNone = 0,
  // mcs/protocol.cpp (crash-recovery re-sync handshake)
  kResyncRequest = 1,
  kResyncResponse = 2,
  // protocol payloads
  kPramUpdate = 10,
  kCausalUpdate = 11,
  kPartialCausalMsg = 12,
  kAdHocMsg = 13,
  kSlowUpdate = 14,
  kSeqWriteRequest = 15,
  kSeqWriteCommit = 16,
  kAtomicReadRequest = 17,
  kAtomicReadReply = 18,
  kAtomicWriteRequest = 19,
  kAtomicWriteAck = 20,
  kAtomicRefresh = 21,
  kCacheWriteReq = 22,
  kCacheCommit = 23,
  // transport-layer frames (nest payload bodies recursively)
  kArqData = 40,
  kArqAck = 41,
  kBatchFrame = 42,
  // tests
  kTestPayload = 90,
};

/// Decoders allocate the body from the receiving transport's arena, so
/// decoded bodies recycle through the same pools as locally created ones.
using DecodeFn = BodyRef (*)(WireReader&, BodyArena&);

/// Register the decoder for `type` (duplicate registration is a bug).
void register_decoder(std::uint32_t type, DecodeFn fn);

/// Encode [wire_type][fields]; rejects bodies with wire_type() == 0.
void encode_body(WireWriter& w, const MessageBody& body);

/// Deepest nesting decode_body accepts.  The deepest legal stack is
/// batch -> ARQ -> batch -> body (four levels); without a cap a hostile
/// frame of nested ARQ or batch headers recurses until the reader's stack
/// overflows, at about 3 MB of frame.
inline constexpr int kMaxBodyDepth = 8;

/// Decode one framed body; rejects unknown tags and nesting deeper than
/// kMaxBodyDepth.
[[nodiscard]] BodyRef decode_body(WireReader& r, BodyArena& arena);

/// MessageMeta: kind travels as its string spelling (KindId values are
/// process-local).  decode_meta only looks the spelling up (find_kind): a
/// kind the receiver has not registered is rejected, so a peer cannot
/// grow the process-global kind table.
void encode_meta(WireWriter& w, const MessageMeta& meta);
[[nodiscard]] MessageMeta decode_meta(WireReader& r);

// -- small shared field helpers ---------------------------------------------

/// Smallest encodings, for bounding element counts: a framed body is at
/// least its tag; a meta at least its empty kind string, two byte counts,
/// the urgency flag and an empty variable list.
inline constexpr std::size_t kMinBodyWireBytes = 4;
inline constexpr std::size_t kMinMetaWireBytes = 2 + 8 + 8 + 1 + 2;

/// Read a u32 element count, rejecting it unless the rest of the frame can
/// hold that many elements of at least `min_bytes` each.  Decoders call
/// this before sizing a container, so a hostile count never sizes an
/// allocation.
[[nodiscard]] inline std::size_t get_count(WireReader& r,
                                           std::size_t min_bytes) {
  const std::size_t count = r.u32();
  PARDSM_CHECK(count <= r.remaining() / min_bytes,
               "wire: element count exceeds the frame");
  return count;
}

inline void put_time(WireWriter& w, TimePoint t) { w.i64(t.us); }
inline TimePoint get_time(WireReader& r) { return TimePoint{r.i64()}; }
inline void put_duration(WireWriter& w, Duration d) { w.i64(d.us); }
inline Duration get_duration(WireReader& r) { return Duration{r.i64()}; }
inline void put_write_id(WireWriter& w, const WriteId& id) {
  w.i32(id.writer);
  w.i64(id.seq);
}
inline WriteId get_write_id(WireReader& r) {
  WriteId id;
  id.writer = r.i32();
  id.seq = r.i64();
  return id;
}

/// Registers a decoder at namespace scope:
///   const wire::BodyRegistrar reg(wire::kPramUpdate, decode_pram);
struct BodyRegistrar {
  BodyRegistrar(std::uint32_t type, DecodeFn fn) {
    register_decoder(type, fn);
  }
};

}  // namespace wire
}  // namespace pardsm
