// Pooled, intrusively refcounted message bodies.
//
// PR 2 made the event queue allocation-free; this layer does the same for
// the bodies those events carry.  Instead of std::make_shared<Body>() per
// protocol send (heap allocation + atomic control block + dynamic_cast on
// delivery), bodies live in per-type slab pools, carry their own refcount,
// and are dispatched by a 1-byte type tag:
//
//   * BodyRef        — owning smart pointer (copy = retain, move = steal).
//                      On the last release the body returns to its pool's
//                      freelist; unpooled bodies (make_body) are deleted.
//   * BodyPool<T>    — slab pool for one body type: a deque of slots plus
//                      a freelist.  Types with a reset() member stay
//                      constructed across recycles so their containers keep
//                      their capacity; others are destroyed on recycle and
//                      placement-new'ed on create.
//   * BodyArena      — per-transport-root registry of pools, indexed by
//                      BodyTypeId.  A serial arena (single-threaded
//                      Simulator) skips both the freelist mutex and atomic
//                      refcounts; a concurrent arena (ThreadRuntime,
//                      SocketTransport, ParallelSimulator shards) locks the
//                      freelist and stamps bodies for atomic refcounting.
//   * body_type_id<T>() — process-wide dense tag (< 256) used both for
//                      arena slots and for Message::try_as<T> tag
//                      dispatch.
//
// Threading contract (docs/HOTPATH.md has the long version): a body's
// refcount discipline is fixed at creation by the arena that made it.
// Serial-arena bodies must never escape their simulator thread; make_body
// and every concurrent arena stamp atomic refcounts, so those bodies may
// cross threads freely.  recycle() pushes to the owning pool's freelist
// (locked iff the pool is concurrent), so a body may die on any thread
// that may legally hold it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "simnet/check.h"

namespace pardsm {

class BodyPoolBase;
class MessageBody;
class WireWriter;  // simnet/wire.h

/// Dense per-process tag identifying a concrete MessageBody subclass.
/// 0 is reserved for "unstamped" (a body constructed outside the pool /
/// make_body machinery); real ids start at 1.
using BodyTypeId = std::uint8_t;

namespace detail {

inline BodyTypeId allocate_body_type_id() {
  static std::atomic<unsigned> next{1};
  const unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  PARDSM_CHECK(id < 256, "body_type_id: more than 255 body types");
  return static_cast<BodyTypeId>(id);
}

struct BodyAccess;

}  // namespace detail

/// The process-wide tag for body type T.  First call allocates the next
/// id (thread-safe via the function-local static); ids are dense so a
/// 256-slot arena array covers every type.
template <typename T>
[[nodiscard]] inline BodyTypeId body_type_id() {
  static_assert(!std::is_const_v<T> && !std::is_volatile_v<T>,
                "body_type_id: use the unqualified body type");
  static const BodyTypeId id = detail::allocate_body_type_id();
  return id;
}

/// Base class for protocol-defined message contents.
///
/// Bodies are plain in-memory objects for the simulated runtimes (one
/// address space, no serialization).  The real-sockets root needs bytes:
/// a body that may cross a TCP frame overrides wire_type()/wire_encode()
/// and registers a decoder (wire::BodyRegistrar).  The default wire_type
/// of 0 means "not serializable" — SocketTransport rejects such bodies
/// loudly instead of silently corrupting a frame.
///
/// The intrusive header (refcount, owning pool, type tag, sharing flag)
/// is stamped by BodyPool<T>::create / make_body<T> and deliberately NOT
/// copied by the copy operations: `*b = other` copies payload fields of
/// the derived type while `b` keeps its own identity, pool and refcount.
class MessageBody {
 public:
  MessageBody() = default;
  MessageBody(const MessageBody&) noexcept {}
  MessageBody& operator=(const MessageBody&) noexcept { return *this; }
  virtual ~MessageBody() = default;

  /// Stable wire tag (wire::WireType); 0 = cannot cross a socket.
  [[nodiscard]] virtual std::uint32_t wire_type() const { return 0; }

  /// Append the body's fields to `w` (inverse of the registered decoder).
  virtual void wire_encode(WireWriter& w) const { (void)w; }

 private:
  friend struct detail::BodyAccess;

  /// Refcount.  Always stored in an atomic, but serial-arena bodies are
  /// touched with relaxed load+store (plain moves — no lock prefix); only
  /// shared_ bodies pay for real atomic RMW.
  mutable std::atomic<std::uint32_t> rc_{0};
  /// Owning pool (nullptr = make_body heap object, deleted on release).
  BodyPoolBase* pool_ = nullptr;
  /// body_type_id<DerivedT>() — drives Message::try_as<T> tag dispatch.
  BodyTypeId type_id_ = 0;
  /// True when the refcount may be touched from multiple threads.
  bool shared_ = false;
};

namespace detail {

/// Single friend of MessageBody through which BodyRef, the pools and the
/// message plane touch the intrusive header.
struct BodyAccess {
  static void stamp(const MessageBody& b, BodyPoolBase* pool, BodyTypeId id,
                    bool shared) noexcept {
    b.rc_.store(1, std::memory_order_relaxed);
    const_cast<MessageBody&>(b).pool_ = pool;
    const_cast<MessageBody&>(b).type_id_ = id;
    const_cast<MessageBody&>(b).shared_ = shared;
  }

  static void retain(const MessageBody& b) noexcept {
    if (b.shared_) {
      b.rc_.fetch_add(1, std::memory_order_relaxed);
    } else {
      b.rc_.store(b.rc_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    }
  }

  /// Returns true when this was the last reference.
  [[nodiscard]] static bool release(const MessageBody& b) noexcept {
    if (b.shared_) {
      return b.rc_.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
    const std::uint32_t v = b.rc_.load(std::memory_order_relaxed);
    b.rc_.store(v - 1, std::memory_order_relaxed);
    return v == 1;
  }

  [[nodiscard]] static BodyTypeId type_of(const MessageBody& b) noexcept {
    return b.type_id_;
  }
  [[nodiscard]] static BodyPoolBase* pool_of(const MessageBody& b) noexcept {
    return b.pool_;
  }
  [[nodiscard]] static std::uint32_t refcount(const MessageBody& b) noexcept {
    return b.rc_.load(std::memory_order_relaxed);
  }
};

}  // namespace detail

/// Type-erased pool interface: BodyRef only needs recycle().
class BodyPoolBase {
 public:
  virtual ~BodyPoolBase() = default;
  virtual void recycle(const MessageBody* body) noexcept = 0;
};

/// Owning reference to a (usually pooled) immutable message body.
/// Copy retains, move steals; the last release recycles into the owning
/// pool, or deletes when the body came from make_body.
class BodyRef {
 public:
  BodyRef() = default;
  BodyRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Take ownership of a body whose refcount is already 1 (fresh from
  /// BodyPool<T>::create or make_body).
  [[nodiscard]] static BodyRef adopt(const MessageBody* body) noexcept {
    BodyRef r;
    r.ptr_ = body;
    return r;
  }

  BodyRef(const BodyRef& other) noexcept : ptr_(other.ptr_) {
    if (ptr_ != nullptr) detail::BodyAccess::retain(*ptr_);
  }
  BodyRef(BodyRef&& other) noexcept : ptr_(other.ptr_) {
    other.ptr_ = nullptr;
  }
  BodyRef& operator=(const BodyRef& other) noexcept {
    if (this != &other) {
      const MessageBody* old = ptr_;
      ptr_ = other.ptr_;
      if (ptr_ != nullptr) detail::BodyAccess::retain(*ptr_);
      drop(old);
    }
    return *this;
  }
  BodyRef& operator=(BodyRef&& other) noexcept {
    if (this != &other) {
      const MessageBody* old = ptr_;
      ptr_ = other.ptr_;
      other.ptr_ = nullptr;
      drop(old);
    }
    return *this;
  }
  ~BodyRef() { drop(ptr_); }

  void reset() noexcept {
    drop(ptr_);
    ptr_ = nullptr;
  }

  [[nodiscard]] const MessageBody* get() const noexcept { return ptr_; }
  [[nodiscard]] const MessageBody& operator*() const noexcept { return *ptr_; }
  const MessageBody* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }
  friend bool operator==(const BodyRef& r, std::nullptr_t) noexcept {
    return r.ptr_ == nullptr;
  }
  friend bool operator==(const BodyRef& a, const BodyRef& b) noexcept {
    return a.ptr_ == b.ptr_;
  }

 private:
  static void drop(const MessageBody* p) noexcept {
    if (p == nullptr || !detail::BodyAccess::release(*p)) return;
    if (BodyPoolBase* pool = detail::BodyAccess::pool_of(*p)) {
      pool->recycle(p);
    } else {
      delete p;
    }
  }

  const MessageBody* ptr_ = nullptr;
};

namespace detail {

/// Body types with a reset() member stay constructed across recycles so
/// their containers keep their heap capacity (BatchFrame's item vector,
/// DepSnapshotBody's entries).
template <typename T>
concept PoolResettable = requires(T& t) {
  { t.reset() };
};

}  // namespace detail

/// Slab pool for one concrete body type: a deque of stable slots plus a
/// freelist.  `concurrent` pools guard the freelist with a mutex and
/// stamp bodies for atomic refcounting; serial pools do neither.
template <typename T>
class BodyPool final : public BodyPoolBase {
  static_assert(std::is_base_of_v<MessageBody, T>,
                "BodyPool: T must derive from MessageBody");

 public:
  explicit BodyPool(bool concurrent) : concurrent_(concurrent) {}

  BodyPool(const BodyPool&) = delete;
  BodyPool& operator=(const BodyPool&) = delete;

  ~BodyPool() override {
    // All BodyRefs into this pool must be gone by now (the arena outlives
    // its transport root's in-flight traffic); destroy surviving slots.
    for (Slot& s : slots_) {
      if (s.live) object_of(s)->~T();
    }
  }

  /// A default-constructed (or freelist-reset) body with refcount 1; fill
  /// its fields, then wrap with BodyRef::adopt.
  [[nodiscard]] T* create() {
    Slot* s = take_slot();
    T* t;
    if (s->live) {
      t = object_of(*s);
    } else {
      t = ::new (static_cast<void*>(s->raw)) T();
      s->live = true;
    }
    detail::BodyAccess::stamp(*t, this, body_type_id<T>(), concurrent_);
    return t;
  }

  void recycle(const MessageBody* body) noexcept override {
    T* t = const_cast<T*>(static_cast<const T*>(body));
    if constexpr (detail::PoolResettable<T>) {
      t->reset();
    } else {
      slot_of(t)->live = false;
      t->~T();
    }
    if (concurrent_) {
      std::lock_guard lock(mu_);
      free_.push_back(t);
    } else {
      free_.push_back(t);
    }
  }

 private:
  struct Slot {
    alignas(T) unsigned char raw[sizeof(T)];
    bool live = false;
  };

  static T* object_of(Slot& s) noexcept {
    return std::launder(reinterpret_cast<T*>(s.raw));
  }
  static Slot* slot_of(T* t) noexcept {
    // raw is the first member of the standard-layout Slot, so the object
    // address is the slot address.
    return reinterpret_cast<Slot*>(reinterpret_cast<unsigned char*>(t));
  }

  Slot* take_slot() {
    if (concurrent_) {
      std::lock_guard lock(mu_);
      return take_slot_locked();
    }
    return take_slot_locked();
  }
  Slot* take_slot_locked() {
    if (!free_.empty()) {
      T* t = free_.back();
      free_.pop_back();
      return slot_of(t);
    }
    slots_.emplace_back();
    return &slots_.back();
  }

  const bool concurrent_;
  std::mutex mu_;
  std::deque<Slot> slots_;   // stable addresses across growth
  std::vector<T*> free_;
};

/// Per-transport-root registry of BodyPools, indexed by BodyTypeId.
/// Lookup is one acquire load off an array; pool creation (cold, once per
/// type per arena) is mutex-guarded.
class BodyArena {
 public:
  explicit BodyArena(bool concurrent) : concurrent_(concurrent) {}

  BodyArena(const BodyArena&) = delete;
  BodyArena& operator=(const BodyArena&) = delete;

  ~BodyArena() {
    for (auto& slot : pools_) delete slot.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool concurrent() const noexcept { return concurrent_; }

  template <typename T>
  [[nodiscard]] BodyPool<T>& pool() {
    const BodyTypeId id = body_type_id<T>();
    BodyPoolBase* p = pools_[id].load(std::memory_order_acquire);
    if (p == nullptr) {
      std::lock_guard lock(create_mu_);
      p = pools_[id].load(std::memory_order_relaxed);
      if (p == nullptr) {
        p = new BodyPool<T>(concurrent_);
        pools_[id].store(p, std::memory_order_release);
      }
    }
    return *static_cast<BodyPool<T>*>(p);
  }

  /// Shorthand: create a body of type T from this arena's pool.
  template <typename T>
  [[nodiscard]] T* create() {
    return pool<T>().create();
  }

 private:
  const bool concurrent_;
  std::mutex create_mu_;
  std::array<std::atomic<BodyPoolBase*>, 256> pools_{};
};

/// Unpooled heap body for tests and cold paths (resync, drivers), returned
/// as a mutable pointer so fields can be filled in before the caller wraps
/// it with BodyRef::adopt.  Always stamped shared (atomic refcount) so it
/// is safe on any runtime root; the last release deletes it.
template <typename T, typename... Args>
[[nodiscard]] T* new_body(Args&&... args) {
  static_assert(std::is_base_of_v<MessageBody, T>,
                "new_body: T must derive from MessageBody");
  T* t = new T(std::forward<Args>(args)...);
  detail::BodyAccess::stamp(*t, nullptr, body_type_id<T>(), /*shared=*/true);
  return t;
}

/// Unpooled heap body for tests and cold paths: a drop-in replacement for
/// the old std::make_shared<T>(...) when no post-construction filling is
/// needed.
template <typename T, typename... Args>
[[nodiscard]] BodyRef make_body(Args&&... args) {
  return BodyRef::adopt(new_body<T>(std::forward<Args>(args)...));
}

}  // namespace pardsm
