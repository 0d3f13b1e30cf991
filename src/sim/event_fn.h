// Small-buffer callable wrapper for simulator events.
//
// The event queue is the simulation's hottest path: every disk transfer,
// network hop, policy timer and client step allocates one callback.  A
// `std::function` puts most of those captures on the heap; `EventFn` keeps
// any nothrow-movable callable up to `kInlineSize` bytes inline and only
// falls back to one heap allocation for oversized captures.  The whole
// wrapper is one 64-byte cache line, and a capture of plain values (the
// common case: pointers, ids, offsets) moves as a buffer copy and is dropped
// without any call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dasched {

/// Move-only `void()` callable.  Invoking an empty EventFn is undefined;
/// test with `operator bool` first (the simulator never stores empty ones).
class EventFn {
 public:
  /// Sized for the largest in-tree capture, `StorageSystem::route`'s network
  /// hop `[this, node, piece, is_write, background, join]` at exactly 56
  /// bytes, so the buffer plus the ops pointer fill one cache line.
  static constexpr std::size_t kInlineSize = 56;

  /// True when a callable of type `F` is stored inline (no heap allocation).
  /// Hot call sites `static_assert` it, so a capture that outgrows the
  /// buffer fails the build instead of allocating on every event.
  template <typename F, typename D = std::decay_t<F>>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  EventFn(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      heap_ = new D(std::forward<F>(f));
      ops_ = heap_ops<D>();
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  /// Per-type operations; every function takes the buffer's address (a
  /// heap-stored callable reads its pointer from there).
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the inline object at `dst` from `src` and destroys
    /// `src`.  Null when the buffer moves by copy: a trivially copyable
    /// inline capture, or the pointer of a heap-stored one.
    void (*relocate)(void* src, void* dst);
    /// Null for a trivially destructible inline capture.
    void (*destroy)(void*);
  };

  template <typename D>
  static const Ops* inline_ops() {
    constexpr bool plain = std::is_trivially_copyable_v<D> &&
                           std::is_trivially_destructible_v<D>;
    static constexpr Ops ops{
        [](void* p) { (*static_cast<D*>(p))(); },
        plain ? nullptr
              : +[](void* src, void* dst) {
                  ::new (dst) D(std::move(*static_cast<D*>(src)));
                  static_cast<D*>(src)->~D();
                },
        plain ? nullptr : +[](void* p) { static_cast<D*>(p)->~D(); },
    };
    return &ops;
  }

  template <typename D>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* p) { (*static_cast<D*>(*static_cast<void**>(p)))(); },
        nullptr,
        [](void* p) { delete static_cast<D*>(*static_cast<void**>(p)); },
    };
    return &ops;
  }

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.storage_, storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  union {
    alignas(void*) unsigned char storage_[kInlineSize];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 64, "EventFn is one cache line");

}  // namespace dasched
