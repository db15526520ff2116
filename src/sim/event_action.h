// Event actions for the discrete-event engine (DESIGN.md §13).
//
// An EventAction is a move-only `void()` callable, the payload of every
// scheduled event. std::function, which it replaces, keeps a callable
// inline only when it is trivially copyable and at most 16 bytes, so the
// common engine capture — `this` plus two or three words — allocated on
// every schedule. EventAction keeps any callable of up to kInlineBytes
// (at most pointer-aligned, and nothrow-movable) in a buffer of its own
// and falls back to the heap only past that. Beside the buffer sits one
// pointer to a per-type operations table, so an action is 40 bytes: the
// calendar queue's slot slab holds them by value.
//
// Moving an action relocates its callable. For a trivially copyable
// callable stored inline (a lambda capturing pointers and integers) and
// for every heap-stored one (the buffer holds only the pointer), that is
// a fixed-size copy of the buffer and no indirect call; only callables
// with a non-trivial move (a captured unique_ptr, say) go through the
// table. Being move-only, an action may own a move-only capture.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dlte::sim {

class EventAction {
 public:
  // Captures up to this size are stored inline (no heap allocation).
  static constexpr std::size_t kInlineBytes = 32;

  // True when a callable of type F is stored inline, false when it goes
  // to the heap.
  template <typename F>
  static constexpr bool stores_inline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  EventAction() noexcept = default;

  // Implicit, so callers pass lambdas where an action is expected.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventAction> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventAction(F&& f) {
    if constexpr (stores_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventAction(EventAction&& other) noexcept : ops_(other.ops_) {
    relocate_from(other);
  }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      relocate_from(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  // Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-construct into `to` and destroy the source; null means a copy
    // of the buffer's bytes does both.
    void (*relocate)(void* from, void* to) noexcept;
    // Null means there is nothing to destroy.
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  static Fn* inline_target(void* buf) {
    return std::launder(static_cast<Fn*>(buf));
  }
  template <typename Fn>
  static Fn* heap_target(void* buf) {
    return *std::launder(static_cast<Fn**>(buf));
  }

  template <typename Fn>
  static void invoke_inline(void* buf) { (*inline_target<Fn>(buf))(); }
  template <typename Fn>
  static void relocate_inline(void* from, void* to) noexcept {
    Fn* source = inline_target<Fn>(from);
    ::new (to) Fn(std::move(*source));
    source->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(void* buf) noexcept {
    inline_target<Fn>(buf)->~Fn();
  }
  template <typename Fn>
  static void invoke_heap(void* buf) { (*heap_target<Fn>(buf))(); }
  template <typename Fn>
  static void destroy_heap(void* buf) noexcept { delete heap_target<Fn>(buf); }

  template <typename Fn>
  static constexpr Ops inline_ops() {
    Ops ops{&invoke_inline<Fn>, nullptr, nullptr};
    if constexpr (!std::is_trivially_copyable_v<Fn>) {
      ops.relocate = &relocate_inline<Fn>;
    }
    if constexpr (!std::is_trivially_destructible_v<Fn>) {
      ops.destroy = &destroy_inline<Fn>;
    }
    return ops;
  }
  template <typename Fn>
  static constexpr Ops kInlineOps = inline_ops<Fn>();
  template <typename Fn>
  static constexpr Ops kHeapOps{&invoke_heap<Fn>, nullptr, &destroy_heap<Fn>};

  // Takes over `other`'s callable; ops_ is already `other.ops_`.
  void relocate_from(EventAction& other) noexcept {
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      ops_->relocate(other.buf_, buf_);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  const Ops* ops_{nullptr};
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace dlte::sim
