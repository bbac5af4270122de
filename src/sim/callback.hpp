// A move-only `void()` callable with inline storage: the closure type of
// every simulated event.
//
// Scheduling is the hottest path of the simulator, and nearly every
// closure it carries captures more than std::function keeps inline
// (libstdc++: 16 bytes, trivially copyable only) — a node pointer, a few
// ids, an owned message buffer or a liveness token.  `Callback` keeps any
// capture of up to `kInlineSize` bytes that is nothrow-movable inside the
// object itself and heap-allocates only larger ones, so scheduling such
// an event allocates nothing.  Being move-only, it also accepts captures
// that own move-only resources (`std::unique_ptr`).
//
// Call sites on hot paths state that their capture fits with
// `static_assert(sim::Callback::fits_inline<decltype(fn)>)`.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cicero::sim {

class Callback {
 public:
  /// Largest capture stored inline; with the dispatch pointer the whole
  /// object is one 64-byte cache line.
  static constexpr std::size_t kInlineSize = 56;

  template <class F>
  static constexpr bool fits_inline = sizeof(F) <= kInlineSize &&
                                      alignof(F) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && !std::is_same_v<D, std::nullptr_t> &&
             std::is_invocable_r_v<void, D&>)
  Callback(F&& fn) {  // implicit: call sites pass a lambda as is
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Runs the callable; it must be non-empty.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Move-constructs into `dst` from `src`, leaving `src` destroyed.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* b) { (*static_cast<D*>(b))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* b) noexcept { static_cast<D*>(b)->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* b) { (**static_cast<D**>(b))(); },
      [](void* dst, void* src) noexcept { *static_cast<D**>(dst) = *static_cast<D**>(src); },
      [](void* b) noexcept { delete *static_cast<D**>(b); }};

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(Callback) == 64);

}  // namespace cicero::sim
