// Per-thread block pool for the simulation kernel's short-lived objects.
//
// A replayed message creates a handful of small objects that die within a
// few simulated events: coroutine frames of nested MPI calls (Co<>), the
// activities it waits for (Exec, Transfer, Timer, Gate) and its MPI request
// state. pool::allocate/deallocate serve them from per-thread free lists,
// one per 64-byte size class up to 1 KiB (larger requests go to the
// global heap), so a replay in its steady state makes no heap allocation
// per message: a freed block waits on its class's list for the next object
// of that size.
//
// Rules:
//   - Per thread, no locking. A block may be freed on another thread than
//     the one that allocated it (it then joins that thread's list): every
//     block is its own global-heap allocation, never a slice of a slab.
//   - The lists only ever hold the high-water mark of live blocks, and a
//     thread hands its blocks back to the global heap when it exits.
//   - Under AddressSanitizer or ThreadSanitizer the pool passes every call
//     straight through to ::operator new / ::operator delete, so the
//     sanitizers see each object's real lifetime.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace tir::sim::pool {

// TIR_POOL_PASSTHROUGH is defined when the pool compiles to plain global
// new/delete.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIR_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIR_POOL_PASSTHROUGH 1
#endif
#endif

inline constexpr std::size_t kClassBytes = 64;
inline constexpr std::size_t kClasses = 16;

namespace detail {

struct FreeLists {
  void* head[kClasses] = {};
  ~FreeLists() {
    closed = true;
    for (void*& h : head) {
      while (h != nullptr) {
        void* next = *static_cast<void**>(h);
        ::operator delete(h);
        h = next;
      }
    }
  }
  /// Set once the thread's lists are gone: later frees (objects destroyed
  /// by other thread-exit or static destructors) go to the global heap.
  static inline thread_local bool closed = false;
};

inline thread_local FreeLists lists;

}  // namespace detail

inline void* allocate(std::size_t bytes) {
#ifndef TIR_POOL_PASSTHROUGH
  // bytes == 0 wraps to a huge class and goes to the global heap.
  const std::size_t c = (bytes - 1) / kClassBytes;
  if (c < kClasses) {
    void*& head = detail::lists.head[c];
    if (void* block = head) {
      head = *static_cast<void**>(block);
      return block;
    }
    return ::operator new((c + 1) * kClassBytes);
  }
#endif
  return ::operator new(bytes);
}

inline void deallocate(void* block, std::size_t bytes) noexcept {
#ifndef TIR_POOL_PASSTHROUGH
  const std::size_t c = (bytes - 1) / kClassBytes;
  if (c < kClasses && !detail::FreeLists::closed) {
    void*& head = detail::lists.head[c];
    *static_cast<void**>(block) = head;
    head = block;
    return;
  }
#endif
  (void)bytes;
  ::operator delete(block);
}

/// Standard allocator over the pool, for std::allocate_shared.
template <typename T>
struct Allocator {
  using value_type = T;
  Allocator() = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(pool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool::deallocate(p, n * sizeof(T));
  }
  friend bool operator==(const Allocator&, const Allocator&) { return true; }
};

/// std::make_shared through the pool (object and control block in one
/// pooled block).
template <typename T, typename... Args>
std::shared_ptr<T> make_shared(Args&&... args) {
  return std::allocate_shared<T>(Allocator<T>{}, std::forward<Args>(args)...);
}

}  // namespace tir::sim::pool
