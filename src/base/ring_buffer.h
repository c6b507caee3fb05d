// Single-producer / single-consumer ring buffer.
//
// This is the shared-memory channel primitive underpinning the Enoki
// userspace <-> kernel scheduler hint queues (section 3.3).
//
// Within the simulator the producer and consumer run on the same host thread,
// but the implementation is a proper lock-free SPSC queue with
// acquire/release ordering, like the shared-memory queue it models (the SPSC
// tests drive it from two real threads). Capacity is fixed at construction;
// producers observe overruns (Push returns false), mirroring the paper's "if
// the buffer overruns, events may be dropped".
//
// Slot storage is allocated uninitialised: an element is constructed when it
// is pushed and destroyed when it is popped, so building a large queue costs
// one allocation and no writes, and its pages fault in only as the ring is
// written.

#ifndef SRC_BASE_RING_BUFFER_H_
#define SRC_BASE_RING_BUFFER_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>

#include "src/base/check.h"

namespace enoki {

// Compile-time power-of-two capacity validation with a diagnosable failure:
// a bad constant fails inside this instantiation, so the compiler's note
// names both the offending N and the Caller tag type (the capacity-sensitive
// user: a RingBuffer element type, the EventLoop express lane, ...) instead
// of an anonymous static_assert with no context. Callers with runtime sizes
// round up first (RingBuffer::RoundUpPow2).
template <size_t N, typename Caller = void>
struct Pow2Capacity {
  static_assert(N > 0, "capacity N must be nonzero (see the Caller tag in the "
                       "instantiation note above for the offending user)");
  static_assert((N & (N - 1)) == 0,
                "capacity N is not a power of two (the instantiation note above "
                "names the offending N and the Caller it was requested for; use "
                "RoundUpPow2 for runtime sizes, or pick 1<<k)");
  static constexpr size_t value = N;
};

template <typename T>
class RingBuffer {
 public:
  // Capacity must be a power of two: the hot path indexes with a mask
  // instead of div/mod, and the free-running head/tail arithmetic relies on
  // the slot count dividing the index space evenly. Callers that accept
  // arbitrary user-supplied sizes round up first (see RoundUpPow2); callers
  // with a compile-time size should use CheckedCapacity<N> (or the
  // ForCapacity<N> factory) so a non-power-of-two constant fails to compile
  // instead of masking indices wrong at runtime.
  explicit RingBuffer(size_t capacity) : mask_(capacity - 1) {
    ENOKI_CHECK_MSG(capacity > 0 && (capacity & (capacity - 1)) == 0,
                    "RingBuffer capacity must be a power of two");
    slots_ = std::make_unique_for_overwrite<Slot[]>(capacity);
  }

  // Only the owner may destroy the ring, with both sides quiescent.
  ~RingBuffer() {
    const size_t head = head_.load(std::memory_order_acquire);
    for (size_t i = tail_.load(std::memory_order_relaxed); i != head; ++i) {
      std::destroy_at(At(i));
    }
  }

  // Compile-time capacity validation: CheckedCapacity<48>() is a build
  // error whose instantiation trace names the offending N and this ring's
  // element type, not a silently mis-masked ring.
  template <size_t N>
  static constexpr size_t CheckedCapacity() {
    return Pow2Capacity<N, RingBuffer<T>>::value;
  }

  // Constructs a ring whose capacity is validated at compile time; relies on
  // guaranteed copy elision (the type is neither copyable nor movable).
  template <size_t N>
  static RingBuffer ForCapacity() {
    return RingBuffer(CheckedCapacity<N>());
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  // Producer side. Returns false (and drops the element) when full.
  bool Push(T value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ::new (slots_[head & mask_].bytes) T(std::move(value));
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when empty.
  std::optional<T> Pop() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return std::nullopt;
    }
    T* slot = At(tail);
    std::optional<T> value(std::move(*slot));
    std::destroy_at(slot);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  size_t size() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return mask_ + 1; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Smallest power of two >= n (>= 1), for layers that accept arbitrary
  // requested sizes (hint queues).
  static size_t RoundUpPow2(size_t n) { return std::bit_ceil(n); }

 private:
  // Raw storage for one element. Allocated "for overwrite" (default-
  // initialised): the slot array is never written before its first Push.
  struct Slot {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  // The element in slot `index & mask_`; live only between its Push and its
  // Pop.
  T* At(size_t index) {
    return std::launder(reinterpret_cast<T*>(slots_[index & mask_].bytes));
  }

  std::unique_ptr<Slot[]> slots_;
  const size_t mask_;
  std::atomic<size_t> head_{0};
  std::atomic<size_t> tail_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace enoki

#endif  // SRC_BASE_RING_BUFFER_H_
