// FIFO over a power-of-two ring buffer that keeps its storage.
//
// std::deque frees a block each time its head crosses a block boundary and
// allocates one at the tail, so a queue that cycles RPCs through a steady
// backlog allocates every few pushes. This ring grows by doubling and never
// shrinks: once a queue has seen its peak backlog it never allocates again.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.h"

namespace adaptbf {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    ADAPTBF_CHECK(size_ > 0);
    return slots_[head_];
  }

  void pop_front() {
    ADAPTBF_CHECK(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// The i-th element from the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  /// Drops every element; the storage is kept.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace adaptbf
