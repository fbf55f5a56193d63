#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

thread_local constinit std::uint64_t* t_alloc_charge = nullptr;

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void count_one() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (t_alloc_charge != nullptr) ++*t_alloc_charge;
}

void* counted_alloc(std::size_t size) {
  count_one();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  count_one();
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size,
                                          static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size,
                                          static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
