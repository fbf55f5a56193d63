#include "trace.h"

#include "alloc_count.h"
#include "support/check.h"

namespace perfbench {

namespace {

std::int64_t ns_between(Tracer::Clock::time_point a,
                        Tracer::Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

void Tracer::open(Layer layer) {
  ADAPTBF_CHECK(depth_ < static_cast<int>(stack_.size()));
  Frame& frame = stack_[depth_++];
  frame.layer = layer;
  frame.child_ns = 0;
  frame.prev_charge = t_alloc_charge;
  t_alloc_charge = &at(layer).allocs;
  frame.start = Clock::now();
}

void Tracer::close() {
  const auto end = Clock::now();
  ADAPTBF_CHECK(depth_ > 0);
  Frame& frame = stack_[--depth_];
  const std::int64_t duration = ns_between(frame.start, end);
  LayerStats& stats = at(frame.layer);
  stats.total_ns += duration;
  stats.self_ns += duration - frame.child_ns;
  ++stats.spans;
  t_alloc_charge = frame.prev_charge;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
}

void Tracer::mark_tick_start() {
  ADAPTBF_CHECK(depth_ > 0);
  tick_marked_ = true;
  tick_child_mark_ = stack_[depth_ - 1].child_ns;
  tick_alloc_mark_ = at(stack_[depth_ - 1].layer).allocs;
  tick_start_ = Clock::now();
}

void Tracer::close_tick() {
  const auto end = Clock::now();
  ADAPTBF_CHECK_MSG(tick_marked_ && depth_ > 0,
                    "controller window without a dispatch-hook mark");
  tick_marked_ = false;
  Frame& parent = stack_[depth_ - 1];
  const std::int64_t duration = ns_between(tick_start_, end);
  const std::int64_t self = duration - (parent.child_ns - tick_child_mark_);
  LayerStats& window = at(Layer::kAdaptbf);
  window.total_ns += duration;
  window.self_ns += self;
  ++window.spans;
  // Until now the parent counted the window's own work as its self time
  // and allocations; re-parent both.
  parent.child_ns += self;
  LayerStats& outer = at(parent.layer);
  const std::uint64_t moved = outer.allocs - tick_alloc_mark_;
  outer.allocs -= moved;
  window.allocs += moved;
  // Bookkeeping of the benchmark's own is charged to no layer.
  std::uint64_t* const charge = t_alloc_charge;
  t_alloc_charge = nullptr;
  tick_ns_.push_back(duration);
  t_alloc_charge = charge;
}

}  // namespace perfbench
