// In-memory spans for the traced run.
//
// The benchmark records spans from its own files, around the calls it makes
// into each layer (traced_trial.h). A span's self time is its duration minus
// the time of the spans nested in it; every allocation is charged to the
// innermost open span. The AdapTBF controller window is the one span opened
// after the fact: it starts at the dispatch-hook call of the tick's event
// and ends at the controller's WindowObserver, so when the observer fires
// the time and allocations the enclosing loop span collected since that
// hook are handed over to it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kTrial,    ///< One traced trial: wiring, the loop, summaries.
  kLoop,     ///< Simulator::run_until.
  kTbf,      ///< RequestScheduler enqueue / dequeue / next_ready_time.
  kAdaptbf,  ///< AdaptbfController window: dispatch hook -> observer.
  kMetrics,  ///< ThroughputTimeline + LatencyStats completion hook.
  kCount,
};

struct LayerStats {
  std::int64_t total_ns = 0;  ///< Sum of span durations.
  std::int64_t self_ns = 0;   ///< total_ns minus nested spans.
  std::uint64_t spans = 0;
  std::uint64_t allocs = 0;   ///< Allocations while innermost.
};

/// Span recorder for one thread. Not thread-safe: the traced trials run on
/// the calling thread only.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer) : tracer_(tracer) {
      tracer_.open(layer);
    }
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  void open(Layer layer);
  void close();

  /// Called from the dispatch hook for events that may be a controller
  /// tick: remembers the time and the open span's totals at this point.
  void mark_tick_start();
  /// Called from the controller's WindowObserver: closes the window span
  /// begun at the latest mark_tick_start().
  void close_tick();

  [[nodiscard]] const LayerStats& stats(Layer layer) const {
    return layers_[static_cast<int>(layer)];
  }
  /// Durations of the controller-window spans, in ns.
  [[nodiscard]] const std::vector<std::int64_t>& tick_ns() const {
    return tick_ns_;
  }

 private:
  struct Frame {
    Layer layer = Layer::kTrial;
    Clock::time_point start;
    std::int64_t child_ns = 0;
    std::uint64_t* prev_charge = nullptr;
  };

  LayerStats& at(Layer layer) { return layers_[static_cast<int>(layer)]; }

  std::array<LayerStats, static_cast<int>(Layer::kCount)> layers_{};
  std::array<Frame, 8> stack_{};
  int depth_ = 0;

  Clock::time_point tick_start_;
  std::int64_t tick_child_mark_ = 0;
  std::uint64_t tick_alloc_mark_ = 0;
  bool tick_marked_ = false;
  std::vector<std::int64_t> tick_ns_;
};

}  // namespace perfbench
