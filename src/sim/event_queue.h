// Pending-event set for the discrete-event simulator.
//
// Allocation-free core: events live in a slab of pooled slots addressed by
// {index, generation} handles, ordered by (time, sequence) through one of
// two interchangeable ordering backends:
//
//   kHeap      4-ary implicit min-heap with heap back-pointers — O(log4 n)
//              schedule/pop/cancel, the default for the paper's
//              minutes-deep horizons.
//   kCalendar  calendar queue (Brown '88 style) with lazily-split,
//              power-of-two bucket array — amortized O(1) schedule and
//              O(1) eager cancel, built for very deep horizons where the
//              heap's log factor starts to show.
//
// Both backends share the slot pool, the callback machinery, and the exact
// same total order: the sequence number breaks time ties in insertion
// order, which makes event processing fully deterministic regardless of
// ordering-structure internals — a requirement for reproducible
// experiments and for the golden-trace tests that assert bit-identical
// dispatch streams across backends.
//
// Cancellation is eager with no hash sets: the slot's back-pointer locates
// the entry directly (heap position, or position within its calendar
// bucket), and the slot's generation counter is bumped on release so stale
// handles (fired or already-cancelled events) are rejected in O(1).
// Steady-state scheduling performs zero heap allocations: slots are
// recycled through a free list, and EventCallback stores small callables
// inline (see kInlineCapacity), falling back to the heap only for
// oversized captures (counted per queue in Stats::callback_heap_spills).
//
// Sequence reservation (reserve_seq / schedule_reserved) takes the next
// sequence number now and schedules with it later: the event orders exactly
// as if it had been scheduled at reservation time. A reserved number is
// used at most once, before the next event leaves the queue; a number
// never handed out, or taken before the last pop, fails a check.
//
// Batched dispatch (pop_batch / collect_staged) drains the whole cohort of
// events sharing the earliest fire time with one bulk structure repair
// instead of one sift per event. Staged events keep their slots until
// collected, so cancel()/pending() observe exactly the same semantics as
// under single pop() — a callback dispatched early in a batch may still
// cancel a same-timestamp event staged behind it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace adaptbf {

/// Move-only callable with small-buffer optimization. Replaces
/// std::function in the event hot path: any callable whose captures fit
/// kInlineCapacity bytes (and is nothrow-movable) is stored inline in the
/// event slot, so scheduling it allocates nothing.
class EventCallback {
 public:
  /// Sized to hold every steady-state callback in the simulator inline
  /// (the largest is an RPC completion: Rpc + two SimTimes + a pointer).
  static constexpr std::size_t kInlineCapacity = 80;

  EventCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like std::function.
  EventCallback(F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = other.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable's captures exceeded kInlineCapacity and
  /// spilled to the heap. EventQueue::schedule counts spills per queue
  /// (Stats::callback_heap_spills) so parallel sweep workers see their own
  /// numbers instead of aliasing a process-wide total.
  [[nodiscard]] bool heap_allocated() const {
    return ops_ != nullptr && ops_->on_heap;
  }

  /// DEPRECATED process-wide spill total, kept for the sim-core bench's
  /// --require-zero-alloc cross-check. Counts every spilled construction
  /// in the process, so parallel workers alias each other here — per-queue
  /// accounting lives in EventQueue::Stats::callback_heap_spills.
  [[nodiscard]] static std::uint64_t heap_fallbacks() {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs dst from src, then destroys src (nothrow).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool on_heap;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); },
      false};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* storage) { (**std::launder(reinterpret_cast<Fn**>(storage)))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* storage) { delete *std::launder(reinterpret_cast<Fn**>(storage)); },
      true};

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;

  static inline std::atomic<std::uint64_t> heap_fallbacks_{0};
};

/// Generation-tagged reference to a pending event. Handles become stale the
/// moment the event fires or is cancelled (the slot's generation is bumped
/// on release), so holding one past its event's lifetime is always safe:
/// cancel()/pending() on a stale handle are harmless O(1) no-ops.
struct EventHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  std::uint32_t index = kInvalidIndex;
  /// 64-bit so a recycled slot can never wrap back to a stale handle's
  /// generation, even over arbitrarily deep simulation horizons.
  std::uint64_t generation = 0;

  [[nodiscard]] constexpr bool valid() const { return index != kInvalidIndex; }
};

/// Ordering-structure backend. Config token: "heap" | "calendar".
enum class QueueBackend : std::uint8_t {
  kHeap,      ///< 4-ary implicit heap: O(log4 n), the default.
  kCalendar,  ///< Calendar queue: amortized O(1), for deep horizons.
};

[[nodiscard]] const char* queue_backend_name(QueueBackend backend);

class EventQueue {
 public:
  EventQueue() : EventQueue(QueueBackend::kHeap) {}
  explicit EventQueue(QueueBackend backend);

  [[nodiscard]] QueueBackend backend() const { return backend_; }

  /// Schedules `fn` at absolute time `when`. Returns a handle usable by
  /// cancel()/pending(); the handle goes stale once the event fires.
  EventHandle schedule(SimTime when, EventCallback fn);

  /// Takes the next sequence number without scheduling anything, for a
  /// later schedule_reserved(). Unused reservations are simply dropped.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `fn` at `when` under a number from reserve_seq(), so it
  /// orders as if scheduled at reservation time. `seq` must have been
  /// handed out since the last pop and not used before.
  EventHandle schedule_reserved(SimTime when, std::uint64_t seq,
                                EventCallback fn);

  /// Cancels a pending event with no hashing: O(log4 n) on the heap
  /// backend, O(1) on the calendar backend. Returns false if the handle is
  /// stale (event already fired or already cancelled). Cancelling an event
  /// staged by pop_batch but not yet collected succeeds, exactly as it
  /// would under single pop().
  bool cancel(EventHandle handle);

  /// True while the referenced event is still pending (staged-but-not-yet-
  /// collected events included).
  [[nodiscard]] bool pending(EventHandle handle) const {
    return handle.valid() && handle.index < slots_.size() &&
           slots_[handle.index].generation == handle.generation;
  }

  [[nodiscard]] bool empty() const { return live() == 0; }
  /// Pending events: ordering structure plus staged-but-uncollected.
  [[nodiscard]] std::size_t live() const {
    return structure_size() + staged_live_;
  }

  /// Time of the earliest event in the ordering structure; SimTime::max()
  /// when it is empty. O(1) on the heap backend, amortized O(1) on the
  /// calendar backend (the located minimum is cached until a mutation).
  /// Events currently staged for batch collection are excluded.
  [[nodiscard]] SimTime next_time() const;

  struct Fired {
    SimTime time;
    std::uint64_t seq = 0;  ///< Schedule-order sequence number (tie-break key).
    EventCallback fn;
  };
  /// Pops and returns the earliest pending event. Requires !empty() and no
  /// batch in progress.
  Fired pop();

  /// Batched pop: unlinks every event sharing the earliest fire time from
  /// the ordering structure — one bulk repair instead of one sift per
  /// event — and stages the cohort in sequence order for collect_staged().
  /// Staged events keep their slots, so handles stay valid: cancel() on a
  /// staged event prevents it from firing, exactly as under single pop().
  /// Returns the cohort size. Requires !empty() and no batch in progress.
  std::size_t pop_batch();

  /// Moves the next staged event into `out`, skipping events cancelled
  /// while staged. Returns false once the batch is exhausted (and the
  /// queue is ready for the next pop()/pop_batch()).
  bool collect_staged(Fired& out);

  /// Drops every pending event (destroying its callback state) and rewinds
  /// the sequence counter, but keeps all storage — slot slab, heap array,
  /// calendar buckets, staging scratch — at capacity. A reset queue is
  /// observationally identical to a freshly constructed one (same
  /// (time, seq) dispatch order for any subsequent operation sequence),
  /// except that old handles stay safely stale: slot generations are
  /// never rewound. This is what lets one sweep worker reuse a single
  /// warmed arena across every trial of a lease.
  void reset();

  /// Pre-sizes the slot pool and ordering structure so a workload of up to
  /// `events` concurrent events runs without any further allocation.
  void reserve(std::size_t events);

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    /// Times the slot pool or ordering-structure storage had to grow.
    /// Flat in steady state: slots are recycled through the free list.
    std::uint64_t pool_reallocations = 0;
    /// Scheduled callbacks whose captures exceeded
    /// EventCallback::kInlineCapacity and spilled to the heap. Per queue —
    /// unlike the deprecated EventCallback::heap_fallbacks() process-wide
    /// total, parallel sweep workers never alias each other's counts.
    std::uint64_t callback_heap_spills = 0;
  };
  /// Per-queue operation counters. reset() zeroes them: stats are
  /// per-trial when the arena is reused.
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pool_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNil = EventHandle::kInvalidIndex;
  /// pos_or_next sentinel for slots staged by pop_batch: not in the
  /// ordering structure, not on the free list, awaiting collection.
  static constexpr std::uint32_t kStaged = 0xfffffffeu;

  struct Slot {
    SimTime time;
    std::uint64_t seq = 0;
    EventCallback fn;
    std::uint64_t generation = 0;
    /// Backend back-pointer while pending (heap position, or position
    /// within the calendar bucket derived from `time`); kStaged while
    /// staged; next free slot index while free.
    std::uint32_t pos_or_next = kNil;
  };

  /// Calendar bucket entry. Copies of (time, seq) keep min scans free of
  /// slot-slab indirection; `index` maintains the slot back-pointer when
  /// entries are swap-removed.
  struct CalendarEntry {
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t index = kNil;
  };

  struct StagedEntry {
    std::uint64_t seq = 0;
    std::uint32_t index = kNil;
    std::uint64_t generation = 0;
  };

  /// True when event `a` must fire strictly before `b`.
  [[nodiscard]] bool earlier(const Slot& a, const Slot& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] std::size_t structure_size() const {
    return backend_ == QueueBackend::kHeap ? heap_.size() : calendar_live_;
  }
  [[nodiscard]] bool staging() const { return staged_next_ < staged_.size(); }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  void stage_sorted_cohort();
  EventHandle insert(SimTime when, std::uint64_t seq, EventCallback fn);

  // Heap backend.
  void heap_insert(std::uint32_t index);
  void remove_heap_at(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_collect_cohort(SimTime when);
  void heap_bulk_remove();

  // Calendar backend.
  [[nodiscard]] std::size_t bucket_of(SimTime when) const {
    return static_cast<std::size_t>(when.ns() / bucket_width_ns_) &
           bucket_mask_;
  }
  void calendar_insert(std::uint32_t index);
  void calendar_remove(std::size_t bucket, std::size_t pos);
  void calendar_find_min() const;
  void calendar_grow(std::size_t min_buckets);

  QueueBackend backend_ = QueueBackend::kHeap;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  /// next_seq_ when an event last left the queue: reservations below it
  /// were taken before that dispatch and may no longer be used.
  std::uint64_t reserve_floor_ = 0;
  Stats stats_;

  // Staged batch (shared by both backends), in sequence order.
  std::vector<StagedEntry> staged_;
  std::size_t staged_next_ = 0;
  std::size_t staged_live_ = 0;

  // Heap backend state.
  std::vector<std::uint32_t> heap_;  ///< 4-ary implicit heap of slot indices.
  std::vector<std::uint32_t> cohort_;  ///< pop_batch position scratch.

  // Calendar backend state.
  std::vector<std::vector<CalendarEntry>> buckets_;
  std::size_t bucket_mask_ = 0;        ///< buckets_.size() - 1 (power of two).
  std::int64_t bucket_width_ns_ = 1024;
  std::size_t calendar_live_ = 0;
  /// Lower bound on every pending entry's time: raised to each popped
  /// time, lowered by schedules below it. Min scans start here.
  SimTime scan_from_;
  // Cached location of the minimum entry (mutable: locating the minimum
  // from const next_time() amortizes across repeated calls).
  mutable bool min_valid_ = false;
  mutable std::size_t min_bucket_ = 0;
  mutable std::size_t min_pos_ = 0;
};

}  // namespace adaptbf
