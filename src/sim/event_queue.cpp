#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "support/check.h"

namespace adaptbf {

const char* queue_backend_name(QueueBackend backend) {
  return backend == QueueBackend::kHeap ? "heap" : "calendar";
}

EventQueue::EventQueue(QueueBackend backend) : backend_(backend) {
  if (backend_ == QueueBackend::kCalendar) {
    buckets_.resize(16);
    bucket_mask_ = buckets_.size() - 1;
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].pos_or_next;
    return index;
  }
  ADAPTBF_CHECK_MSG(slots_.size() < kStaged, "event slot pool exhausted");
  if (slots_.size() == slots_.capacity()) ++stats_.pool_reallocations;
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  ++slot.generation;  // stale-ify every outstanding handle
  slot.fn = EventCallback();
  slot.pos_or_next = free_head_;
  free_head_ = index;
}

EventHandle EventQueue::schedule(SimTime when, EventCallback fn) {
  return insert(when, next_seq_++, std::move(fn));
}

EventHandle EventQueue::schedule_reserved(SimTime when, std::uint64_t seq,
                                          EventCallback fn) {
  ADAPTBF_CHECK_MSG(seq >= reserve_floor_ && seq < next_seq_,
                    "sequence number not reserved since the last pop");
  return insert(when, seq, std::move(fn));
}

EventHandle EventQueue::insert(SimTime when, std::uint64_t seq,
                               EventCallback fn) {
  ADAPTBF_CHECK_MSG(static_cast<bool>(fn), "cannot schedule a null event");
  if (fn.heap_allocated()) ++stats_.callback_heap_spills;
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.time = when;
  slot.seq = seq;
  slot.fn = std::move(fn);
  if (backend_ == QueueBackend::kHeap) {
    heap_insert(index);
  } else {
    calendar_insert(index);
  }
  ++stats_.scheduled;
  return EventHandle{index, slot.generation};
}

bool EventQueue::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  Slot& slot = slots_[handle.index];
  if (slot.pos_or_next == kStaged) {
    // Staged by pop_batch but not collected yet: releasing the slot bumps
    // its generation, so collect_staged() skips the entry — the event never
    // fires, exactly as if it had been cancelled while still queued.
    release_slot(handle.index);
    --staged_live_;
    ++stats_.cancelled;
    return true;
  }
  if (backend_ == QueueBackend::kHeap) {
    remove_heap_at(slot.pos_or_next);
  } else {
    calendar_remove(bucket_of(slot.time), slot.pos_or_next);
  }
  release_slot(handle.index);
  ++stats_.cancelled;
  return true;
}

SimTime EventQueue::next_time() const {
  if (backend_ == QueueBackend::kHeap)
    return heap_.empty() ? SimTime::max() : slots_[heap_[0]].time;
  if (calendar_live_ == 0) return SimTime::max();
  calendar_find_min();
  return buckets_[min_bucket_][min_pos_].time;
}

EventQueue::Fired EventQueue::pop() {
  ADAPTBF_CHECK_MSG(!staging(), "pop() while a batch is staged");
  ADAPTBF_CHECK_MSG(!empty(), "pop() on empty event queue");
  std::uint32_t index;
  if (backend_ == QueueBackend::kHeap) {
    index = heap_[0];
    Slot& slot = slots_[index];
    Fired fired{slot.time, slot.seq, std::move(slot.fn)};
    remove_heap_at(0);
    release_slot(index);
    reserve_floor_ = next_seq_;
    ++stats_.fired;
    return fired;
  }
  calendar_find_min();
  index = buckets_[min_bucket_][min_pos_].index;
  Slot& slot = slots_[index];
  Fired fired{slot.time, slot.seq, std::move(slot.fn)};
  calendar_remove(min_bucket_, min_pos_);
  release_slot(index);
  scan_from_ = fired.time;
  reserve_floor_ = next_seq_;
  ++stats_.fired;
  return fired;
}

std::size_t EventQueue::pop_batch() {
  ADAPTBF_CHECK_MSG(!staging(), "pop_batch() while a batch is staged");
  ADAPTBF_CHECK_MSG(!empty(), "pop_batch() on empty event queue");
  staged_.clear();
  staged_next_ = 0;
  if (backend_ == QueueBackend::kHeap) {
    const SimTime when = slots_[heap_[0]].time;
    heap_collect_cohort(when);
    heap_bulk_remove();
  } else {
    calendar_find_min();
    const std::size_t bucket = min_bucket_;
    const SimTime when = buckets_[bucket][min_pos_].time;
    // Equal times always map to the same bucket, so the whole cohort lives
    // in this one. Swap-removal revisits the same position, so no entry is
    // skipped when the back of the bucket is moved forward.
    std::size_t pos = 0;
    while (pos < buckets_[bucket].size()) {
      const CalendarEntry entry = buckets_[bucket][pos];
      if (entry.time != when) {
        ++pos;
        continue;
      }
      if (staged_.size() == staged_.capacity()) ++stats_.pool_reallocations;
      staged_.push_back({entry.seq, entry.index, slots_[entry.index].generation});
      slots_[entry.index].pos_or_next = kStaged;
      calendar_remove(bucket, pos);
    }
    scan_from_ = when;
  }
  stage_sorted_cohort();
  staged_live_ = staged_.size();
  return staged_.size();
}

void EventQueue::stage_sorted_cohort() {
  std::sort(staged_.begin(), staged_.end(),
            [](const StagedEntry& a, const StagedEntry& b) {
              return a.seq < b.seq;
            });
}

bool EventQueue::collect_staged(Fired& out) {
  while (staged_next_ < staged_.size()) {
    const StagedEntry entry = staged_[staged_next_++];
    Slot& slot = slots_[entry.index];
    if (slot.generation != entry.generation) continue;  // cancelled mid-batch
    out.time = slot.time;
    out.seq = slot.seq;
    out.fn = std::move(slot.fn);
    release_slot(entry.index);
    --staged_live_;
    reserve_floor_ = next_seq_;
    ++stats_.fired;
    return true;
  }
  staged_.clear();
  staged_next_ = 0;
  return false;
}

void EventQueue::reset() {
  if (backend_ == QueueBackend::kHeap) {
    for (const std::uint32_t index : heap_) release_slot(index);
    heap_.clear();
  } else {
    for (auto& bucket : buckets_) {
      for (const CalendarEntry& entry : bucket) release_slot(entry.index);
      bucket.clear();
    }
    calendar_live_ = 0;
    min_valid_ = false;
    scan_from_ = SimTime::zero();
  }
  for (std::size_t i = staged_next_; i < staged_.size(); ++i) {
    const StagedEntry& entry = staged_[i];
    if (slots_[entry.index].generation == entry.generation)
      release_slot(entry.index);
  }
  staged_.clear();
  staged_next_ = 0;
  staged_live_ = 0;
  next_seq_ = 0;
  reserve_floor_ = 0;
  stats_ = Stats{};
}

void EventQueue::reserve(std::size_t events) {
  slots_.reserve(events);
  staged_.reserve(events);
  if (backend_ == QueueBackend::kHeap) {
    heap_.reserve(events);
    cohort_.reserve(events);
  } else if (events / 2 > buckets_.size()) {
    calendar_grow(events / 2);
  }
}

// ----------------------------------------------------------- heap backend

void EventQueue::heap_insert(std::uint32_t index) {
  if (heap_.size() == heap_.capacity()) ++stats_.pool_reallocations;
  heap_.push_back(index);
  slots_[index].pos_or_next = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void EventQueue::remove_heap_at(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
  }
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The relocated element may belong either direction; one of these
    // no-ops immediately.
    sift_down(pos);
    sift_up(pos);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const std::uint32_t moving = heap_[pos];
  const Slot& slot = slots_[moving];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (earlier(slots_[heap_[parent]], slot)) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving].pos_or_next = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const std::uint32_t moving = heap_[pos];
  const Slot& slot = slots_[moving];
  while (true) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    const std::size_t limit = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    const Slot* best_slot = &slots_[heap_[first]];
    for (std::size_t child = first + 1; child < limit; ++child) {
      const Slot* child_slot = &slots_[heap_[child]];
      if (earlier(*child_slot, *best_slot)) {
        best = child;
        best_slot = child_slot;
      }
    }
    if (!earlier(*best_slot, slot)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = moving;
  slots_[moving].pos_or_next = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_collect_cohort(SimTime when) {
  // The earliest-time cohort is ancestor-closed: `when` is the heap
  // minimum, so every ancestor of an equal-time node also carries `when`.
  // A worklist scan from the root that only descends into equal-time
  // children therefore visits exactly the cohort — O(m) for a cohort of m,
  // independent of the heap size.
  cohort_.clear();
  cohort_.push_back(0);
  for (std::size_t i = 0; i < cohort_.size(); ++i) {
    const std::size_t pos = cohort_[i];
    const std::size_t first = 4 * pos + 1;
    const std::size_t limit = std::min(first + 4, heap_.size());
    for (std::size_t child = first; child < limit; ++child) {
      if (slots_[heap_[child]].time == when) {
        if (cohort_.size() == cohort_.capacity()) ++stats_.pool_reallocations;
        cohort_.push_back(static_cast<std::uint32_t>(child));
      }
    }
  }
  for (const std::size_t pos : cohort_) {
    Slot& slot = slots_[heap_[pos]];
    if (staged_.size() == staged_.capacity()) ++stats_.pool_reallocations;
    staged_.push_back({slot.seq, heap_[pos], slot.generation});
    slot.pos_or_next = kStaged;
  }
}

void EventQueue::heap_bulk_remove() {
  // Removes every cohort position in one repair pass. Holes are filled
  // from the heap tail, then sifted deepest-first: a hole's children are
  // always repaired before the hole itself, and every hole's parent is
  // itself a hole (the cohort is ancestor-closed), so sift_down alone
  // restores the invariant. The filled elements sink only into the
  // cohort-sized top region — O(log m) per event instead of the O(log n)
  // a root-replacement pop pays.
  const std::size_t m = cohort_.size();
  const std::size_t new_size = heap_.size() - m;
  std::sort(cohort_.begin(), cohort_.end());
  const auto is_hole = [this](std::size_t pos) {
    return slots_[heap_[pos]].pos_or_next == kStaged;
  };
  std::size_t spare = heap_.size();
  for (const std::size_t pos : cohort_) {
    if (pos >= new_size) break;
    do {
      --spare;
    } while (is_hole(spare));
    ADAPTBF_CHECK(spare >= new_size);
    heap_[pos] = heap_[spare];
    slots_[heap_[pos]].pos_or_next = static_cast<std::uint32_t>(pos);
  }
  heap_.resize(new_size);
  for (std::size_t i = cohort_.size(); i-- > 0;) {
    if (cohort_[i] < new_size) sift_down(cohort_[i]);
  }
  cohort_.clear();
}

// ------------------------------------------------------- calendar backend

void EventQueue::calendar_insert(std::uint32_t index) {
  Slot& slot = slots_[index];
  ADAPTBF_CHECK_MSG(slot.time.ns() >= 0,
                    "calendar backend requires non-negative event times");
  if (calendar_live_ + 1 > buckets_.size() * 2)
    calendar_grow(buckets_.size() * 2);
  const std::size_t bucket = bucket_of(slot.time);
  auto& entries = buckets_[bucket];
  if (entries.size() == entries.capacity()) ++stats_.pool_reallocations;
  entries.push_back({slot.time, slot.seq, index});
  slot.pos_or_next = static_cast<std::uint32_t>(entries.size() - 1);
  ++calendar_live_;
  if (slot.time < scan_from_) scan_from_ = slot.time;
  if (min_valid_) {
    // Compare on the full (time, seq) key: a reserved sequence number can
    // be smaller than the cached minimum's at an equal time. Appends never
    // move existing entries, so the cache stays valid otherwise.
    const CalendarEntry& min = buckets_[min_bucket_][min_pos_];
    if (slot.time < min.time || (slot.time == min.time && slot.seq < min.seq)) {
      min_bucket_ = bucket;
      min_pos_ = entries.size() - 1;
    }
  }
}

void EventQueue::calendar_remove(std::size_t bucket, std::size_t pos) {
  auto& entries = buckets_[bucket];
  const std::size_t last = entries.size() - 1;
  if (min_valid_ && bucket == min_bucket_) {
    if (pos == min_pos_) {
      min_valid_ = false;  // the cached minimum itself is leaving
    } else if (min_pos_ == last) {
      min_pos_ = pos;  // the cached minimum is the entry being moved down
    }
  }
  if (pos != last) {
    entries[pos] = entries[last];
    slots_[entries[pos].index].pos_or_next = static_cast<std::uint32_t>(pos);
  }
  entries.pop_back();
  --calendar_live_;
}

void EventQueue::calendar_find_min() const {
  if (min_valid_) return;
  ADAPTBF_CHECK(calendar_live_ > 0);
  // Classic calendar-queue search: walk one "year" of bucket-days starting
  // at the day of scan_from_ (a proven lower bound on every pending
  // entry). The first day that owns entries holds the global minimum —
  // later days and later years are strictly later in time.
  std::int64_t day = scan_from_.ns() / bucket_width_ns_;
  for (std::size_t step = 0; step < buckets_.size(); ++step, ++day) {
    const auto& entries = buckets_[static_cast<std::size_t>(day) & bucket_mask_];
    const std::int64_t day_end = (day + 1) * bucket_width_ns_;
    std::size_t best = entries.size();
    for (std::size_t pos = 0; pos < entries.size(); ++pos) {
      if (entries[pos].time.ns() >= day_end) continue;  // a later year
      if (best == entries.size() ||
          entries[pos].time < entries[best].time ||
          (entries[pos].time == entries[best].time &&
           entries[pos].seq < entries[best].seq)) {
        best = pos;
      }
    }
    if (best != entries.size()) {
      min_bucket_ = static_cast<std::size_t>(day) & bucket_mask_;
      min_pos_ = best;
      min_valid_ = true;
      return;
    }
  }
  // The whole year is empty: the next event is more than a year out.
  // Direct scan over every entry — rare, and O(live + buckets).
  bool found = false;
  for (std::size_t bucket = 0; bucket < buckets_.size(); ++bucket) {
    const auto& entries = buckets_[bucket];
    for (std::size_t pos = 0; pos < entries.size(); ++pos) {
      if (!found || entries[pos].time < buckets_[min_bucket_][min_pos_].time ||
          (entries[pos].time == buckets_[min_bucket_][min_pos_].time &&
           entries[pos].seq < buckets_[min_bucket_][min_pos_].seq)) {
        min_bucket_ = bucket;
        min_pos_ = pos;
        found = true;
      }
    }
  }
  ADAPTBF_CHECK(found);
  min_valid_ = true;
}

void EventQueue::calendar_grow(std::size_t min_buckets) {
  // Lazily split: flatten, double (at least) the bucket array, re-derive
  // the day width from the occupied span so the current population spreads
  // at ~2 entries per day, and redistribute. Deterministic — a pure
  // function of the pending-event set.
  std::vector<CalendarEntry> all;
  all.reserve(calendar_live_);
  for (auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  std::size_t target = buckets_.size() == 0 ? 16 : buckets_.size();
  while (target < min_buckets) target *= 2;
  if (target > buckets_.size()) {
    buckets_.resize(target);
    ++stats_.pool_reallocations;
  }
  bucket_mask_ = buckets_.size() - 1;
  if (all.size() >= 2) {
    std::int64_t lo = all[0].time.ns();
    std::int64_t hi = lo;
    for (const CalendarEntry& entry : all) {
      lo = std::min(lo, entry.time.ns());
      hi = std::max(hi, entry.time.ns());
    }
    const auto gap = (hi - lo) / static_cast<std::int64_t>(all.size());
    bucket_width_ns_ = std::max<std::int64_t>(1, gap * 2);
  }
  for (const CalendarEntry& entry : all) {
    auto& entries = buckets_[bucket_of(entry.time)];
    entries.push_back(entry);
    slots_[entry.index].pos_or_next =
        static_cast<std::uint32_t>(entries.size() - 1);
  }
  min_valid_ = false;
}

}  // namespace adaptbf
