#include "sim/event_queue.h"

#include <utility>

#include "support/check.h"

namespace adaptbf {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].pos_or_next;
    return index;
  }
  ADAPTBF_CHECK_MSG(slots_.size() < kNil, "event slot pool exhausted");
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
  if (heap_.size() == heap_.capacity()) ++stats_.pool_reallocations;
  heap_.push_back(index);
  sift_up(heap_.size() - 1);
  ++stats_.scheduled;
  return EventHandle{index, slot.generation};
}

bool EventQueue::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  remove_heap_at(slots_[handle.index].pos_or_next);
  release_slot(handle.index);
  ++stats_.cancelled;
  return true;
}

EventQueue::Fired EventQueue::pop() {
  ADAPTBF_CHECK_MSG(!empty(), "pop() on empty event queue");
  const std::uint32_t index = heap_[0];
  Slot& slot = slots_[index];
  Fired fired{slot.time, slot.seq, std::move(slot.fn)};
  remove_heap_at(0);
  release_slot(index);
  reserve_floor_ = next_seq_;
  ++stats_.fired;
  return fired;
}

void EventQueue::reset() {
  for (const std::uint32_t index : heap_) release_slot(index);
  heap_.clear();
  next_seq_ = 0;
  reserve_floor_ = 0;
  stats_ = Stats{};
}

void EventQueue::reserve(std::size_t events) {
  slots_.reserve(events);
  heap_.reserve(events);
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

}  // namespace adaptbf
