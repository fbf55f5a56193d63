#include "rpc/job_slots.h"

#include <algorithm>
#include <bit>

namespace adaptbf {

std::uint32_t JobSlots::insert_new(JobId job) {
  if ((jobs_.size() + 1) * 2 > table_.size())
    rehash(std::max<std::size_t>(8, table_.size() * 2));
  const auto slot = static_cast<std::uint32_t>(jobs_.size());
  jobs_.push_back(job);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = bucket(job);
  while (table_[i] != 0) i = (i + 1) & mask;
  table_[i] = slot + 1;
  const auto at = std::upper_bound(
      ascending_.begin(), ascending_.end(), job,
      [this](JobId key, std::uint32_t s) { return key < jobs_[s]; });
  ascending_.insert(at, slot);
  return slot;
}

void JobSlots::rehash(std::size_t capacity) {
  table_.assign(capacity, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (std::uint32_t slot = 0; slot < jobs_.size(); ++slot) {
    std::size_t i = bucket(jobs_[slot]);
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = slot + 1;
  }
}

}  // namespace adaptbf
