#include "host_probe.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

struct Event {
  std::uint64_t time;
  std::uint32_t key;
  bool operator<(const Event& other) const { return time > other.time; }
};

}  // namespace

double host_probe_ms() {
  const auto start = std::chrono::steady_clock::now();
  // A small discrete-event loop: a binary heap of pending events, a hash
  // map of per-key state, an ordered map of per-key histories and a
  // growing sample vector -- the container mix of the simulator's hot path.
  std::priority_queue<Event> pending;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  std::map<std::uint32_t, std::vector<std::uint32_t>> history;
  std::vector<double> samples;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) pending.push({next() % 1000, i});
  std::uint64_t checksum = 0;
  for (int step = 0; step < 60000; ++step) {
    const Event event = pending.top();
    pending.pop();
    const std::uint32_t key = static_cast<std::uint32_t>(next() % 16384);
    std::uint64_t& value = state[key];
    value += event.time;
    checksum += value;
    history[key % 2048].push_back(event.key);
    if (step % 8 == 0) samples.push_back(static_cast<double>(event.time));
    pending.push({event.time + 1 + next() % 1000, event.key});
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  // Keep the work observable.
  return checksum == 42 ? ms + 1e-9 : ms;
}

}  // namespace perfbench

