// Process-wide heap-allocation counting, with per-span attribution.
//
// alloc_count.cpp replaces the global operator new (the idiom of
// bench/sim_core_bench.cpp) and is linked into each benchmark executable.
// Every allocation on every thread increments one process-wide counter, so
// allocations-per-RPC figures are exact counts, not samples. When the
// calling thread has an open trace span, the allocation is also charged to
// that span's counter (trace.h sets t_alloc_charge on span entry/exit).
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made by the whole process so far.
[[nodiscard]] std::uint64_t allocations();

/// Counter of the calling thread's innermost open span; null outside spans.
extern thread_local constinit std::uint64_t* t_alloc_charge;

}  // namespace perfbench
