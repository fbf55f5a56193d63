// Host-speed probe: a fixed piece of work, independent of the simulator's
// sources, whose running time tracks how fast this host currently runs
// allocation- and pointer-heavy event-driven code.
#pragma once

namespace perfbench {

/// Runs the probe once and returns its wall time in milliseconds.
[[nodiscard]] double host_probe_ms();

}  // namespace perfbench
