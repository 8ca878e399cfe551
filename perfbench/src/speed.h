// Speed probe: a clock that ticks with the CPU's current throughput.
//
// On shared virtual machines the same code can run at very different speeds
// from one second to the next. On the host this benchmark was tuned on, a
// 1024-bit exponentiation swung 1.8x between two regimes that alternated
// every few seconds to tens of seconds, and hardware cycle counters were
// not available. To keep runs comparable, every timed interval of the
// untraced benchmark is rescaled by how long a fixed probe kernel took
// around the same time:
//
//   rescaled = host time * kNominalProbeNs / (median of the last 5 probes)
//
// How much a regime slows code depends on its instruction mix, so a
// workload is rescaled by the probe whose mix matches the layer that
// dominates its traced self time: a 16-limb Montgomery-style product for
// the workloads dominated by bignum exponentiation, SHA-256 compression
// rounds for the one dominated by key-derivation hashing. Over 20 s blocks
// of the same work, the matched probe held the rescaled rate within about
// 5% where the raw rate moved by up to 30%; the other probe left 12-16%.
//
// The probes are the benchmark's own code and call nothing in the library,
// so a library change moves rescaled times exactly as it would move host
// times on a steady CPU. Probes run only outside timed intervals.
#pragma once

#include <cstdint>

namespace perfbench {

/// Rescaled times read as host time on a CPU where one probe takes this long.
inline constexpr double kNominalProbeNs = 500e3;

enum class Probe { kOff, kMontgomery, kSha256 };

/// Selects the probe kernel for every thread (kOff: no probes, and
/// speed_factor() stays 1). Call before any other thread probes.
void set_probing(Probe probe);

// Probe state is per thread: each thread rescales by its own probes, since
// co-tenants slow the cores of a shared host unevenly.

/// Calling thread: true when probing is on and its last probe (or probe
/// epoch, see count_probe) is at least 25 ms old, or it never probed.
bool probe_due();
/// Calling thread: runs one probe now.
void probe_now();
/// Calling thread: runs one probe if probe_due().
void probe_if_due();
/// Calling thread: books `ns` of host time spent making other threads
/// probe, so it is excluded from timed phases and resets probe_due().
void count_probe(std::uint64_t ns);
/// Calling thread: makes probe_due() true until the next probe.
void expire_probe();

/// Calling thread: kNominalProbeNs over the median of its last five probe
/// durations, or 1 before its first probe.
double speed_factor();

/// Calling thread: host ns spent probing (including count_probe).
std::uint64_t probe_ns_total();

}  // namespace perfbench
