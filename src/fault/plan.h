// Deterministic fault plans: what goes wrong, and when.
//
// A FaultPlan is the complete description of one chaos run — a churn
// schedule (membership events fired at virtual times, possibly cascading
// into in-flight agreements) plus wire-fault rates (drop/delay/duplicate
// probabilities applied per message copy). Plans are built in one of two
// modes:
//
//  * scripted: the caller appends explicit ChurnOps (unit tests, regression
//    reproductions);
//  * randomized: `randomize()` derives a schedule from the plan's seed, with
//    gaps short enough that later events routinely land inside the previous
//    event's key agreement — the cascaded regime Secure Spread must survive.
//
// Everything is a pure function of (seed, configuration): replaying a seed
// reproduces the run bit-for-bit, which is what makes a chaos failure
// debuggable from its report alone (see docs/fault_injection.md).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/hooks.h"
#include "fault/rng.h"

namespace sgk::fault {

/// Retransmission timeout charged to a dropped copy (virtual ms).
inline constexpr double kRetransMs = 6.0;

/// Per-copy wire fault probabilities.
struct FaultRates {
  double drop = 0.0;       // P(copy lost once -> retransmitted after kRetransMs)
  double delay = 0.0;      // P(copy jittered by up to kJitterMs, plan.cpp)
  double duplicate = 0.0;  // P(daemon copy delivered twice)

  /// Uniform profile: drop = delay = duplicate = rate.
  static FaultRates uniform(double rate) {
    FaultRates r;
    r.drop = r.delay = r.duplicate = rate;
    return r;
  }
};

/// Membership-layer fault operations the chaos driver can apply.
enum class ChurnKind {
  kJoin,       // a fresh member joins the group
  kLeave,      // an existing member leaves gracefully
  kCrash,      // a member disconnects abruptly (daemon-crash model)
  kPartition,  // the network splits into two components
  kHeal,       // all partitions merge back
  kRekey       // explicit re-key request (same membership, new epoch)
};

const char* to_string(ChurnKind kind);

/// One scheduled membership fault. `arg` parameterizes victim / split
/// selection deterministically; the driver interprets it modulo whatever
/// population exists when the op fires.
struct ChurnOp {
  double at_ms = 0.0;
  ChurnKind kind = ChurnKind::kJoin;
  std::uint64_t arg = 0;
};

class FaultPlan {
 public:
  FaultPlan(std::uint64_t seed, FaultRates rates)
      : seed_(seed), rates_(rates) {}

  std::uint64_t seed() const { return seed_; }
  const FaultRates& rates() const { return rates_; }
  const std::vector<ChurnOp>& ops() const { return ops_; }

  /// Scripted mode: appends one op (times should be non-decreasing).
  void script(double at_ms, ChurnKind kind, std::uint64_t arg = 0);

  /// Randomized mode: appends `events` ops starting at `start_ms`, with
  /// inter-op gaps uniform in [min_gap_ms, max_gap_ms]. The kind mix leans
  /// on join/leave/crash cascades; partitions alternate with heals, and the
  /// schedule always ends healed so a run can converge globally.
  /// Deterministic in (seed, arguments).
  void randomize(int events, double start_ms, double min_gap_ms,
                 double max_gap_ms);

  /// Bursty storm: `bursts` clusters of `burst_size` ops each; ops inside a
  /// burst are `intra_gap_ms` apart (well inside one batching window), and
  /// bursts are separated by `idle_gap_ms` of quiet (long enough for the
  /// window to drain and shrink). The flash-crowd model the
  /// keys-per-membership-event acceptance criterion is judged on. Each
  /// burst leans all-join or all-leave so the aggregate event is a real
  /// merge/partition-shaped delta. Always ends healed. Deterministic in
  /// (seed, arguments).
  void bursty_storm(int bursts, int burst_size, double start_ms,
                    double intra_gap_ms, double idle_gap_ms);

  /// Stateless per-copy verdict for a daemon-to-daemon copy: the same
  /// (seed, from, to, seq) always yields the same fault, independent of
  /// call order.
  WireFault daemon_copy_fault(int from_machine, int to_machine,
                              std::uint64_t seq) const;

  /// Verdict for the `nth` client unicast between `from` and `to` (the
  /// caller supplies the per-pair counter). Delay only; see WireFaultHook.
  WireFault unicast_fault(ProcessId from, ProcessId to,
                          std::uint64_t nth) const;

 private:
  std::uint64_t seed_;
  FaultRates rates_;
  std::vector<ChurnOp> ops_;
};

}  // namespace sgk::fault
