#include "fault/plan.h"

#include "util/check.h"

namespace sgk::fault {

const char* to_string(ChurnKind kind) {
  switch (kind) {
    case ChurnKind::kJoin: return "join";
    case ChurnKind::kLeave: return "leave";
    case ChurnKind::kCrash: return "crash";
    case ChurnKind::kPartition: return "partition";
    case ChurnKind::kHeal: return "heal";
    case ChurnKind::kRekey: return "rekey";
  }
  return "?";
}

void FaultPlan::script(double at_ms, ChurnKind kind, std::uint64_t arg) {
  SGK_CHECK(at_ms >= 0.0);
  SGK_CHECK(ops_.empty() || ops_.back().at_ms <= at_ms);
  ops_.push_back(ChurnOp{at_ms, kind, arg});
}

void FaultPlan::randomize(int events, double start_ms, double min_gap_ms,
                          double max_gap_ms) {
  SGK_CHECK(events >= 0);
  SGK_CHECK(min_gap_ms >= 0.0 && min_gap_ms <= max_gap_ms);
  // A dedicated stream per mode keeps scripted ops (if any) unaffected.
  FaultRng rng(seed_ ^ 0xc4ce5e2db2a5a9e5ULL);
  double t = start_ms;
  bool partitioned = false;
  for (int i = 0; i < events; ++i) {
    // Kind mix: joins/leaves/crashes dominate (they cascade into in-flight
    // agreements); partitions and rekeys season the schedule.
    const double pick = rng.next_unit();
    ChurnKind kind;
    if (pick < 0.30) {
      kind = ChurnKind::kJoin;
    } else if (pick < 0.55) {
      kind = ChurnKind::kLeave;
    } else if (pick < 0.70) {
      kind = ChurnKind::kCrash;
    } else if (pick < 0.90) {
      kind = partitioned ? ChurnKind::kHeal : ChurnKind::kPartition;
    } else {
      kind = ChurnKind::kRekey;
    }
    if (kind == ChurnKind::kPartition) partitioned = true;
    if (kind == ChurnKind::kHeal) partitioned = false;
    ops_.push_back(ChurnOp{t, kind, rng.next_u64()});
    t += min_gap_ms + rng.next_unit() * (max_gap_ms - min_gap_ms);
  }
  // End healed: a partitioned network cannot converge on one key, and the
  // acceptance invariant is global agreement after the schedule drains.
  if (partitioned) ops_.push_back(ChurnOp{t, ChurnKind::kHeal, 0});
}

void FaultPlan::bursty_storm(int bursts, int burst_size, double start_ms,
                             double intra_gap_ms, double idle_gap_ms) {
  SGK_CHECK(bursts >= 0 && burst_size >= 1);
  SGK_CHECK(start_ms >= 0.0 && intra_gap_ms >= 0.0 && idle_gap_ms >= 0.0);
  FaultRng rng(seed_ ^ 0x7b1f0a2dd4cb96e3ULL);
  double t = start_ms;
  bool partitioned = false;
  for (int b = 0; b < bursts; ++b) {
    // Lean each burst one way so its coalesced delta is a real aggregate
    // join (merge-shaped) or aggregate leave (partition-shaped) event, not
    // a self-cancelling mix; a minority of bursts are topology brackets
    // (partition at the head, heal at the tail) so batches form mid-split.
    const double pick = rng.next_unit();
    const bool topology_burst = pick >= 0.85;
    const ChurnKind lean = pick < 0.45 ? ChurnKind::kJoin : ChurnKind::kLeave;
    if (topology_burst && !partitioned) {
      ops_.push_back(ChurnOp{t, ChurnKind::kPartition, rng.next_u64()});
      partitioned = true;
      t += intra_gap_ms;
    }
    for (int i = 0; i < burst_size; ++i) {
      ops_.push_back(ChurnOp{t, lean, rng.next_u64()});
      t += intra_gap_ms;
    }
    if (topology_burst && partitioned) {
      ops_.push_back(ChurnOp{t, ChurnKind::kHeal, 0});
      partitioned = false;
      t += intra_gap_ms;
    }
    t += idle_gap_ms;
  }
  if (partitioned) ops_.push_back(ChurnOp{t, ChurnKind::kHeal, 0});
}

namespace {
// Decision-stream salts: each fault dimension consumes an independent slice
// of the hash space so e.g. raising the drop rate never changes which
// copies get duplicated.
constexpr std::uint64_t kDropSalt = 0x01;
constexpr std::uint64_t kDelaySalt = 0x02;
constexpr std::uint64_t kDupSalt = 0x03;
constexpr std::uint64_t kJitterSalt = 0x04;
constexpr std::uint64_t kUnicastSpace = 0x8000000000000000ULL;

constexpr double kJitterMs = 1.5;  // max jitter magnitude of a delayed copy

std::uint64_t pair_key(std::uint64_t a, std::uint64_t b) {
  return (a << 32) ^ b;
}
}  // namespace

WireFault FaultPlan::daemon_copy_fault(int from_machine, int to_machine,
                                       std::uint64_t seq) const {
  const std::uint64_t link = pair_key(static_cast<std::uint64_t>(from_machine),
                                      static_cast<std::uint64_t>(to_machine));
  WireFault f;
  if (fault_unit(seed_, link, seq, kDropSalt) < rates_.drop)
    f.extra_delay_ms += kRetransMs;
  if (fault_unit(seed_, link, seq, kDelaySalt) < rates_.delay)
    f.extra_delay_ms += kJitterMs * fault_unit(seed_, link, seq, kJitterSalt);
  if (fault_unit(seed_, link, seq, kDupSalt) < rates_.duplicate) f.copies = 2;
  return f;
}

WireFault FaultPlan::unicast_fault(ProcessId from, ProcessId to,
                                   std::uint64_t nth) const {
  const std::uint64_t link = kUnicastSpace | pair_key(from, to);
  WireFault f;
  if (fault_unit(seed_, link, nth, kDropSalt) < rates_.drop)
    f.extra_delay_ms += kRetransMs;
  if (fault_unit(seed_, link, nth, kDelaySalt) < rates_.delay)
    f.extra_delay_ms += kJitterMs * fault_unit(seed_, link, nth, kJitterSalt);
  return f;
}

}  // namespace sgk::fault
