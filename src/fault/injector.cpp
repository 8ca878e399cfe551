#include "fault/injector.h"

#include <algorithm>

#include "util/check.h"

namespace sgk::fault {

void FaultInjector::arm(Scheduler& sched, ChurnTarget& target) {
  SGK_CHECK(!armed_);
  armed_ = true;
  const double now = sched.now();
  for (const ChurnOp& op : plan_.ops()) {
    sched.after(std::max(0.0, op.at_ms - now), [this, &target, op]() {
      ++stats_.churn_applied;
      target.apply(op);
    });
  }
}

WireFault FaultInjector::on_daemon_copy(int from_machine, int to_machine,
                                        std::uint64_t seq) {
  ++stats_.daemon_copies;
  const WireFault f = plan_.daemon_copy_fault(from_machine, to_machine, seq);
  if (f.extra_delay_ms >= kRetransMs) ++stats_.dropped;
  else if (f.extra_delay_ms > 0) ++stats_.delayed;
  if (f.copies > 1) ++stats_.duplicated;
  return f;
}

WireFault FaultInjector::on_unicast(ProcessId from, ProcessId to) {
  ++stats_.unicasts;
  const WireFault f = plan_.unicast_fault(from, to, unicast_counter_++);
  if (f.extra_delay_ms > 0) ++stats_.unicasts_delayed;
  return f;
}

MutationKind FaultInjector::on_frame(Bytes& wire, std::uint64_t unit) {
  if (mutator_ == nullptr) return MutationKind::kNone;
  const MutationKind kind = mutator_->mutate(wire, unit);
  if (kind != MutationKind::kNone) ++stats_.frames_mutated;
  return kind;
}

}  // namespace sgk::fault
