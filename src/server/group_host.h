// One hosted group: a complete, isolated Secure Spread deployment (its own
// Simulator, SpreadNetwork, members, seeded churn plan and optional frame
// mutator). It is the one churn-replay engine: a GroupServer advances many
// hosts in virtual-time slices, and run_group() drives a single host to its
// deadline for the chaos and fuzz soaks and the scenario tests.
//
// Isolation is the determinism mechanism: everything a host touches while
// advancing is owned by the host, its Pki included (the server hands each
// host a fresh one; process ids stay disjoint across groups thanks to the
// host's SpreadParams::first_process_id block). At finalize, on the main
// thread, the host folds its transport totals into the server's
// SharedSpreadStats. Each epoch a host is advanced by exactly one worker
// (whichever claimed it; it may be a different one next epoch), with the
// executor's barrier ordering epochs — hence SGK_CONFINED_TO_RUN on the
// class itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/key_agreement.h"
#include "crypto/dh.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/mutator.h"
#include "fault/plan.h"
#include "gcs/rekey_batcher.h"
#include "gcs/secure_group.h"
#include "gcs/spread.h"
#include "obs/metrics.h"
#include "sim/fault_adapter.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "util/thread_annotations.h"

namespace sgk::server {

using GroupId = std::uint32_t;

/// Shape of a group's churn schedule (see fault::FaultPlan).
enum class StormKind {
  kUniform,  // randomize(): uniform gaps in [kMinGapMs, kMaxGapMs]
  kBursty,   // bursty_storm(): tight bursts separated by idle stretches
};

/// Immutable per-group configuration, fixed when the server builds its
/// schedule. Copied by value into the group's host.
struct GroupSpec {
  // Built once on the main thread before workers start; read-only after.
  SGK_CONFINED_TO_RUN;
  GroupId id = 0;
  /// Group label: it names the metric prefixes and feeds the members' key
  /// derivation. A server names its groups "g<id>"; a standalone run keeps
  /// the member default.
  std::string name = "secure-group";
  ProtocolKind protocol = ProtocolKind::kTgdh;
  DhBits dh_bits = DhBits::k512;
  std::size_t initial_size = 4;
  int churn_events = 4;
  double onboard_at_ms = 0.0;  // virtual time the group's members start joining
  std::uint64_t seed = 1;      // per-group schedule + DRBG seed
  fault::FaultRates rates;     // wire-fault rates for this group's network
  /// Per-member recovery watchdog (gcs/secure_group.h): a member whose
  /// agreement outlives this window requests a quarantine rekey instead of
  /// wedging forever. A long-lived server arms it by default — at thousands
  /// of groups, rare per-group liveness corners become routine events.
  double recovery_watchdog_ms = 5000.0;
  /// Churn schedule shape; kUniform reproduces the pre-storm plans exactly.
  /// Its gaps, start offset and the grace past the last op are constants of
  /// group_host.cpp.
  StormKind storm = StormKind::kUniform;
  int burst_size = 8;          // kBursty: events per burst
  /// Rekey batching for this group's network (disabled by default — every
  /// membership event rekeys immediately, the legacy behavior).
  BatchConfig batch;
  /// Scripted mode: when non-empty these ops replace the storm, at times
  /// relative to onboard_at_ms (regression reproductions, unit tests).
  std::vector<fault::ChurnOp> script;
  /// Probability that any one stamped frame or unicast is mutated by the
  /// structure-aware FrameMutator (fault/mutator.h). 0 keeps the wire honest.
  double mutation_rate = 0.0;
  /// Verify signatures at the members. When off, the mutator restricts
  /// itself to mutations strict structural validation provably catches, so
  /// a run still may not diverge silently.
  bool verify_signatures = true;
};

/// Liveness bound for a spec: last scheduled churn op + grace. The server
/// reads it before any host exists; a host computes the same bound from the
/// plan it builds.
double group_deadline_ms(const GroupSpec& spec);

/// Deterministic per-group outcome, produced once by finalize().
struct GroupReport {
  // Built by the finalizing thread; plain value afterwards.
  SGK_CONFINED_TO_RUN;
  GroupId id = 0;
  ProtocolKind protocol = ProtocolKind::kTgdh;
  bool converged = false;
  std::vector<std::string> violations;  // empty iff converged
  std::size_t final_size = 0;
  std::uint64_t final_epoch = 0;
  std::uint64_t rekeys = 0;          // distinct keyed epochs beyond the first
  double onboard_ms = 0.0;           // onboard start -> first key anywhere
  double settled_ms = 0.0;           // virtual time the group went quiet
  std::vector<double> event_to_key_ms;  // per key install: view -> key latency
  /// Last churn op (scheduled time) -> last key install, clamped to >= 0.
  double convergence_ms = 0.0;
  std::uint64_t restarts = 0;
  std::uint64_t stale_dropped = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t recoveries = 0;
  std::string fingerprint;  // final group key fingerprint (loggable)
  /// Churn ops that actually took effect (a leave skipped to keep two
  /// members does not count) — the denominator of keys-per-event.
  std::uint64_t events_applied = 0;
  /// Rekey pipeline stats (all zeros when spec.batch is disabled); the
  /// batcher's own event-arrival -> key latency samples live in
  /// batch.event_to_key_ms.
  BatchStats batch;
  /// Wire-fault and mutation tallies of the group's injector.
  fault::FaultInjector::Stats wire;
  /// An exception escaped one of the group's event handlers; violations then
  /// hold its what() string alone, and the member-derived fields (final_size,
  /// final_epoch, fingerprint and the per-member tallies) stay zero/empty,
  /// since the members may be half-built.
  bool crashed = false;

  bool operator==(const GroupReport&) const = default;
};

class GroupHost final : public fault::ChurnTarget {
  // Advanced by exactly one worker per epoch, not always the same one (the
  // executor's epoch barrier separates slices). It shares nothing mutable
  // with other hosts: its Pki is its own, and SharedSpreadStats is only
  // touched by finalize() on the main thread.
  SGK_CONFINED_TO_RUN;

 public:
  /// Builds the deployment and schedules member onboarding at
  /// `spec.onboard_at_ms` plus the seeded churn plan after it. `pki` is the
  /// group's own public-key directory; `first_pid` is this group's disjoint
  /// process-id block.
  GroupHost(const GroupSpec& spec, std::shared_ptr<Pki> pki,
            ProcessId first_pid, const Topology& topology);
  ~GroupHost() override;

  GroupHost(const GroupHost&) = delete;
  GroupHost& operator=(const GroupHost&) = delete;

  /// Runs this group's events up to virtual time `until`, with the calling
  /// thread's ambient metrics registry pointed at this group's own registry
  /// for the duration of the slice. An exception escaping an event handler
  /// is contained here: it is recorded as a crash violation and the host
  /// settles, so it never reaches the caller's thread. std::bad_alloc is the
  /// exception: it is rethrown, as the process is out of memory, not the
  /// group out of order.
  void advance(SimTime until);

  /// Runs the remaining events up to the deadline, then force-settles the
  /// host if any are still pending (finalize() records the timeout).
  void settle_at_deadline() {
    advance(deadline_ms_);
    if (!done()) forced_ = true;
  }

  /// True once the event queue drained (the group converged and went quiet)
  /// or the host was force-settled at its deadline.
  bool done() const { return forced_ || sim_.pending() == 0; }

  /// Conservative lookahead: virtual time of this group's next event
  /// (+infinity when quiet). An executor may skip any epoch that ends
  /// before this without advancing the host.
  SimTime next_event_time() const { return sim_.next_event_time(); }

  /// Liveness bound: last scheduled churn op + grace.
  double deadline_ms() const { return deadline_ms_; }

  const GroupSpec& spec() const { return spec_; }

  /// Checks invariants, absorbs transport totals into `shared` (when given)
  /// and builds the report. Call once, after done(), from the thread that
  /// owns `shared`.
  GroupReport finalize(SharedSpreadStats* shared);

  /// This group's private metrics registry (merged into the session
  /// registry by the server after the run).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  void apply(const fault::ChurnOp& op) override;
  SecureGroupMember& spawn();
  std::vector<SecureGroupMember*> alive() const;
  std::size_t slot(ProcessId pid) const {
    return static_cast<std::size_t>(pid - first_pid_);
  }

  GroupSpec spec_;
  ProcessId first_pid_;
  Simulator sim_;
  SpreadNetwork net_;
  std::shared_ptr<Pki> pki_;
  fault::FaultInjector injector_;
  std::optional<fault::FrameMutator> mutator_;
  fault::InvariantChecker checker_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<SecureGroupMember>> members_;  // slot(pid)
  std::size_t spawned_ = 0;
  std::uint64_t events_applied_ = 0;
  double last_op_ms_ = 0.0;
  double deadline_ms_ = 0.0;
  double first_key_ms_ = -1.0;
  double last_key_ms_ = 0.0;
  std::vector<double> event_to_key_ms_;
  std::vector<std::uint64_t> keyed_epochs_;  // distinct epochs, ascending
  bool forced_ = false;
  bool crashed_ = false;
  bool finalized_ = false;
};

/// Runs one group alone, start to finish, on the 13-machine lan_testbed(): a
/// fresh Pki, first pid 0, events up to the deadline (force-settled if still
/// pending), then finalize. The host's metrics are merged into the ambient
/// registry, if any. Deterministic in the spec, and equal to the same host
/// advanced in a server's epoch slices except for settled_ms.
GroupReport run_group(const GroupSpec& spec);

}  // namespace sgk::server
