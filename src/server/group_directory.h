// Directory of every group a GroupServer hosts: group id -> protocol,
// membership, epoch, lifecycle state.
//
// This is one of the genuinely cross-thread structures of the multi-group
// server: worker threads publish status rows for the groups they advance
// while the main thread reads counts and snapshots, so every field is
// behind a real mutex (SGK_GUARDED_BY — verified by gka_lint GKA5xx and
// Clang -Wthread-safety) rather than a confinement marker. Snapshots are
// returned in ascending group-id order, which is what keeps aggregate
// reports deterministic regardless of worker interleaving.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/key_agreement.h"
#include "crypto/dh.h"
#include "fault/plan.h"
#include "gcs/rekey_batcher.h"
#include "util/thread_annotations.h"

namespace sgk::server {

using GroupId = std::uint32_t;

/// Shape of a group's churn schedule (see fault::FaultPlan).
enum class StormKind {
  kUniform,  // randomize(): uniform gaps in [min_gap_ms, max_gap_ms]
  kPoisson,  // poisson_storm(): exponential gaps of mean mean_gap_ms
  kBursty,   // bursty_storm(): tight bursts separated by idle stretches
};

const char* to_string(StormKind kind);

/// Lifecycle of a hosted group.
enum class GroupState {
  kPending,     // registered, onboard time not reached yet
  kOnboarding,  // members joining / first agreement running
  kActive,      // keyed at least once, churn still scheduled
  kSettled,     // event queue drained before the deadline
  kFailed,      // deadline hit or an invariant violated
};

const char* to_string(GroupState state);

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
  /// First churn op fires this long after onboarding begins (the chaos
  /// harness's tested regime: late enough for the initial join burst to be
  /// in flight, short enough that ops still land inside agreements).
  double churn_start_ms = 50.0;
  double min_gap_ms = 5.0;     // churn inter-op gap bounds
  double max_gap_ms = 40.0;
  double grace_ms = 30000.0;   // liveness bound past the last churn op
  /// Per-member recovery watchdog (gcs/secure_group.h): a member whose
  /// agreement outlives this window requests a quarantine rekey instead of
  /// wedging forever. A long-lived server arms it by default — at thousands
  /// of groups, rare per-group liveness corners become routine events.
  double recovery_watchdog_ms = 5000.0;
  /// Ceiling for the recovery/watchdog exponential backoff (MemberConfig).
  double recovery_backoff_cap_ms = 2000.0;
  /// Churn schedule shape; kUniform reproduces the pre-storm plans exactly.
  StormKind storm = StormKind::kUniform;
  double mean_gap_ms = 10.0;   // kPoisson: mean inter-event gap
  int burst_size = 8;          // kBursty: events per burst
  double intra_gap_ms = 1.0;   // kBursty: gap inside a burst
  double idle_gap_ms = 400.0;  // kBursty: quiet stretch between bursts
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

/// Mutable status row a group's host publishes as it runs.
struct GroupStatus {
  // Published into the directory under its lock; plain value otherwise.
  SGK_CONFINED_TO_RUN;
  GroupState state = GroupState::kPending;
  std::uint64_t epoch = 0;     // latest key epoch observed in the group
  std::size_t members = 0;     // current live member count
  std::uint64_t rekeys = 0;    // distinct keyed epochs so far
  double settled_ms = 0.0;     // virtual time the group settled (0 until then)
};

class GroupDirectory {
 public:
  /// Registers a group in state kPending. Ids must be unique.
  void register_group(const GroupSpec& spec) SGK_EXCLUDES(dir_mu_);

  /// Publishes a new status row for `id` (must be registered).
  void update(GroupId id, const GroupStatus& status) SGK_EXCLUDES(dir_mu_);

  /// Number of registered groups. (Named to avoid the bare-identifier
  /// capability analyses conflating it with container `.size()` calls made
  /// while dir_mu_ is held.)
  std::size_t group_count() const SGK_EXCLUDES(dir_mu_);

  /// Number of groups currently in `state`.
  std::size_t count(GroupState state) const SGK_EXCLUDES(dir_mu_);

  /// Every (spec, status) pair in ascending group-id order.
  std::vector<std::pair<GroupSpec, GroupStatus>> snapshot() const
      SGK_EXCLUDES(dir_mu_);

 private:
  struct Entry {
    GroupSpec spec;
    GroupStatus status;
  };

  mutable std::mutex dir_mu_;
  std::map<GroupId, Entry> entries_ SGK_GUARDED_BY(dir_mu_);
};

}  // namespace sgk::server
