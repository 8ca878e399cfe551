// GroupServer: hosts N independent secure groups over one shared daemon
// topology shape and executes them in parallel across worker threads with
// bit-for-bit deterministic output.
//
// Execution model (docs/multi_group.md has the long form):
//  * Every group gets its own seeded schedule (Simulator + SpreadNetwork +
//    churn plan derived from fault_hash(seed, gid)), its own Pki and a
//    disjoint process-id block: groups share no mutable state.
//  * Time advances on a fixed epoch grid (epoch_window_ms). Each epoch, the
//    ShardExecutor runs the epoch closure once on every worker: workers claim
//    group ids from a shared cursor until all are claimed, so each group is
//    advanced by exactly one worker per epoch (which worker may change from
//    epoch to epoch). For a claimed group the worker lazily constructs its
//    host once the onboard time has arrived and advances it to the epoch end
//    (skipping hosts whose next_event_time() lies beyond it — conservative
//    lookahead). The epoch barrier then orders all worker writes before the
//    next epoch and before main-thread reads.
//  * Results are aggregated on the main thread in ascending group-id order,
//    so reports are byte-identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gcs/secure_group.h"
#include "gcs/spread.h"
#include "obs/json.h"
#include "server/group_host.h"
#include "server/shard_executor.h"
#include "sim/topology.h"
#include "util/thread_annotations.h"

namespace sgk::server {

struct ServerConfig {
  // Fixed before run(); read-only once workers start.
  SGK_CONFINED_TO_RUN;
  std::size_t groups = 16;
  std::size_t members_per_group = 4;
  int churn_events = 4;
  int threads = 1;
  std::uint64_t seed = 1;
  /// Groups onboard staggered: group g starts at g * onboard_gap_ms.
  double onboard_gap_ms = 1.0;
  /// Virtual-time epoch window between executor barriers.
  double epoch_window_ms = 50.0;
  /// Protocol mix, assigned round-robin by group id.
  std::vector<ProtocolKind> protocols = {ProtocolKind::kGdh,
                                         ProtocolKind::kCkd,
                                         ProtocolKind::kTgdh,
                                         ProtocolKind::kStr,
                                         ProtocolKind::kBd};
  DhBits dh_bits = DhBits::k512;
  /// Wire-fault rates applied inside every group's network.
  fault::FaultRates rates;
  /// Churn schedule shape for every group (kUniform = legacy plans) and the
  /// burst size the bursty shape reads (GroupSpec docs).
  StormKind storm = StormKind::kUniform;
  int burst_size = 8;
  /// Rekey batching applied to every group's network (default disabled).
  BatchConfig batch;
  /// Also fold each group's registry under a "group/<name>/" metric prefix
  /// (aggregate-only by default: 1000 groups would mean 1000x the labels).
  bool per_group_metrics = false;
};

struct ServerResult {
  // Built on the main thread after the run.
  SGK_CONFINED_TO_RUN;
  std::vector<GroupReport> groups;  // ascending group id
  std::size_t groups_hosted = 0;
  std::size_t groups_converged = 0;
  std::uint64_t epochs_executed = 0;     // executor barriers crossed
  double virtual_makespan_ms = 0.0;      // max settled_ms over groups
  std::uint64_t key_installs = 0;        // key-listener fires, all groups
  std::uint64_t rekeys = 0;              // distinct keyed epochs beyond first
  double onboard_p50_ms = 0.0;           // onboard latency quantiles
  double onboard_p99_ms = 0.0;
  double event_to_key_p50_ms = 0.0;      // per-install latency quantiles
  double event_to_key_p99_ms = 0.0;
  double groups_per_sec = 0.0;           // converged groups / virtual second
  double rekeys_per_sec = 0.0;           // rekeys / virtual second
  std::uint64_t shared_messages_stamped = 0;  // SharedSpreadStats totals
  std::uint64_t shared_processes = 0;
  // Rekey-pipeline rollup (all zeros when batching is disabled).
  std::uint64_t events_applied = 0;     // churn ops that took effect
  std::uint64_t batch_events = 0;       // events noted by the batchers
  std::uint64_t batch_flushes = 0;      // aggregate rekeys issued
  std::uint64_t batch_coalesced = 0;
  std::uint64_t batch_shed = 0;
  std::uint64_t batch_budget_misses = 0;
  std::uint64_t degraded_entries = 0;   // health transitions, all groups
  std::uint64_t degraded_exits = 0;
  std::size_t groups_degraded = 0;      // final health == degraded
  /// Distinct rekeys per applied membership event (the amortization
  /// headline; 0 when no events applied).
  double rekeys_per_event = 0.0;
  /// Batcher-attributed latency quantiles: event ARRIVAL -> new key (the
  /// event_to_key_* fields above measure view install -> key instead).
  double batch_event_to_key_p50_ms = 0.0;
  double batch_event_to_key_p99_ms = 0.0;

  /// Canonical deterministic JSON (no wall-clock, no thread count): the
  /// payload the determinism regression compares byte-for-byte across
  /// thread counts. Per-group rows are included only when `with_groups`.
  obs::Json to_json(bool with_groups = false) const;
};

class GroupServer {
  // Orchestrator state is main-thread-owned, and the hosts are the only
  // per-group state: workers only ever touch the host slots they claimed
  // this epoch (via the epoch closure), and each host owns its Pki. The
  // epoch barrier orders every slot hand-off; the report, and the shared
  // transport totals, are folded from the hosts' finalize() on the main
  // thread.
  SGK_CONFINED_TO_RUN;

 public:
  explicit GroupServer(ServerConfig config);
  ~GroupServer();

  GroupServer(const GroupServer&) = delete;
  GroupServer& operator=(const GroupServer&) = delete;

  /// Executes every group to settlement (or its deadline) and aggregates.
  /// Deterministic in the config minus `threads`: any thread count produces
  /// byte-identical results. Call once.
  ServerResult run();

  const SharedSpreadStats& shared_stats() const { return shared_stats_; }

  /// Process-id block width per group (first pid of group g is
  /// g * kPidStride), sized so no realistic churn schedule overflows it.
  static constexpr ProcessId kPidStride = 4096;

 private:
  GroupSpec spec_for(GroupId gid) const;

  ServerConfig config_;
  SharedSpreadStats shared_stats_;
  std::vector<std::unique_ptr<GroupHost>> hosts_;  // by gid; claimed per epoch
  bool ran_ = false;
};

}  // namespace sgk::server
