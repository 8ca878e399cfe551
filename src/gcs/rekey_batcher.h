// Event-coalescing rekey pipeline: the churn-storm survival layer.
//
// Without it, every membership event — join, leave, crash, partition, merge,
// refresh — triggers its own view install and therefore its own full key
// agreement. Under a storm of events the group does O(events) agreements,
// falls behind, and the per-event cost is exactly the scalability killer
// ROADMAP item 2 describes (the simultaneous-join/leave problem the CKCS
// line of work targets). All five protocols already expose aggregate
// merge/partition forms (paper Table 1): ONE view whose delta adds and
// removes many members costs roughly one agreement, not many.
//
// The RekeyBatcher exploits that. Membership events queue into a per-group
// batch; a batch flushes as ONE view-update request after an adaptive
// window, so the stamped view's delta aggregates every event of the window
// and the protocols rekey once for the whole batch. Around the queue sits
// the robustness envelope:
//
//  * Adaptive window — grows geometrically while batches stay busy
//    (sustained arrival), shrinks when traffic is sparse, and is hard-capped
//    so that batching delay plus an expected agreement still fits the
//    configured p99 event-to-key latency budget.
//  * Bounded queue with explicit backpressure — each admitted event gets a
//    typed OverloadVerdict: admitted (opened a window), coalesced (joined
//    the open window), or shed-oldest (queue full: the oldest pending
//    record is dropped to make room — membership truth lives in the GCS
//    registry, so shedding only loses per-event latency attribution, never
//    the membership change itself). Verdicts are counted in obs metrics.
//  * Degraded mode — a group that misses its latency budget for K
//    consecutive flushed windows falls back to widest-window "one rekey per
//    epoch" operation (maximum amortization, bounded rekey rate) and emits
//    a typed health transition; R consecutive within-budget windows restore
//    normal adaptation.
//
// Determinism: the batcher runs entirely on the owning run's Simulator and
// contains no randomness, so batched runs replay bit-for-bit and the
// multi-group server's reports stay byte-identical at any thread count.
// Disabled (the default), SpreadNetwork bypasses it entirely and behaves
// exactly as before — see docs/batched_rekey.md.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/thread_annotations.h"

namespace sgk {

/// Membership-event classes the batcher coalesces (the GCS-level causes; the
/// protocols later see whatever aggregate GroupEvent the flushed view's
/// delta classifies as).
enum class BatchEventKind : std::uint8_t {
  kJoin,
  kLeave,      // graceful leave or crash-disconnect
  kPartition,  // topology split rebuilt the component rings
  kMerge,      // components healed back together
  kRefresh,    // explicit rekey request (forces a view even if membership
               // is unchanged)
};

const char* to_string(BatchEventKind kind);

/// Typed admission verdict for one membership event.
enum class OverloadVerdict : std::uint8_t {
  kAdmitted,   // opened a fresh batching window
  kCoalesced,  // joined the already-open window (coalesce-in-place)
  kShedOldest, // queue at capacity: oldest pending record shed to make room
};

const char* to_string(OverloadVerdict verdict);

/// Group health as seen by the rekey pipeline.
enum class GroupHealth : std::uint8_t {
  kNormal,    // adaptive windows, latency budget being met
  kDegraded,  // budget missed K consecutive windows: widest-window fallback
};

const char* to_string(GroupHealth health);

/// Batching tunables. The all-defaults config is DISABLED: a SpreadNetwork
/// built with it routes membership events straight to the membership
/// protocol, bit-identical to the pre-batching behavior.
struct BatchConfig {
  // Copied into the owning network at construction; per-run value type.
  SGK_CONFINED_TO_RUN;
  /// Master switch. Off: SpreadNetwork never constructs a batcher.
  bool enabled = false;
  /// Window bounds (virtual ms). A window of 0 flushes on the next simulator
  /// turn — per-event rekeying with batcher accounting ("unbatched
  /// baseline" mode of bench/churn_storm).
  double min_window_ms = 2.0;
  double max_window_ms = 256.0;
  /// p99 event-to-new-key budget (virtual ms). Normal-mode windows are
  /// hard-capped at budget_window_fraction * latency_budget_ms so batching
  /// delay leaves room for the agreement itself; flushed windows whose
  /// slowest event exceeds the budget count as misses.
  double latency_budget_ms = 800.0;
  double budget_window_fraction = 0.5;
  /// Pending event records per group; beyond this the oldest is shed.
  std::size_t queue_capacity = 64;
  /// Batch size at which the window doubles (sustained arrival).
  std::size_t grow_threshold = 3;
  /// Consecutive budget misses that trip degraded mode, and consecutive
  /// within-budget windows that restore normal operation.
  int degrade_after_misses = 3;
  int recover_after_hits = 4;
};

/// Deterministic per-group pipeline statistics (plain counters; snapshot
/// freely).
struct BatchStats {
  // Owned by the batcher, read by the finalizing thread after the run.
  SGK_CONFINED_TO_RUN;
  std::uint64_t events = 0;       // membership events noted
  std::uint64_t flushes = 0;      // windows flushed (aggregate view requests)
  std::uint64_t coalesced = 0;    // events that joined an open window
  std::uint64_t shed = 0;         // oldest-record sheds under overload
  std::uint64_t budget_misses = 0;
  std::uint64_t degraded_entries = 0;
  std::uint64_t degraded_exits = 0;
  GroupHealth health = GroupHealth::kNormal;
  std::uint64_t max_batch = 0;    // largest flushed batch
  /// Per-event latency samples (event arrival -> first key of a later
  /// epoch), for events whose record survived to its window's key install.
  std::vector<double> event_to_key_ms;

  bool operator==(const BatchStats&) const = default;
};

class RekeyBatcher {
  // Lives inside one SpreadNetwork and is driven only from that run's
  // simulator event loop.
  SGK_CONFINED_TO_RUN;

 public:
  /// `flush` is invoked once per closed window with (group, force): it must
  /// issue the aggregate view-update request. `force` is true when any event
  /// of the window was a kRefresh (membership-unchanged views must still
  /// install).
  using FlushFn = std::function<void(const std::string& group, bool force)>;
  /// Optional health listener: (group, new_health, virtual time).
  using HealthFn = std::function<void(const std::string& group, GroupHealth,
                                      SimTime)>;

  RekeyBatcher(Simulator& sim, BatchConfig config, FlushFn flush);

  RekeyBatcher(const RekeyBatcher&) = delete;
  RekeyBatcher& operator=(const RekeyBatcher&) = delete;

  /// Records one membership event for `group` and returns its admission
  /// verdict. Opens a window when none is pending; otherwise coalesces (or
  /// sheds the oldest record when the queue is full).
  OverloadVerdict note_event(const std::string& group, BatchEventKind kind);

  /// Latency feedback: the group established a key (a NEW keyed epoch) at
  /// virtual time `t`. Completes the oldest outstanding flush's latency
  /// samples, drives budget/degraded accounting. Call once per fresh epoch
  /// (the first member to install is enough).
  void note_key_installed(const std::string& group, SimTime t);

  /// Current adaptive window for `group` (ms); min_window_ms before any
  /// traffic.
  double window_ms(const std::string& group) const;

  GroupHealth health(const std::string& group) const;

  /// Snapshot of the group's pipeline counters (zeroes for an unseen group).
  BatchStats stats(const std::string& group) const;

  /// Pending (not yet flushed) event records for `group`.
  std::size_t queue_depth(const std::string& group) const;

  void set_health_listener(HealthFn fn) { health_fn_ = std::move(fn); }

  const BatchConfig& config() const { return config_; }

 private:
  struct PendingEvent {
    SimTime at = 0.0;
    BatchEventKind kind = BatchEventKind::kJoin;
  };

  /// One flushed window awaiting its key install (FIFO per group).
  struct OutstandingFlush {
    SimTime flushed_at = 0.0;
    std::vector<SimTime> arrivals;  // surviving records' arrival times
  };

  struct GroupPipe {
    std::deque<PendingEvent> pending;
    bool window_open = false;
    bool force = false;            // a kRefresh is queued
    double window_ms = 0.0;        // current adaptive window (set on first use)
    std::uint64_t window_gen = 0;  // invalidates superseded flush timers
    std::deque<OutstandingFlush> outstanding;
    int consecutive_misses = 0;
    int consecutive_hits = 0;
    BatchStats stats;
  };

  /// Outstanding flushes kept per group before the oldest is dropped (a
  /// flush whose view was deduplicated away never sees a key install).
  static constexpr std::size_t kMaxOutstanding = 8;

  GroupPipe& pipe(const std::string& group);
  void open_window(const std::string& group, GroupPipe& p);
  void flush(const std::string& group, GroupPipe& p);
  void adapt_window(GroupPipe& p, std::size_t batch_size) const;
  double window_cap() const;
  void set_health(const std::string& group, GroupPipe& p, GroupHealth health);

  Simulator& sim_;
  BatchConfig config_;
  FlushFn flush_fn_;
  HealthFn health_fn_;
  std::map<std::string, GroupPipe> pipes_;
};

}  // namespace sgk
