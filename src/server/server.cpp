#include "server/server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "fault/rng.h"
#include "obs/metrics.h"
#include "obs/wallclock.h"
#include "util/check.h"

namespace sgk::server {
namespace {

// Machines in every group's (private) LAN topology.
constexpr int kMachinesPerGroup = 4;

}  // namespace

GroupServer::GroupServer(ServerConfig config) : config_(std::move(config)) {
  SGK_CHECK(config_.groups >= 1);
  SGK_CHECK(config_.members_per_group >= 2);
  SGK_CHECK(config_.threads >= 1);
  SGK_CHECK(!config_.protocols.empty());
  SGK_CHECK(config_.epoch_window_ms > 0.0);
}

GroupServer::~GroupServer() = default;

GroupSpec GroupServer::spec_for(GroupId gid) const {
  GroupSpec spec;
  spec.id = gid;
  spec.name = "g" + std::to_string(gid);
  spec.protocol = config_.protocols[gid % config_.protocols.size()];
  spec.dh_bits = config_.dh_bits;
  spec.initial_size = config_.members_per_group;
  spec.churn_events = config_.churn_events;
  spec.onboard_at_ms = static_cast<double>(gid) * config_.onboard_gap_ms;
  // Independent per-group schedule/DRBG stream, order-free in gid.
  spec.seed = fault::fault_hash(config_.seed, gid, 0x5eedULL, 1);
  spec.rates = config_.rates;
  spec.storm = config_.storm;
  spec.burst_size = config_.burst_size;
  spec.batch = config_.batch;
  return spec;
}

ServerResult GroupServer::run() {
  SGK_CHECK(!ran_);
  ran_ = true;

  const auto n = config_.groups;
  std::vector<GroupSpec> specs;
  specs.reserve(n);
  double max_deadline = 0.0;
  for (GroupId gid = 0; gid < static_cast<GroupId>(n); ++gid) {
    specs.push_back(spec_for(gid));
    max_deadline = std::max(max_deadline, group_deadline_ms(specs.back()));
  }
  hosts_.resize(n);  // each epoch, a slot belongs to the worker that claimed it

  const Topology topo = lan_testbed(kMachinesPerGroup);
  ShardExecutor exec(config_.threads);

  ServerResult result;
  {
    obs::WallScope run_scope("server/run");
    double t = 0.0;
    std::size_t unfinished = n;
    while (unfinished > 0) {
      t += config_.epoch_window_ms;
      {
        obs::WallScope epoch_scope("server/epoch");
        // Work sharing: each worker claims the next unclaimed slot until all
        // n are claimed, so an idle worker picks up the next runnable group
        // instead of waiting at the barrier. The atomic claim hands every
        // slot to exactly one worker; the barrier orders the epochs, so
        // relaxed ordering suffices.
        std::atomic<std::size_t> cursor{0};
        exec.run_epoch([&](int /*worker*/) {
          for (std::size_t gid = cursor.fetch_add(1, std::memory_order_relaxed);
               gid < n; gid = cursor.fetch_add(1, std::memory_order_relaxed)) {
            auto& slot = hosts_[gid];
            if (!slot) {
              if (specs[gid].onboard_at_ms > t) continue;
              slot = std::make_unique<GroupHost>(
                  specs[gid], std::make_shared<Pki>(),
                  static_cast<ProcessId>(gid) * kPidStride, topo);
            }
            if (slot->done()) continue;
            if (t >= slot->deadline_ms()) {
              slot->settle_at_deadline();
            } else if (slot->next_event_time() > t) {
              continue;  // conservative lookahead: nothing to do this epoch
            } else {
              slot->advance(t);
            }
          }
        });
      }
      ++result.epochs_executed;
      // Barrier passed: worker writes to this epoch's slots are visible.
      unfinished = 0;
      for (const auto& slot : hosts_) {
        if (!slot || !slot->done()) ++unfinished;
      }
      SGK_CHECK(t <= max_deadline + 2.0 * config_.epoch_window_ms);
    }
  }

  // Aggregate on the main thread in ascending group-id order — the fixed
  // fold order is what keeps the report independent of worker interleaving.
  obs::MetricsRegistry* ambient = obs::metrics();
  std::vector<double> onboard_ms;
  std::vector<double> event_to_key_ms;
  std::vector<double> batch_event_to_key_ms;
  result.groups.reserve(n);
  for (std::size_t gid = 0; gid < n; ++gid) {
    GroupHost& host = *hosts_[gid];
    GroupReport report = host.finalize(&shared_stats_);
    if (ambient != nullptr) {
      ambient->merge_from(host.metrics());
      if (config_.per_group_metrics) {
        ambient->merge_from(host.metrics(),
                            "group/" + host.spec().name + "/");
      }
    }
    ++result.groups_hosted;
    if (report.converged) ++result.groups_converged;
    if (report.onboard_ms > 0.0) onboard_ms.push_back(report.onboard_ms);
    event_to_key_ms.insert(event_to_key_ms.end(),
                           report.event_to_key_ms.begin(),
                           report.event_to_key_ms.end());
    result.key_installs += report.event_to_key_ms.size();
    result.rekeys += report.rekeys;
    result.virtual_makespan_ms =
        std::max(result.virtual_makespan_ms, report.settled_ms);
    result.events_applied += report.events_applied;
    result.batch_events += report.batch.events;
    result.batch_flushes += report.batch.flushes;
    result.batch_coalesced += report.batch.coalesced;
    result.batch_shed += report.batch.shed;
    result.batch_budget_misses += report.batch.budget_misses;
    result.degraded_entries += report.batch.degraded_entries;
    result.degraded_exits += report.batch.degraded_exits;
    if (report.batch.health == GroupHealth::kDegraded) ++result.groups_degraded;
    batch_event_to_key_ms.insert(batch_event_to_key_ms.end(),
                                 report.batch.event_to_key_ms.begin(),
                                 report.batch.event_to_key_ms.end());
    result.groups.push_back(std::move(report));
  }
  result.onboard_p50_ms = obs::sample_quantile(onboard_ms, 0.50);
  result.onboard_p99_ms = obs::sample_quantile(onboard_ms, 0.99);
  result.event_to_key_p50_ms = obs::sample_quantile(event_to_key_ms, 0.50);
  result.event_to_key_p99_ms = obs::sample_quantile(event_to_key_ms, 0.99);
  const double makespan_s = result.virtual_makespan_ms / 1000.0;
  if (makespan_s > 0.0) {
    result.groups_per_sec =
        static_cast<double>(result.groups_converged) / makespan_s;
    result.rekeys_per_sec = static_cast<double>(result.rekeys) / makespan_s;
  }
  if (result.events_applied > 0) {
    result.rekeys_per_event = static_cast<double>(result.rekeys) /
                            static_cast<double>(result.events_applied);
  }
  result.batch_event_to_key_p50_ms =
      obs::sample_quantile(batch_event_to_key_ms, 0.50);
  result.batch_event_to_key_p99_ms =
      obs::sample_quantile(batch_event_to_key_ms, 0.99);
  result.shared_messages_stamped = shared_stats_.stamped_total;
  result.shared_processes = shared_stats_.processes_total;
  if (ambient != nullptr) {
    ambient->counter("server/epochs").add(result.epochs_executed);
    ambient->counter("server/groups_hosted").add(result.groups_hosted);
  }
  return result;
}

obs::Json ServerResult::to_json(bool with_groups) const {
  obs::Json j = obs::Json::object();
  obs::Json agg = obs::Json::object();
  agg.set("groups_hosted", obs::Json(static_cast<std::uint64_t>(groups_hosted)));
  agg.set("groups_converged",
          obs::Json(static_cast<std::uint64_t>(groups_converged)));
  agg.set("epochs_executed", obs::Json(epochs_executed));
  agg.set("virtual_makespan_ms", obs::Json(virtual_makespan_ms));
  agg.set("key_installs", obs::Json(key_installs));
  agg.set("rekeys", obs::Json(rekeys));
  agg.set("onboard_p50_ms", obs::Json(onboard_p50_ms));
  agg.set("onboard_p99_ms", obs::Json(onboard_p99_ms));
  agg.set("event_to_key_p50_ms", obs::Json(event_to_key_p50_ms));
  agg.set("event_to_key_p99_ms", obs::Json(event_to_key_p99_ms));
  agg.set("groups_per_sec", obs::Json(groups_per_sec));
  agg.set("rekeys_per_sec", obs::Json(rekeys_per_sec));
  agg.set("shared_messages_stamped", obs::Json(shared_messages_stamped));
  agg.set("shared_processes", obs::Json(shared_processes));
  j.set("aggregate", std::move(agg));

  // Rekey-pipeline rollup, present only when batching actually ran: a server
  // with batching disabled produces byte-identical JSON to the pre-pipeline
  // versions, which keeps the committed multi_group baselines valid.
  if (batch_events > 0) {
    obs::Json batch = obs::Json::object();
    batch.set("events_applied",
              obs::Json(static_cast<std::uint64_t>(events_applied)));
    batch.set("events", obs::Json(batch_events));
    batch.set("flushes", obs::Json(batch_flushes));
    batch.set("coalesced", obs::Json(batch_coalesced));
    batch.set("shed", obs::Json(batch_shed));
    batch.set("budget_misses", obs::Json(batch_budget_misses));
    batch.set("degraded_entries", obs::Json(degraded_entries));
    batch.set("degraded_exits", obs::Json(degraded_exits));
    batch.set("groups_degraded",
              obs::Json(static_cast<std::uint64_t>(groups_degraded)));
    batch.set("rekeys_per_event", obs::Json(rekeys_per_event));
    batch.set("event_to_key_p50_ms", obs::Json(batch_event_to_key_p50_ms));
    batch.set("event_to_key_p99_ms", obs::Json(batch_event_to_key_p99_ms));
    j.set("batch", std::move(batch));
  }

  // Per-protocol rollup in protocol-name order (deterministic).
  struct Roll {
    std::uint64_t hosted = 0;
    std::uint64_t converged = 0;
    std::uint64_t rekeys = 0;
    std::vector<double> onboard_ms;
    std::vector<double> event_to_key_ms;
  };
  std::map<std::string, Roll> rolls;
  for (const GroupReport& g : groups) {
    Roll& r = rolls[to_string(g.protocol)];
    ++r.hosted;
    if (g.converged) ++r.converged;
    r.rekeys += g.rekeys;
    if (g.onboard_ms > 0.0) r.onboard_ms.push_back(g.onboard_ms);
    r.event_to_key_ms.insert(r.event_to_key_ms.end(),
                             g.event_to_key_ms.begin(),
                             g.event_to_key_ms.end());
  }
  obs::Json protos = obs::Json::array();
  for (const auto& [name, r] : rolls) {
    obs::Json row = obs::Json::object();
    row.set("protocol", obs::Json(name));
    row.set("groups", obs::Json(r.hosted));
    row.set("converged", obs::Json(r.converged));
    row.set("rekeys", obs::Json(r.rekeys));
    row.set("onboard_p50_ms",
            obs::Json(obs::sample_quantile(r.onboard_ms, 0.50)));
    row.set("event_to_key_p99_ms",
            obs::Json(obs::sample_quantile(r.event_to_key_ms, 0.99)));
    protos.push(std::move(row));
  }
  j.set("protocols", std::move(protos));

  if (with_groups) {
    obs::Json rows = obs::Json::array();
    for (const GroupReport& g : groups) {
      obs::Json row = obs::Json::object();
      row.set("id", obs::Json(static_cast<std::uint64_t>(g.id)));
      row.set("protocol", obs::Json(to_string(g.protocol)));
      row.set("converged", obs::Json(g.converged));
      row.set("final_size",
              obs::Json(static_cast<std::uint64_t>(g.final_size)));
      row.set("final_epoch", obs::Json(g.final_epoch));
      row.set("rekeys", obs::Json(g.rekeys));
      row.set("onboard_ms", obs::Json(g.onboard_ms));
      row.set("settled_ms", obs::Json(g.settled_ms));
      row.set("event_to_key_p99_ms",
              obs::Json(obs::sample_quantile(g.event_to_key_ms, 0.99)));
      row.set("fingerprint", obs::Json(g.fingerprint));
      rows.push(std::move(row));
    }
    j.set("groups", std::move(rows));
  }
  return j;
}

}  // namespace sgk::server
