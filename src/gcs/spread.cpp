#include "gcs/spread.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sgk {

namespace {
// Daemon costs calibrated so the LAN testbed reproduces the paper's measured
// primitives (section 6.1.1).
constexpr double kHopProcessMs = 0.06;  // daemon token handling per hop
constexpr double kStampMs = 0.04;       // sequencing cost per stamped message
constexpr double kDeliverMs = 0.08;     // daemon-to-client delivery overhead
// Token cycles consumed by the membership protocol, after a fixed base.
constexpr double kMembershipRounds = 2.0;
constexpr double kMembershipBaseMs = 1.0;

/// Intersection of two sorted process lists.
std::vector<ProcessId> intersect(const std::vector<ProcessId>& a,
                                 const std::vector<ProcessId>& b) {
  std::vector<ProcessId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}
}  // namespace

SpreadNetwork::SpreadNetwork(Simulator& sim, Topology topology, SpreadParams params)
    : sim_(sim), topo_(std::move(topology)), params_(params) {
  SGK_CHECK(topo_.machine_count() > 0);
  daemons_.resize(topo_.machine_count());
  Component comp;
  comp.epoch = 1;
  for (std::size_t m = 0; m < topo_.machine_count(); ++m) {
    daemons_[m].machine = static_cast<MachineId>(m);
    daemons_[m].component = 0;
    daemons_[m].epoch = comp.epoch;
    comp.ring.push_back(static_cast<MachineId>(m));
    const MachineSpec& spec = topo_.machine(static_cast<MachineId>(m));
    // Track 0 is the events/phases timeline; machine m traces on track m+1.
    const auto track = static_cast<std::uint32_t>(m + 1);
    cpus_.push_back(
        std::make_unique<CpuScheduler>(sim_, spec.cores, spec.speed, track));
    SGK_TRACE(tr->set_track_name(track, "machine " + std::to_string(m)));
  }
  SGK_TRACE(tr->set_track_name(0, "membership events"));
  components_.push_back(std::move(comp));
  if (params_.batch.enabled) {
    // A flushed window requests one aggregate view per component; the
    // stamp-time dedup (last_stamped) suppresses components whose membership
    // is unchanged, so a flush costs exactly one view install per component
    // the batch actually touched.
    batcher_ = std::make_unique<RekeyBatcher>(
        sim_, params_.batch, [this](const std::string& group, bool force) {
          for (std::size_t c = 0; c < components_.size(); ++c)
            request_view_update(group, static_cast<int>(c), force);
        });
  }
}

SpreadNetwork::~SpreadNetwork() = default;

// ---------------------------------------------------------------------------
// processes

std::size_t SpreadNetwork::slot_of(ProcessId p) const {
  SGK_CHECK(p >= params_.first_process_id);
  return static_cast<std::size_t>(p - params_.first_process_id);
}

ProcessId SpreadNetwork::create_process(MachineId machine) {
  SGK_CHECK(machine >= 0 &&
            static_cast<std::size_t>(machine) < topo_.machine_count());
  processes_.push_back(ProcessInfo{machine, nullptr, true, {}});
  return params_.first_process_id +
         static_cast<ProcessId>(processes_.size() - 1);
}

void SpreadNetwork::attach(ProcessId process, GroupClient* client) {
  proc(process).client = client;
}

MachineId SpreadNetwork::machine_of(ProcessId process) const {
  return proc(process).machine;
}

CpuScheduler& SpreadNetwork::cpu_of(ProcessId process) {
  return *cpus_.at(static_cast<std::size_t>(machine_of(process)));
}

// ---------------------------------------------------------------------------
// membership

void SpreadNetwork::join_group(const std::string& group, ProcessId process) {
  auto& members = group_registry_[group];
  auto it = std::lower_bound(members.begin(), members.end(), process);
  SGK_CHECK(it == members.end() || *it != process);
  members.insert(it, process);
  membership_event(group, component_of(machine_of(process)),
                   BatchEventKind::kJoin);
}

void SpreadNetwork::leave_group(const std::string& group, ProcessId process) {
  auto& members = group_registry_[group];
  auto it = std::lower_bound(members.begin(), members.end(), process);
  SGK_CHECK(it != members.end() && *it == process);
  members.erase(it);
  proc(process).last_view.erase(group);
  membership_event(group, component_of(machine_of(process)),
                   BatchEventKind::kLeave);
}

void SpreadNetwork::disconnect(ProcessId process) {
  proc(process).connected = false;
  for (auto& [group, members] : group_registry_) {
    auto it = std::lower_bound(members.begin(), members.end(), process);
    if (it != members.end() && *it == process) {
      members.erase(it);
      membership_event(group, component_of(machine_of(process)),
                       BatchEventKind::kLeave);
    }
  }
}

int SpreadNetwork::component_of(MachineId m) const {
  return daemons_.at(static_cast<std::size_t>(m)).component;
}

MachineId SpreadNetwork::coordinator(int component_index) const {
  return components_.at(static_cast<std::size_t>(component_index)).ring.front();
}

std::vector<ProcessId> SpreadNetwork::component_members(const std::string& group,
                                                        int component_index) const {
  std::vector<ProcessId> out;
  auto it = group_registry_.find(group);
  if (it == group_registry_.end()) return out;
  for (ProcessId p : it->second)
    if (component_of(machine_of(p)) == component_index) out.push_back(p);
  return out;
}

double SpreadNetwork::cycle_ms(const Component& comp) const {
  double total = 0;
  const std::size_t n = comp.ring.size();
  for (std::size_t i = 0; i < n; ++i) {
    MachineId a = comp.ring[i];
    MachineId b = comp.ring[(i + 1) % n];
    total += kHopProcessMs + topo_.latency(a, b);
  }
  return total;
}

double SpreadNetwork::token_cycle_ms(MachineId machine) const {
  return cycle_ms(components_.at(static_cast<std::size_t>(component_of(machine))));
}

void SpreadNetwork::refresh_group(const std::string& group, ProcessId requester) {
  const auto& members = group_registry_[group];
  SGK_CHECK(std::binary_search(members.begin(), members.end(), requester));
  membership_event(group, component_of(machine_of(requester)),
                   BatchEventKind::kRefresh);
}

void SpreadNetwork::membership_event(const std::string& group,
                                     int component_index, BatchEventKind kind) {
  if (batcher_ != nullptr) {
    batcher_->note_event(group, kind);
    return;
  }
  request_view_update(group, component_index,
                      /*force=*/kind == BatchEventKind::kRefresh);
}

void SpreadNetwork::request_view_update(const std::string& group,
                                        int component_index, bool force) {
  // Model of the membership protocol: after a preparation phase (gather +
  // consensus rounds among daemons) the coordinator injects a view-install
  // message into the agreed stream; stamping adds the remaining ~half cycle.
  Component& comp = components_.at(static_cast<std::size_t>(component_index));
  const double prep =
      kMembershipBaseMs + (kMembershipRounds - 0.5) * cycle_ms(comp);
  const MachineId coord = coordinator(component_index);
  Payload payload;
  payload.kind = Payload::kView;
  payload.group = group;
  payload.force = force;
  sim_.after(prep, [this, coord, payload]() { enqueue(coord, payload); });
}

// ---------------------------------------------------------------------------
// data plane

void SpreadNetwork::multicast(const std::string& group, ProcessId sender,
                              Bytes payload) {
  Payload p;
  p.kind = Payload::kData;
  p.group = group;
  p.sender = sender;
  p.data = std::move(payload);
  enqueue(machine_of(sender), std::move(p));
}

void SpreadNetwork::ordered_send(const std::string& group, ProcessId sender,
                                 ProcessId dest, Bytes payload) {
  Payload p;
  p.kind = Payload::kData;
  p.group = group;
  p.sender = sender;
  p.dest = dest;
  p.data = std::move(payload);
  enqueue(machine_of(sender), std::move(p));
}

void SpreadNetwork::unicast(const std::string& group, ProcessId sender,
                            ProcessId dest, Bytes payload) {
  const MachineId src_m = machine_of(sender);
  const MachineId dst_m = machine_of(dest);
  if (component_of(src_m) != component_of(dst_m)) return;  // partitioned away
  if (proc(dest).client == nullptr || !proc(dest).connected)
    return;
  double delay = topo_.latency(src_m, dst_m) + kDeliverMs;
  if (fault_hook_ != nullptr)
    delay += fault_hook_->on_unicast(sender, dest).extra_delay_ms;
  std::string g = group;
  Bytes data = std::move(payload);
  if (fault_hook_ != nullptr) {
    // Direct unicasts bypass the token ring, so they draw mutation units
    // from a disjoint space (top bit set) counted in issue order — which is
    // deterministic for a given seed and scenario.
    const fault::MutationKind mut =
        fault_hook_->on_frame(data, (1ULL << 63) | unicast_mutation_units_++);
    if (mut != fault::MutationKind::kNone) {
      if (obs::MetricsRegistry* mr = obs::metrics())
        mr->counter(std::string("gcs/frames_mutated/") + fault::to_string(mut))
            .add();
    }
  }
  // Resolve the client at delivery time: it may detach before the message
  // lands (a member that left and was destroyed).
  sim_.after(delay, [this, dest, g, sender, data]() {
    GroupClient* client = proc(dest).client;
    if (client != nullptr && proc(dest).connected)
      client->on_message(g, sender, data);
  });
}

// ---------------------------------------------------------------------------
// token ring

void SpreadNetwork::enqueue(MachineId daemon, Payload payload) {
  Daemon& d = daemons_.at(static_cast<std::size_t>(daemon));
  d.outbox.push_back(std::move(payload));
  wake_token(d.component);
}

void SpreadNetwork::wake_token(int component_index) {
  Component& comp = components_.at(static_cast<std::size_t>(component_index));
  if (!comp.token_parked) return;
  comp.token_parked = false;
  comp.idle_hops = 0;
  // The parked daemon holds the token; it may stamp immediately.
  schedule_token_arrival(component_index, comp.epoch, comp.token_pos, sim_.now());
}

void SpreadNetwork::schedule_token_arrival(int component_index, std::uint64_t epoch,
                                           int pos, SimTime time) {
  sim_.at(time, [this, component_index, epoch, pos]() {
    token_arrive(component_index, epoch, pos);
  });
}

void SpreadNetwork::token_arrive(int component_index, std::uint64_t epoch, int pos) {
  // A membership change may have rebuilt (or removed) the component between
  // scheduling and arrival; a token from a dead ring generation is dropped.
  if (static_cast<std::size_t>(component_index) >= components_.size()) return;
  Component& comp = components_.at(static_cast<std::size_t>(component_index));
  if (comp.epoch != epoch) return;  // ring was rebuilt; this token is dead
  comp.token_pos = pos;
  const MachineId machine = comp.ring.at(static_cast<std::size_t>(pos));
  Daemon& daemon = daemons_.at(static_cast<std::size_t>(machine));

  // Stamp everything queued at this daemon.
  std::vector<Payload> queue;
  queue.swap(daemon.outbox);
  std::size_t stamped_count = 0;
  SimTime depart = sim_.now() + kHopProcessMs;
  for (Payload& payload : queue) {
    if (payload.kind == Payload::kView) {
      const std::vector<ProcessId> members =
          component_members(payload.group, component_index);
      auto& seeds = comp.side_seeds[payload.group];
      // Deduplicate: the membership already matches the last stamped view.
      auto stamped_it = comp.last_stamped.find(payload.group);
      if (!payload.force && stamped_it != comp.last_stamped.end() &&
          stamped_it->second == members)
        continue;
      comp.last_stamped[payload.group] = members;
      if (members.empty()) {
        seeds.assign(1, {});
        continue;  // nobody left to deliver to
      }
      payload.view.view_id = next_view_id_++;
      payload.view.members = members;
      // Sides: previous co-viewed sets, filtered to current members, plus a
      // singleton side for every member not covered (fresh joiners).
      payload.sides.clear();
      std::vector<ProcessId> covered;
      for (const auto& seed : seeds) {
        std::vector<ProcessId> side = intersect(seed, members);
        if (!side.empty()) {
          covered.insert(covered.end(), side.begin(), side.end());
          payload.sides.push_back(std::move(side));
        }
      }
      std::sort(covered.begin(), covered.end());
      for (ProcessId p : members)
        if (!std::binary_search(covered.begin(), covered.end(), p))
          payload.sides.push_back({p});
      seeds.assign(1, members);
    }
    if (payload.kind == Payload::kData && wire_tap_)
      wire_tap_(payload.group, payload.sender, payload.data);
    if (payload.kind == Payload::kData && fault_hook_ != nullptr) {
      // Adversarial wire mutation, applied once at stamp time so every
      // receiver — the sender's own loopback included — sees the same
      // (possibly corrupted) bytes. Keyed on the stamp sequence number,
      // which is deterministic for a given seed and scenario.
      const fault::MutationKind mut =
          fault_hook_->on_frame(payload.data, comp.next_seq);
      if (mut != fault::MutationKind::kNone) {
        if (obs::MetricsRegistry* mr = obs::metrics())
          mr->counter(std::string("gcs/frames_mutated/") + fault::to_string(mut))
              .add();
      }
    }
    Stamped stamped{comp.next_seq++, machine, std::move(payload)};
    comp.log.push_back(stamped);
    ++messages_stamped_;
    ++stamped_count;
    depart += kStampMs;
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->counter("gcs/messages_stamped").add();
    SGK_TRACE(if (tr->event_active()) {
      obs::SpanId mark = tr->instant(
          stamped.payload.kind == Payload::kView ? "stamp_view" : "stamp_data",
          depart, static_cast<std::uint32_t>(machine + 1));
      if (stamped.payload.kind == Payload::kData)
        tr->attr(mark, "bytes",
                 obs::Json(static_cast<std::uint64_t>(stamped.payload.data.size())));
    });
    transmit(comp, machine, std::move(stamped), depart);
  }

  // The token circulates continuously while the component is active (this
  // is what makes every protocol round pay an average of half a token cycle,
  // as in the real system); it parks only after two fully idle cycles so
  // the simulation quiesces.
  if (stamped_count == 0) {
    ++comp.idle_hops;
  } else {
    comp.idle_hops = 0;
  }
  bool queued_somewhere = false;
  for (MachineId m : comp.ring)
    if (!daemons_.at(static_cast<std::size_t>(m)).outbox.empty()) {
      queued_somewhere = true;
      break;
    }
  if (!queued_somewhere &&
      comp.idle_hops >= 2 * static_cast<int>(comp.ring.size())) {
    comp.token_parked = true;
    return;
  }
  const int next_pos = (pos + 1) % static_cast<int>(comp.ring.size());
  const MachineId next_machine = comp.ring.at(static_cast<std::size_t>(next_pos));
  schedule_token_arrival(component_index, epoch,
                         next_pos, depart + topo_.latency(machine, next_machine));
}

void SpreadNetwork::transmit(const Component& comp, MachineId origin,
                             Stamped stamped, SimTime depart) {
  const std::uint64_t epoch = comp.epoch;
  for (MachineId dest : comp.ring) {
    SimTime arrive = depart + topo_.latency(origin, dest);
    int copies = 1;
    if (fault_hook_ != nullptr) {
      const fault::WireFault f =
          fault_hook_->on_daemon_copy(origin, dest, stamped.seq);
      arrive += f.extra_delay_ms;
      copies = f.copies;
      if (obs::MetricsRegistry* mr = obs::metrics()) {
        if (f.extra_delay_ms > 0) mr->counter("gcs/fault_copies_delayed").add();
        if (f.copies > 1) mr->counter("gcs/fault_copies_duplicated").add();
      }
    }
    for (int c = 0; c < copies; ++c) {
      // Duplicate copies trail the original slightly; daemon_receive dedups
      // by sequence number, so extras only cost receive-side work.
      Stamped copy = stamped;
      sim_.at(arrive + 0.25 * c,
              [this, dest, epoch, copy = std::move(copy)]() {
                daemon_receive(dest, epoch, copy);
              });
    }
  }
}

void SpreadNetwork::daemon_receive(MachineId machine, std::uint64_t epoch,
                                   Stamped stamped) {
  Daemon& daemon = daemons_.at(static_cast<std::size_t>(machine));
  if (daemon.epoch != epoch) return;  // stale component
  if (stamped.seq < daemon.expected_seq) {
    // Already delivered: a duplicated wire copy (fault injection). Sequence
    // dedup here is what makes daemon-level duplication safe to inject.
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->counter("gcs/duplicates_discarded").add();
    return;
  }
  daemon.pending.emplace(stamped.seq, std::move(stamped));
  // Deliver in sequence order.
  while (!daemon.pending.empty() &&
         daemon.pending.begin()->first == daemon.expected_seq) {
    Stamped next = std::move(daemon.pending.begin()->second);
    daemon.pending.erase(daemon.pending.begin());
    ++daemon.expected_seq;
    daemon_deliver(daemon, next);
  }
}

void SpreadNetwork::daemon_deliver(Daemon& daemon, const Stamped& stamped) {
  if (stamped.payload.kind == Payload::kView) {
    deliver_view(daemon, stamped.payload);
  } else {
    deliver_data(daemon, stamped.payload);
  }
}

void SpreadNetwork::deliver_view(Daemon& daemon, const Payload& payload) {
  const View& view = payload.view;
  daemon.delivered_view[payload.group] = view;
  if (obs::MetricsRegistry* mr = obs::metrics())
    mr->counter("gcs/views_installed").add();
  SGK_TRACE(if (tr->event_active()) {
    obs::SpanId mark =
        tr->instant("view_install", sim_.now() + kDeliverMs,
                    static_cast<std::uint32_t>(daemon.machine + 1));
    tr->attr(mark, "members",
             obs::Json(static_cast<std::uint64_t>(view.members.size())));
  });
  for (ProcessId p : view.members) {
    if (machine_of(p) != daemon.machine) continue;
    ProcessInfo& info = proc(p);
    if (info.client == nullptr || !info.connected) continue;
    View prev;
    bool first = true;
    auto it = info.last_view.find(payload.group);
    if (it != info.last_view.end()) {
      prev = it->second;
      first = false;
    }
    ViewDelta delta = view_delta(prev, view, first);
    delta.sides = payload.sides;
    info.last_view[payload.group] = view;
    std::string group = payload.group;
    View v = view;
    sim_.after(kDeliverMs, [this, p, group, v, delta]() {
      GroupClient* client = proc(p).client;
      if (client != nullptr && proc(p).connected)
        client->on_view(group, v, delta);
    });
  }
}

void SpreadNetwork::deliver_data(Daemon& daemon, const Payload& payload) {
  auto vit = daemon.delivered_view.find(payload.group);
  if (vit == daemon.delivered_view.end()) return;  // no members here yet
  const View& view = vit->second;
  for (ProcessId p : view.members) {
    if (machine_of(p) != daemon.machine) continue;
    if (payload.dest != kNoProcess && payload.dest != p) continue;
    ProcessInfo& info = proc(p);
    if (info.client == nullptr || !info.connected) continue;
    std::string group = payload.group;
    ProcessId sender = payload.sender;
    Bytes data = payload.data;
    sim_.after(kDeliverMs, [this, p, group, sender, data]() {
      GroupClient* client = proc(p).client;
      if (client != nullptr && proc(p).connected)
        client->on_message(group, sender, data);
    });
  }
}

// ---------------------------------------------------------------------------
// partitions

void SpreadNetwork::partition(const std::vector<std::vector<MachineId>>& components) {
  partition_impl(components, /*is_merge=*/false);
}

void SpreadNetwork::partition_impl(
    const std::vector<std::vector<MachineId>>& components, bool is_merge) {
  // Validate loudly: every machine in exactly one component. A malformed
  // split is a driver bug; each message names the offending machine so a
  // failing chaos seed is diagnosable from the exception text alone.
  std::vector<int> assignment(topo_.machine_count(), -1);
  for (std::size_t c = 0; c < components.size(); ++c) {
    if (components[c].empty())
      throw CheckFailure("partition: component " + std::to_string(c) +
                         " is empty");
    for (MachineId m : components[c]) {
      if (m < 0 || static_cast<std::size_t>(m) >= topo_.machine_count())
        throw CheckFailure("partition: unknown machine " + std::to_string(m) +
                           " in component " + std::to_string(c));
      if (assignment[static_cast<std::size_t>(m)] != -1)
        throw CheckFailure(
            "partition: machine " + std::to_string(m) +
            " listed twice (components " +
            std::to_string(assignment[static_cast<std::size_t>(m)]) + " and " +
            std::to_string(c) + ")");
      assignment[static_cast<std::size_t>(m)] = static_cast<int>(c);
    }
  }
  for (std::size_t m = 0; m < assignment.size(); ++m)
    if (assignment[m] == -1)
      throw CheckFailure("partition: machine " + std::to_string(m) +
                         " missing from every component");

  // Retransmission round of the membership protocol: before the old rings
  // dissolve, catch every daemon up to its component's full stamped prefix.
  // Daemons entering the same new view must have delivered identical message
  // sequences — otherwise fault-delayed copies (still in flight or parked in
  // a pending buffer with holes) would leave the secure layer's members with
  // divergent protocol state, and the post-view agreement could never
  // converge.
  for (Daemon& d : daemons_) {
    const Component& oc = components_.at(static_cast<std::size_t>(d.component));
    while (d.expected_seq < oc.log.size()) {
      const Stamped& missed = oc.log.at(static_cast<std::size_t>(d.expected_seq));
      ++d.expected_seq;
      daemon_deliver(d, missed);
    }
    d.pending.clear();
  }

  std::vector<Component> old_components = std::move(components_);
  components_.clear();
  std::uint64_t epoch_base = 0;
  for (const Component& oc : old_components)
    epoch_base = std::max(epoch_base, oc.epoch);

  for (std::size_t c = 0; c < components.size(); ++c) {
    Component comp;
    comp.epoch = epoch_base + 1 + c;
    comp.ring = components[c];
    std::sort(comp.ring.begin(), comp.ring.end());
    // Seed the sides for upcoming merge views: one side per old component
    // that contributed machines, preserving each side's last stamped view.
    std::vector<int> old_indices;
    for (MachineId m : comp.ring) {
      int old_idx = daemons_.at(static_cast<std::size_t>(m)).component;
      if (std::find(old_indices.begin(), old_indices.end(), old_idx) ==
          old_indices.end())
        old_indices.push_back(old_idx);
    }
    // Inherit the duplicate-suppression state from the coordinator's old
    // component: its last stamped views are what this component's surviving
    // members have installed.
    {
      int coord_old = daemons_.at(static_cast<std::size_t>(comp.ring.front())).component;
      comp.last_stamped =
          old_components.at(static_cast<std::size_t>(coord_old)).last_stamped;
    }
    for (int old_idx : old_indices) {
      const Component& oc = old_components.at(static_cast<std::size_t>(old_idx));
      for (const auto& [group, seeds] : oc.side_seeds) {
        for (const auto& seed : seeds) {
          // Keep only processes now living in this new component.
          std::vector<ProcessId> side;
          for (ProcessId p : seed)
            if (assignment[static_cast<std::size_t>(machine_of(p))] ==
                static_cast<int>(c))
              side.push_back(p);
          if (!side.empty()) comp.side_seeds[group].push_back(std::move(side));
        }
      }
    }
    components_.push_back(std::move(comp));
  }

  for (std::size_t m = 0; m < daemons_.size(); ++m) {
    Daemon& d = daemons_[m];
    d.component = assignment[m];
    d.epoch = components_.at(static_cast<std::size_t>(d.component)).epoch;
    d.expected_seq = 0;
    d.pending.clear();
    // Unstamped data survives into the new component; stale view requests
    // do not (each new component installs its own views below).
    std::erase_if(d.outbox, [](const Payload& p) { return p.kind == Payload::kView; });
  }

  // Install new views for every group in every component. With batching on,
  // one kPartition/kMerge event per group is enough — the flush requests
  // views for all components at flush time (the topology change itself took
  // effect above; only the rekey is coalesced).
  if (batcher_ != nullptr) {
    for (const auto& [group, members] : group_registry_) {
      (void)members;
      batcher_->note_event(group, is_merge ? BatchEventKind::kMerge
                                           : BatchEventKind::kPartition);
    }
  } else {
    for (std::size_t c = 0; c < components_.size(); ++c)
      for (const auto& [group, members] : group_registry_) {
        (void)members;
        request_view_update(group, static_cast<int>(c));
      }
  }

  // Wake tokens for components with queued data.
  for (std::size_t c = 0; c < components_.size(); ++c)
    for (MachineId m : components_[c].ring)
      if (!daemons_.at(static_cast<std::size_t>(m)).outbox.empty()) {
        wake_token(static_cast<int>(c));
        break;
      }
}

void SpreadNetwork::heal() {
  std::vector<MachineId> all;
  for (std::size_t m = 0; m < topo_.machine_count(); ++m)
    all.push_back(static_cast<MachineId>(m));
  partition_impl({all}, /*is_merge=*/true);
}

std::optional<View> SpreadNetwork::current_view(const std::string& group,
                                                ProcessId process) const {
  const auto& info = proc(process);
  auto it = info.last_view.find(group);
  if (it == info.last_view.end()) return std::nullopt;
  return it->second;
}

}  // namespace sgk
