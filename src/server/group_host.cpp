#include "server/group_host.h"

#include <algorithm>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "util/check.h"

namespace sgk::server {
namespace {

// First churn op fires this long after onboarding begins (the chaos
// harness's tested regime: late enough for the initial join burst to be in
// flight, short enough that ops still land inside agreements).
constexpr double kChurnStartMs = 50.0;
constexpr double kMinGapMs = 5.0;  // kUniform: churn inter-op gap bounds
constexpr double kMaxGapMs = 40.0;
constexpr double kIntraGapMs = 1.0;   // kBursty: gap inside a burst
constexpr double kIdleGapMs = 400.0;  // kBursty: quiet stretch between bursts
constexpr double kGraceMs = 30000.0;  // liveness bound past the last churn op

// The group's seeded churn plan, derived purely from its spec.
fault::FaultPlan build_group_plan(const GroupSpec& spec) {
  fault::FaultPlan plan(spec.seed, spec.rates);
  if (!spec.script.empty()) {
    for (const fault::ChurnOp& op : spec.script)
      plan.script(spec.onboard_at_ms + op.at_ms, op.kind, op.arg);
    return plan;
  }
  // Churn starts kChurnStartMs after onboarding so the first op routinely
  // lands inside an in-flight agreement — the cascaded regime, per group.
  const double start = spec.onboard_at_ms + kChurnStartMs;
  switch (spec.storm) {
    case StormKind::kUniform:
      plan.randomize(spec.churn_events, start, kMinGapMs, kMaxGapMs);
      break;
    case StormKind::kBursty: {
      // churn_events stays the total event budget across storm shapes, so
      // the batched/unbatched comparison holds workload size constant.
      const int size = std::max(1, spec.burst_size);
      const int bursts = std::max(1, spec.churn_events / size);
      plan.bursty_storm(bursts, size, start, kIntraGapMs, kIdleGapMs);
      break;
    }
  }
  return plan;
}

// Scheduled time of the plan's last churn op (onboarding when it has none).
double plan_last_op_ms(const GroupSpec& spec, const fault::FaultPlan& plan) {
  const auto& ops = plan.ops();
  return ops.empty() ? spec.onboard_at_ms : ops.back().at_ms;
}

// Liveness bound over a built plan: last churn op + grace.
double plan_deadline_ms(const GroupSpec& spec, const fault::FaultPlan& plan) {
  return std::max(plan_last_op_ms(spec, plan), spec.onboard_at_ms) + kGraceMs;
}

}  // namespace

double group_deadline_ms(const GroupSpec& spec) {
  return plan_deadline_ms(spec, build_group_plan(spec));
}

GroupHost::GroupHost(const GroupSpec& spec, std::shared_ptr<Pki> pki,
                     ProcessId first_pid, const Topology& topology)
    : spec_(spec),
      first_pid_(first_pid),
      net_(sim_, topology,
           [&] {
             SpreadParams p;
             p.first_process_id = first_pid;
             p.batch = spec.batch;
             return p;
           }()),
      pki_(std::move(pki)),
      injector_(build_group_plan(spec)) {
  SGK_CHECK(spec_.initial_size >= 2);
  if (spec_.mutation_rate > 0.0) {
    fault::FrameMutator::Options opts;
    opts.rate = spec_.mutation_rate;
    // Without signatures only strict validation stands between a mutated
    // frame and the protocols, so restrict the menu to mutations it
    // provably catches — the host must not manufacture the very silent
    // divergence it exists to rule out.
    opts.detectable_only = !spec_.verify_signatures;
    opts.modulus_bytes = dh_group(spec_.dh_bits).p().to_bytes().size();
    mutator_.emplace(spec_.seed, opts);
    injector_.set_mutator(&*mutator_);
  }
  net_.set_fault_hook(&injector_);

  last_op_ms_ = plan_last_op_ms(spec_, injector_.plan());
  deadline_ms_ = plan_deadline_ms(spec_, injector_.plan());

  // Arm everything up front on this group's private simulator: onboarding at
  // the scheduled time, then the churn plan (absolute virtual times).
  sim_.at(spec_.onboard_at_ms, [this] {
    for (std::size_t i = 0; i < spec_.initial_size; ++i) spawn().join();
  });
  // The scheduler adapter is only used during arm(); all ops land on sim_.
  SimFaultScheduler sched(sim_);
  injector_.arm(sched, *this);
}

GroupHost::~GroupHost() = default;

void GroupHost::advance(SimTime until) {
  if (done()) return;
  // Every metric recorded while this group's events run lands in the
  // group's own registry, so worker threads never share a sink.
  obs::ScopedMetrics scoped(&metrics_);
  try {
    sim_.run_until(until);
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& e) {
    // Untrusted bytes must never throw past a member's handler. Record an
    // escape as a crash violation and settle the group instead of taking
    // the soak or the server worker down with it.
    checker_.flag_crash(e.what());
    crashed_ = true;
    forced_ = true;
  }
}

GroupReport GroupHost::finalize(SharedSpreadStats* shared) {
  SGK_CHECK(!finalized_);
  finalized_ = true;
  obs::ScopedMetrics scoped(&metrics_);

  GroupReport r;
  r.id = spec_.id;
  r.protocol = spec_.protocol;
  // After a crash the members may be half-built: probing them would only
  // pile timeout, wedge and convergence violations onto the crash.
  if (!crashed_) {
    if (forced_ && sim_.pending() > 0) {
      checker_.flag_timeout(spec_.name + " still active at deadline (last op " +
                            std::to_string(last_op_ms_) + "ms + grace " +
                            std::to_string(kGraceMs) + "ms)");
    }
    std::vector<fault::KeyProbe> probes;
    for (const auto& m : members_) {
      if (!m) continue;
      ++r.final_size;
      fault::KeyProbe p;
      p.member = m->id();
      p.component = net_.component_of_machine(net_.machine_of(m->id()));
      p.has_key = m->has_key();
      p.epoch = m->key_epoch();
      p.key = m->has_key() ? &m->key() : nullptr;
      probes.push_back(p);
      checker_.check_no_wedge(m->id(), m->agreement_in_flight());
      r.restarts += m->agreement_restarts();
      r.stale_dropped += m->stale_dropped();
      r.frames_rejected += m->frames_rejected();
      r.recoveries += m->recoveries();
      r.final_epoch = std::max(r.final_epoch, m->key_epoch());
      if (r.fingerprint.empty()) r.fingerprint = m->key_fingerprint();
    }
    checker_.check_convergence(probes);
    if (r.final_size < 2)
      checker_.flag_timeout("fewer than two members survived");
  }

  r.converged = checker_.ok() && r.final_size >= 2;
  r.violations = checker_.violations();
  r.rekeys = keyed_epochs_.size() <= 1 ? 0 : keyed_epochs_.size() - 1;
  r.onboard_ms =
      first_key_ms_ < 0.0 ? 0.0 : first_key_ms_ - spec_.onboard_at_ms;
  r.settled_ms = sim_.now();
  r.event_to_key_ms = event_to_key_ms_;
  r.convergence_ms = std::max(0.0, last_key_ms_ - last_op_ms_);
  r.events_applied = events_applied_;
  if (const RekeyBatcher* b = net_.batcher()) r.batch = b->stats(spec_.name);
  r.wire = injector_.stats();
  r.crashed = crashed_;

  metrics_.counter("server/groups_finalized").add();
  if (!r.converged) metrics_.counter("server/groups_failed").add();

  if (shared != nullptr) shared->absorb(net_);
  return r;
}

void GroupHost::apply(const fault::ChurnOp& op) {
  bool applied = true;
  switch (op.kind) {
    case fault::ChurnKind::kJoin:
      spawn().join();
      break;
    case fault::ChurnKind::kLeave: {
      auto live = alive();
      if (live.size() <= 2) {  // keep a group worth agreeing over
        applied = false;
        break;
      }
      SecureGroupMember* victim = live[op.arg % live.size()];
      victim->leave();
      members_.at(slot(victim->id())).reset();
      break;
    }
    case fault::ChurnKind::kCrash: {
      auto live = alive();
      if (live.size() <= 2) {
        applied = false;
        break;
      }
      SecureGroupMember* victim = live[op.arg % live.size()];
      net_.disconnect(victim->id());
      members_.at(slot(victim->id())).reset();
      break;
    }
    case fault::ChurnKind::kPartition: {
      const auto mc =
          static_cast<std::uint64_t>(net_.topology().machine_count());
      if (mc < 2) {
        applied = false;
        break;
      }
      const auto split = static_cast<MachineId>(1 + op.arg % (mc - 1));
      std::vector<MachineId> a, b;
      for (MachineId m = 0; m < static_cast<MachineId>(mc); ++m)
        (m < split ? a : b).push_back(m);
      net_.partition({a, b});
      break;
    }
    case fault::ChurnKind::kHeal:
      net_.heal();
      break;
    case fault::ChurnKind::kRekey: {
      auto live = alive();
      if (live.empty()) {
        applied = false;
        break;
      }
      live[op.arg % live.size()]->request_rekey();
      break;
    }
  }
  if (applied) ++events_applied_;
  if (obs::MetricsRegistry* mr = obs::metrics())
    mr->counter(std::string("server/op/") + fault::to_string(op.kind)).add();
}

SecureGroupMember& GroupHost::spawn() {
  const auto machine = static_cast<MachineId>(
      spawned_ % net_.topology().machine_count());
  ++spawned_;
  const ProcessId pid = net_.create_process(machine);
  MemberConfig cfg;
  cfg.group = spec_.name;
  cfg.protocol = spec_.protocol;
  cfg.dh_bits = spec_.dh_bits;
  cfg.seed = spec_.seed;
  cfg.verify_signatures = spec_.verify_signatures;
  cfg.recovery_watchdog_ms = spec_.recovery_watchdog_ms;
  auto member = std::make_unique<SecureGroupMember>(net_, pid, pki_, cfg);
  SecureGroupMember* mp = member.get();
  member->set_key_listener([this, mp, pid](SimTime t, std::uint64_t epoch) {
    checker_.observe_epoch(pid, epoch);
    if (first_key_ms_ < 0.0) first_key_ms_ = t;
    last_key_ms_ = std::max(last_key_ms_, t);
    // View install -> key established, the per-install agreement latency.
    const double latency = t - mp->view_time();
    event_to_key_ms_.push_back(latency);
    if (obs::MetricsRegistry* mr = obs::metrics())
      mr->histogram("server/event_to_key_ms").observe(latency);
    // Track distinct keyed epochs (mostly ascending; cascades can skip).
    if (keyed_epochs_.empty() || keyed_epochs_.back() < epoch) {
      keyed_epochs_.push_back(epoch);
      // Latency feedback for the rekey pipeline, once per fresh epoch: the
      // first member to key an epoch completes the oldest outstanding
      // flush's event-arrival -> key samples.
      if (RekeyBatcher* b = net_.batcher()) b->note_key_installed(spec_.name, t);
    } else if (!std::binary_search(keyed_epochs_.begin(), keyed_epochs_.end(),
                                   epoch)) {
      keyed_epochs_.insert(std::lower_bound(keyed_epochs_.begin(),
                                            keyed_epochs_.end(), epoch),
                           epoch);
    }
  });
  const std::size_t s = slot(pid);
  if (members_.size() <= s) members_.resize(s + 1);
  members_.at(s) = std::move(member);
  return *members_.at(s);
}

std::vector<SecureGroupMember*> GroupHost::alive() const {
  std::vector<SecureGroupMember*> out;
  for (const auto& m : members_)
    if (m) out.push_back(m.get());
  return out;
}

GroupReport run_group(const GroupSpec& spec) {
  GroupHost host(spec, std::make_shared<Pki>(), 0, lan_testbed());
  host.settle_at_deadline();
  GroupReport report = host.finalize(nullptr);
  if (obs::MetricsRegistry* mr = obs::metrics()) mr->merge_from(host.metrics());
  return report;
}

}  // namespace sgk::server
