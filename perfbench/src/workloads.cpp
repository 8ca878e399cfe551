#include "workloads.h"

#include <map>
#include <stdexcept>

#include "crypto/dh.h"
#include "crypto/rsa.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "speed.h"
#include "tracer.h"

namespace perfbench {

namespace {

std::vector<EpochWall>& epoch_walls() {
  static std::vector<EpochWall> walls;
  return walls;
}

/// splitmix64 finalizer: independent per-(seed, rep, slot) streams.
std::uint64_t derive(std::uint64_t seed, std::uint64_t rep, std::uint64_t slot) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + rep * 0xbf58476d1ce4e5b9ULL +
                    slot * 0x94d049bb133111ebULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The statics every workload's first call would otherwise build inside
/// the timed phase: both DH groups (with their Montgomery contexts and the
/// generator-order check) and the four RSA test keys.
void touch_library_statics() {
  (void)sgk::dh_group(sgk::DhBits::k512);
  (void)sgk::dh_group(sgk::DhBits::k1024);
  for (int i = 0; i < 4; ++i) (void)sgk::RsaPrivateKey::test_key(i);
}

template <typename T>
std::uint64_t hash_value(std::uint64_t h, const T& v) {
  return fnv1a(&v, sizeof v, h);
}

std::uint64_t hash_event(std::uint64_t h, int kind, const sgk::EventResult& r) {
  h = hash_value(h, kind);
  h = hash_value(h, r.elapsed_ms);
  h = hash_value(h, r.membership_ms);
  h = hash_value(h, static_cast<std::uint64_t>(r.group_size));
  for (const sgk::OpCounters* c : {&r.total, &r.max_member}) {
    for (std::uint64_t v :
         {c->exp_full, c->exp_small, c->mod_inverse, c->mod_mul, c->sign_ops,
          c->verify_ops, c->hash_ops, c->drbg_bytes, c->multicasts,
          c->unicasts, c->ordered_sends, c->bytes_sent}) {
      h = hash_value(h, v);
    }
  }
  return h;
}

/// Number of keyed components after an event, or 0 when some member has no
/// key, holds a key older than the event, or differs from a member of its
/// own view.
std::size_t keyed_components(sgk::Experiment& ex, double t0) {
  std::map<std::uint64_t, const sgk::SecureBytes*> key_of_view;
  for (const sgk::SecureGroupMember* m : ex.members()) {
    if (!m->has_key() || m->view() == nullptr || m->key_time() < t0) return 0;
    auto [it, fresh] = key_of_view.emplace(m->view()->view_id, &m->key());
    if (!fresh && !sgk::ct_equal(*it->second, m->key())) return 0;
  }
  return key_of_view.size();
}

// ---- one group --------------------------------------------------------------

struct SweepParams {
  std::vector<sgk::ProtocolKind> protocols;
  sgk::DhBits dh_bits = sgk::DhBits::k512;
  int machines = 13;
  std::size_t min_size = 2;
  std::size_t max_size = 32;
  bool partition = false;  // one two-way partition and merge at max size
  Probe probe = Probe::kMontgomery;
};

/// Figure 11/12 sweeps: for each protocol, joins from min to max size, an
/// optional partition + merge, then leaves back down to min size. STR
/// loses its middle member, the others a random one (the paper's §6.1.2).
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(SweepParams p, std::uint64_t seed)
      : p_(std::move(p)), seed_(seed) {}

  void setup() override {
    touch_library_statics();
    first_ = prepare(0, 0);
  }

  Probe probe() const override { return p_.probe; }

  RepOutcome run_rep(int rep, bool) override {
    RepOutcome out;
    std::uint64_t h = fnv1a(nullptr, 0);
    for (std::size_t pi = 0; pi < p_.protocols.size(); ++pi) {
      std::unique_ptr<sgk::Experiment> ex =
          rep == 0 && pi == 0 && first_ ? std::move(first_) : prepare(rep, pi);
      const sgk::LeavePolicy leave = p_.protocols[pi] == sgk::ProtocolKind::kStr
                                         ? sgk::LeavePolicy::kMiddle
                                         : sgk::LeavePolicy::kRandom;
      while (ex->group_size() < p_.max_size) {
        h = event(out, *ex, h, 0, 1, [&] { return ex->measure_join(); });
      }
      if (p_.partition) {
        const int half = p_.machines / 2 + p_.machines % 2;
        std::vector<std::vector<sgk::MachineId>> parts(2);
        for (int m = 0; m < p_.machines; ++m) parts[m < half ? 0 : 1].push_back(m);
        h = event(out, *ex, h, 2, 2,
                  [&] { return ex->measure_partition(parts); });
        h = event(out, *ex, h, 3, 1, [&] { return ex->measure_merge(); });
      }
      while (ex->group_size() > p_.min_size) {
        h = event(out, *ex, h, 1, 1, [&] { return ex->measure_leave(leave); });
      }
      for (const sgk::SecureGroupMember* m : ex->members())
        out.recoveries += static_cast<double>(m->recoveries());
    }
    out.digest = h;
    return out;
  }

 private:
  std::unique_ptr<sgk::Experiment> prepare(int rep, std::size_t pi) const {
    sgk::ExperimentConfig cfg;
    cfg.topology = sgk::lan_testbed(p_.machines);
    cfg.protocol = p_.protocols[pi];
    cfg.dh_bits = p_.dh_bits;
    cfg.seed = derive(seed_, static_cast<std::uint64_t>(rep), pi);
    auto ex = std::make_unique<sgk::Experiment>(cfg);
    ex->grow_to(p_.min_size);
    return ex;
  }

  /// Times one measured call, checks every member keyed alike within its
  /// component, and folds the virtual outputs into the digest.
  template <typename Call>
  std::uint64_t event(RepOutcome& out, sgk::Experiment& ex, std::uint64_t h,
                      int kind, std::size_t components, Call call) {
    const double t0_virtual = ex.simulator().now();
    probe_if_due();
    const std::uint64_t t0 = now_ns();
    const sgk::EventResult r = call();
    const double raw_ms = static_cast<double>(now_ns() - t0) / 1e6;
    const double scaled_ms = raw_ms * speed_factor();
    out.step_ms.push_back(scaled_ms);
    out.raw_wall_s += raw_ms / 1e3;
    out.wall_s += scaled_ms / 1e3;
    ++out.attempted;
    ++out.events;
    const std::size_t keyed = keyed_components(ex, t0_virtual);
    if (keyed != components) ++out.failed;
    out.rekeys += static_cast<double>(keyed);
    return hash_event(h, kind, r);
  }

  SweepParams p_;
  std::uint64_t seed_;
  std::unique_ptr<sgk::Experiment> first_;
};

// ---- many groups ------------------------------------------------------------

class ServerWorkload final : public Workload {
 public:
  ServerWorkload(sgk::server::ServerConfig cfg, std::uint64_t seed)
      : cfg_(std::move(cfg)), seed_(seed) {}

  void setup() override {
    touch_library_statics();
    first_ = std::make_unique<sgk::server::GroupServer>(config(0));
  }

  int threads() const override { return cfg_.threads; }

  RepOutcome run_rep(int rep, bool collect_counts) override {
    std::unique_ptr<sgk::server::GroupServer> server =
        rep == 0 && first_
            ? std::move(first_)
            : std::make_unique<sgk::server::GroupServer>(config(rep));
    take_epoch_walls();
    sgk::obs::MetricsRegistry registry;

    // Every run starts new shard threads: probe them before the first epoch.
    expire_probe();
    const std::uint64_t probes0 = probe_ns_total();
    RepOutcome out;
    sgk::server::ServerResult result;
    {
      // GroupServer::run folds the groups' own counters into the ambient
      // registry, if there is one.
      const sgk::obs::ScopedMetrics scope(collect_counts ? &registry
                                                         : sgk::obs::metrics());
      const std::uint64_t t0 = now_ns();
      result = server->run();
      const std::uint64_t probes = probe_ns_total() - probes0;
      out.raw_wall_s = static_cast<double>(now_ns() - t0 - probes) / 1e9;
    }

    // Epochs are rescaled one by one; the rest of run() (aggregation and
    // the scans between epochs) runs on this thread, by its own factor.
    double raw_epochs_s = 0;
    for (const EpochWall& e : take_epoch_walls()) {
      out.step_ms.push_back(e.scaled_ms);
      raw_epochs_s += e.raw_ms / 1e3;
      out.wall_s += e.scaled_ms / 1e3;
    }
    out.wall_s += (out.raw_wall_s - raw_epochs_s) * speed_factor();
    out.attempted = result.groups_hosted;
    out.failed = result.groups_hosted - result.groups_converged;
    out.events = result.events_applied;
    out.canonical = result.to_json().dump();
    out.digest = fnv1a(out.canonical.data(), out.canonical.size());
    out.rekeys = static_cast<double>(result.rekeys);
    out.batch_coalesced = static_cast<double>(result.batch_coalesced);
    out.batch_shed = static_cast<double>(result.batch_shed);
    for (const auto& g : result.groups)
      out.recoveries += static_cast<double>(g.recoveries);
    for (const char* name :
         {"gcs/fault_copies_delayed", "gcs/fault_copies_duplicated"}) {
      const auto it = registry.counters().find(name);
      if (it != registry.counters().end())
        out.fault_verdicts += static_cast<double>(it->second.value());
    }
    return out;
  }

 private:
  sgk::server::ServerConfig config(int rep) const {
    sgk::server::ServerConfig cfg = cfg_;
    cfg.seed = derive(seed_, static_cast<std::uint64_t>(rep), 0);
    return cfg;
  }

  sgk::server::ServerConfig cfg_;
  std::uint64_t seed_;
  std::unique_ptr<sgk::server::GroupServer> first_;
};

// ---- the four workloads -----------------------------------------------------

// Every group stays registered for the 5 s recovery watchdog after its last
// view, so epochs after the last arrival are nearly idle. Arrivals 100 ms
// apart keep groups arriving for most of a run, so most epochs carry work.
constexpr double kOnboardGapMs = 100.0;

std::unique_ptr<Workload> sweep_1024(std::uint64_t seed, Scale s) {
  SweepParams p;
  p.protocols = {sgk::ProtocolKind::kGdh, sgk::ProtocolKind::kCkd,
                 sgk::ProtocolKind::kTgdh, sgk::ProtocolKind::kStr,
                 sgk::ProtocolKind::kBd};
  p.dh_bits = sgk::DhBits::k1024;
  p.machines = s.smoke ? 4 : 13;
  p.max_size = s.smoke ? 4 : 32;
  p.partition = true;
  return std::make_unique<SweepWorkload>(std::move(p), seed);
}

std::unique_ptr<Workload> membership_only(std::uint64_t seed, Scale s) {
  SweepParams p;
  p.protocols = {sgk::ProtocolKind::kNone};
  p.max_size = s.smoke ? 6 : 50;
  // Three quarters of its traced self time is key-derivation hashing.
  p.probe = Probe::kSha256;
  return std::make_unique<SweepWorkload>(std::move(p), seed);
}

std::unique_ptr<Workload> server_mix(std::uint64_t seed, Scale s) {
  sgk::server::ServerConfig cfg;
  cfg.groups = s.smoke ? 5 : 128;
  cfg.members_per_group = s.smoke ? 3 : 8;
  cfg.churn_events = s.smoke ? 2 : 8;
  cfg.threads = s.threads;
  cfg.dh_bits = sgk::DhBits::k512;
  cfg.onboard_gap_ms = kOnboardGapMs;
  return std::make_unique<ServerWorkload>(std::move(cfg), seed);
}

std::unique_ptr<Workload> storm_faulty(std::uint64_t seed, Scale s) {
  // bench/churn_storm's batched settings, plus 5% uniform wire faults.
  sgk::server::ServerConfig cfg;
  cfg.groups = s.smoke ? 5 : 96;
  cfg.members_per_group = s.smoke ? 3 : 5;
  cfg.onboard_gap_ms = kOnboardGapMs;
  cfg.churn_events = s.smoke ? 6 : 24;
  cfg.threads = s.threads;
  cfg.storm = sgk::server::StormKind::kBursty;
  cfg.burst_size = s.smoke ? 3 : 6;
  cfg.batch.enabled = true;
  cfg.batch.min_window_ms = 4.0;
  cfg.batch.max_window_ms = 256.0;
  cfg.batch.latency_budget_ms = 3000.0;
  cfg.rates = sgk::fault::FaultRates::uniform(0.05);
  return std::make_unique<ServerWorkload>(std::move(cfg), seed);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep_1024", "server_mix", "storm_faulty", "membership_only"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale) {
  if (name == "sweep_1024") return sweep_1024(seed, scale);
  if (name == "server_mix") return server_mix(seed, scale);
  if (name == "storm_faulty") return storm_faulty(seed, scale);
  if (name == "membership_only") return membership_only(seed, scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void RunTotals::add(const RepOutcome& o) {
  attempted += o.attempted;
  failed += o.failed;
  events += o.events;
  rekeys += o.rekeys;
  coalesced += o.batch_coalesced;
  shed += o.batch_shed;
  recoveries += o.recoveries;
  verdicts += o.fault_verdicts;
}

std::map<std::string, double> per_layer_metrics(const Buffer& traced,
                                                const Buffer& setup,
                                                const TraceWindow& window,
                                                const RunTotals& counts) {
  std::map<std::string, double> m = layer_metrics(traced, window);
  const double events =
      counts.events > 0 ? static_cast<double>(counts.events) : 1.0;
  m["gcs.rekeys_per_event"] = counts.rekeys / events;
  m["gcs.batch_coalesced"] = counts.coalesced / events;
  m["gcs.batch_shed"] = counts.shed / events;
  m["gcs.recoveries"] = counts.recoveries / events;
  m["fault.verdicts_per_event"] = counts.verdicts / events;
  m["trace.wall_s"] = window.wall_ns / 1e9;
  auto calls = [&](Site s) {
    return static_cast<double>(setup.sites[static_cast<std::size_t>(s)].calls);
  };
  m["setup.ctx_builds"] = calls(Site::kMontCtx);
  m["setup.exp_calls"] = calls(Site::kExp512Full) + calls(Site::kExp512Small) +
                         calls(Site::kExp1024Full) + calls(Site::kExp1024Small);
  return m;
}

void record_epoch_wall(EpochWall wall) { epoch_walls().push_back(wall); }

std::vector<EpochWall> take_epoch_walls() {
  std::vector<EpochWall> out;
  out.swap(epoch_walls());
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
