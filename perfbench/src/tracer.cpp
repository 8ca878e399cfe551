#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

std::size_t idx(Site s) { return static_cast<std::size_t>(s); }

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBignum: return "bignum";
    case Layer::kCrypto: return "crypto";
    case Layer::kCore: return "core";
    case Layer::kGcs: return "gcs";
    case Layer::kServer: return "server";
    case Layer::kObs: return "obs";
    case Layer::kHarness: return "harness";
  }
  return "?";
}

Layer site_layer(Site site) {
  if (site <= Site::kDivmod) return Layer::kBignum;
  if (site <= Site::kDrbg) return Layer::kCrypto;
  if (site <= Site::kInverseQP) return Layer::kCore;
  if (site <= Site::kSend) return Layer::kGcs;
  if (site <= Site::kFinalize) return Layer::kServer;
  if (site <= Site::kMerge) return Layer::kObs;
  return Layer::kHarness;
}

void ThreadTrace::leave(std::uint64_t now_ns) {
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = now_ns - f.start_ns;
  const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  SiteStats& s = buffer_->sites[idx(f.site)];
  ++s.calls;
  s.incl_ns += dur;
  s.self_ns += self;
  if (site_sampled(f.site)) {
    buffer_->samples[idx(f.site)].push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(dur, UINT32_MAX)));
  }
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

ThreadTrace& this_thread() {
  // The stack dies with its thread; the buffer it writes stays registered.
  thread_local ThreadTrace trace([] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<Buffer>());
    r.buffers.back()->order = r.buffers.size() - 1;
    return r.buffers.back().get();
  }());
  return trace;
}

void bind_shard(int shard) {
  Buffer& b = this_thread().buffer();
  if (b.shard < 0) b.shard = shard;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.buffers) {
    const int shard = b->shard;
    const std::uint64_t order = b->order;
    *b = Buffer{};
    b->shard = shard;
    b->order = order;
  }
}

Buffer merge(std::vector<const Buffer*> buffers) {
  std::sort(buffers.begin(), buffers.end(),
            [](const Buffer* a, const Buffer* b) {
              if (a->shard != b->shard) return a->shard < b->shard;
              return a->order < b->order;
            });
  Buffer out;
  for (const Buffer* b : buffers) {
    for (int i = 0; i < kSiteCount; ++i) {
      out.sites[i].calls += b->sites[i].calls;
      out.sites[i].incl_ns += b->sites[i].incl_ns;
      out.sites[i].self_ns += b->sites[i].self_ns;
      out.samples[i].insert(out.samples[i].end(), b->samples[i].begin(),
                            b->samples[i].end());
    }
    out.sim_events += b->sim_events;
    out.agreements += b->agreements;
    out.restarts += b->restarts;
  }
  // Thread interleaving decides the order samples were appended in.
  for (auto& s : out.samples) std::sort(s.begin(), s.end());
  return out;
}

Buffer merged() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<const Buffer*> all;
  for (const auto& b : r.buffers) all.push_back(b.get());
  return merge(std::move(all));
}

double median(std::vector<std::uint32_t> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

std::map<std::string, double> layer_metrics(const Buffer& t,
                                            const TraceWindow& w) {
  auto stat = [&](Site s) -> const SiteStats& { return t.sites[idx(s)]; };
  const double epoch_ns = static_cast<double>(stat(Site::kEpoch).incl_ns);
  const double busy_ns = static_cast<double>(stat(Site::kShard).incl_ns);
  const double budget_ns = w.wall_ns + (w.threads - 1) * epoch_ns;
  const double wait_ns = w.threads * epoch_ns - busy_ns;
  const double events = w.events > 0 ? w.events : 1.0;

  std::array<double, kLayerCount> layer_self{};
  for (int i = 0; i < kSiteCount; ++i) {
    const Site s = static_cast<Site>(i);
    // The epoch call's own time is the caller blocked at the barrier; it
    // is accounted as wait, not as server work.
    if (s == Site::kEpoch) continue;
    layer_self[static_cast<std::size_t>(site_layer(s))] +=
        static_cast<double>(t.sites[idx(s)].self_ns);
  }
  double self_sum = 0;
  for (double v : layer_self) self_sum += v;

  auto per_event = [&](double v) { return v / events; };
  auto ms_per_event = [&](double ns) { return ns / 1e6 / events; };
  auto share = [&](double ns) { return budget_ns > 0 ? ns / budget_ns : 0.0; };
  auto calls = [&](std::initializer_list<Site> sites) {
    double n = 0;
    for (Site s : sites) n += static_cast<double>(stat(s).calls);
    return n;
  };
  auto self_ns = [&](std::initializer_list<Site> sites) {
    double n = 0;
    for (Site s : sites) n += static_cast<double>(stat(s).self_ns);
    return n;
  };
  auto p50 = [&](Site s) { return median(t.samples[idx(s)]); };
  const auto exps = {Site::kExp512Full, Site::kExp512Small, Site::kExp1024Full,
                     Site::kExp1024Small};

  std::map<std::string, double> m;
  for (int l = 0; l < kLayerCount; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    m[name + ".self_ms"] = ms_per_event(layer_self[static_cast<std::size_t>(l)]);
    m[name + ".self_share"] = share(layer_self[static_cast<std::size_t>(l)]);
  }

  m["bignum.exp_calls"] = per_event(calls(exps));
  m["bignum.exp512_self_ms"] =
      ms_per_event(self_ns({Site::kExp512Full, Site::kExp512Small}));
  m["bignum.exp1024_self_ms"] =
      ms_per_event(self_ns({Site::kExp1024Full, Site::kExp1024Small}));
  m["bignum.exp512_full_ns_p50"] = p50(Site::kExp512Full);
  m["bignum.exp512_small_ns_p50"] = p50(Site::kExp512Small);
  m["bignum.exp1024_full_ns_p50"] = p50(Site::kExp1024Full);
  m["bignum.exp1024_small_ns_p50"] = p50(Site::kExp1024Small);
  m["bignum.exp_self_share"] = share(self_ns(exps));
  m["bignum.inverse_calls"] = per_event(calls({Site::kInverse}));
  m["bignum.inverse_self_ms"] = ms_per_event(self_ns({Site::kInverse}));
  m["bignum.divmod_calls"] = per_event(calls({Site::kDivmod}));
  m["bignum.divmod_self_ms"] = ms_per_event(self_ns({Site::kDivmod}));
  m["bignum.ctx_builds"] = per_event(calls({Site::kMontCtx}));

  m["crypto.sign_calls"] = per_event(calls({Site::kSign}));
  m["crypto.sign_self_ms"] = ms_per_event(self_ns({Site::kSign}));
  m["crypto.verify_calls"] = per_event(calls({Site::kVerify}));
  m["crypto.verify_self_ms"] = ms_per_event(self_ns({Site::kVerify}));
  m["crypto.verify_ns_p50"] = p50(Site::kVerify);
  m["crypto.hash_calls"] = per_event(calls({Site::kHash}));
  m["crypto.hash_self_ms"] = ms_per_event(self_ns({Site::kHash}));
  m["crypto.drbg_self_ms"] = ms_per_event(self_ns({Site::kDrbg}));

  m["core.view_calls"] = per_event(calls({Site::kOnView}));
  m["core.message_calls"] = per_event(calls({Site::kOnMessage}));
  m["core.mul_p_calls"] = per_event(calls({Site::kMulP}));
  m["core.inverse_calls"] = per_event(calls({Site::kInverseQP}));
  m["core.restart_share"] =
      t.agreements > 0 ? static_cast<double>(t.restarts) /
                             static_cast<double>(t.agreements)
                       : 0.0;

  m["sim.events_per_event"] = per_event(static_cast<double>(t.sim_events));
  m["gcs.messages_per_event"] = per_event(calls({Site::kSend}));

  m["server.epochs"] = per_event(calls({Site::kEpoch}));
  m["server.shard_busy_ms"] = ms_per_event(busy_ns);
  m["server.barrier_wait_share"] =
      epoch_ns > 0 ? 1.0 - busy_ns / (w.threads * epoch_ns) : 0.0;
  m["server.onboard_self_ms"] = ms_per_event(self_ns({Site::kOnboard}));

  m["obs.observe_calls"] = per_event(calls({Site::kObserve}));

  m["trace.wait_share"] = share(wait_ns);
  m["trace.residual_share"] = share(budget_ns - self_sum - wait_ns);
  m["trace.overhead_share"] =
      w.untraced_wall_ns > 0 ? w.wall_ns / w.untraced_wall_ns - 1.0 : 0.0;
  m["trace.events"] = w.events;
  return m;
}

}  // namespace perfbench
