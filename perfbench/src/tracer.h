// Per-thread span tracer for the link-time wrappers in wrap_layers.cpp.
//
// Every wrapped library entry point opens a Span. Each thread keeps its own
// stack of open spans and its own buffer of per-site totals, so worker
// threads of the multi-group server record without locks. A span's self
// time is its duration minus the durations of the wrapped spans nested
// directly inside it; the self times of one thread's spans therefore tile
// the time its outermost spans cover.
//
// Buffers outlive their threads (the registry owns them) and are merged
// after the traced work has joined, in shard order: the main thread first,
// then shard 0, 1, ... The merged totals do not depend on that order or on
// which thread registered first.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer { kBignum, kCrypto, kCore, kGcs, kServer, kObs, kHarness };
inline constexpr int kLayerCount = 7;
const char* layer_name(Layer layer);

/// One wrapped entry point (or a group of overloads timed as one), listed
/// layer by layer in Layer order (site_layer relies on it).
enum class Site : std::uint8_t {
  kExp512Full,    // MontgomeryCtx::exp, modulus <= 768 bits, exponent > 64 bits
  kExp512Small,   // ... exponent <= 64 bits
  kExp1024Full,   // modulus > 768 bits
  kExp1024Small,  // e.g. RSA-1024 e=3 verification
  kMontCtx,       // MontgomeryCtx constructor
  kInverse,       // mod_inverse
  kDivmod,        // BigInt::operator% and operator* across translation units
  kSign,          // RsaPrivateKey::sign
  kVerify,        // RsaPublicKey::verify
  kHash,          // Sha256 update/finish/digest, hmac_sha256, hkdf_sha256
  kDrbg,          // Drbg constructor, fill, next_u64
  kOnView,        // KeyAgreement::on_view
  kOnMessage,     // KeyAgreement::on_message
  kMulP,          // CryptoContext::mul_p
  kInverseQP,     // CryptoContext::inverse_q / inverse_p
  kSimRun,        // Simulator::run / run_until
  kSend,          // SpreadNetwork::multicast / ordered_send / unicast
  kServerRun,     // GroupServer::run
  kEpoch,         // ShardExecutor::run_epoch on the calling thread
  kShard,         // one shard's slice of an epoch, on the thread that ran it
  kAdvance,       // GroupHost::advance
  kOnboard,       // GroupHost constructor
  kFinalize,      // GroupHost::finalize
  kObserve,       // obs::Histogram::observe
  kMerge,         // obs::MetricsRegistry::merge_from
  kMeasure,       // Experiment::measure_*
  kCount
};
inline constexpr int kSiteCount = static_cast<int>(Site::kCount);

Layer site_layer(Site site);

/// Sites whose per-call duration is kept as samples (for p50s).
inline bool site_sampled(Site s) {
  return s == Site::kExp512Full || s == Site::kExp512Small ||
         s == Site::kExp1024Full || s == Site::kExp1024Small ||
         s == Site::kVerify;
}

struct SiteStats {
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-thread totals. Also the merged result.
struct Buffer {
  int shard = -1;          // -1: never ran a shard slice (the main thread)
  std::uint64_t order = 0; // registration order, a tie-break only
  std::array<SiteStats, kSiteCount> sites{};
  std::array<std::vector<std::uint32_t>, kSiteCount> samples{};
  std::uint64_t sim_events = 0;        // Simulator::executed() deltas
  std::uint64_t agreements = 0;        // KeyAgreement::on_view calls
  std::uint64_t restarts = 0;          // ... that aborted one in flight
};

/// The open-span stack of one thread. Times are explicit so tests can drive
/// it with a synthetic clock; Span uses the steady clock.
class ThreadTrace {
 public:
  explicit ThreadTrace(Buffer* buffer) : buffer_(buffer) { stack_.reserve(64); }
  void enter(Site site, std::uint64_t now_ns) {
    stack_.push_back(Frame{site, now_ns, 0});
  }
  void leave(std::uint64_t now_ns);
  Buffer& buffer() { return *buffer_; }
  std::size_t depth() const { return stack_.size(); }

 private:
  struct Frame {
    Site site;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  Buffer* buffer_;
  std::vector<Frame> stack_;
};

/// True while spans are being recorded (the traced half of a trace run).
bool enabled();
void set_enabled(bool on);

/// The calling thread's trace (registered on first use).
ThreadTrace& this_thread();
/// Labels the calling thread with the shard it runs (first label sticks).
void bind_shard(int shard);

/// Discards every registered buffer's contents. Call only while no other
/// thread is recording.
void reset();
/// Merged totals over every registered buffer. Call only after every
/// recording thread has been joined.
Buffer merged();
/// Merge of explicit buffers, in shard order; exposed for tests.
Buffer merge(std::vector<const Buffer*> buffers);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII span around one wrapped call (unwinds with exceptions too).
class Span {
 public:
  explicit Span(Site site) : trace_(this_thread()) {
    trace_.enter(site, now_ns());
  }
  ~Span() { trace_.leave(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ThreadTrace& trace() { return trace_; }

 private:
  ThreadTrace& trace_;
};

/// What a traced phase covered, for the per-layer report.
struct TraceWindow {
  double wall_ns = 0;        // timed phase on the main thread
  int threads = 1;           // shard threads of the server workloads
  double events = 0;         // measured membership events
  double untraced_wall_ns = 0;  // same work with tracing off
};

/// Per-layer metrics (name -> value) from merged totals. Self times are
/// shares of the traced thread budget: the main thread's wall plus, for
/// every epoch, (threads - 1) more threads' worth of the epoch's wall. The
/// layer shares, trace.wait_share (barrier wait) and trace.residual_share
/// (time no wrapped span covered) sum to 1.
std::map<std::string, double> layer_metrics(const Buffer& totals,
                                            const TraceWindow& window);

/// Nearest-rank median of samples (0 when empty).
double median(std::vector<std::uint32_t> samples);

}  // namespace perfbench
