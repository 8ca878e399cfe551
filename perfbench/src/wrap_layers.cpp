// Link-time wrappers around each layer's public entry points, linked into
// the traced binary only. The linker redirects every call that crosses a
// translation unit (an undefined reference in the caller's object) to
// __wrap_<symbol>, which opens a span and calls __real_<symbol>. Calls that
// stay inside one translation unit, calls through virtual functions and
// std::function, and inlined calls are not redirected: their time counts as
// self time of the nearest wrapped caller.
//
// Each PB_SYM_ line names one wrapped symbol; CMakeLists.txt reads those
// lines to build the --wrap flags, so a symbol listed here and a flag on
// the link line cannot drift apart (a mismatch fails the link).
#include <string>
#include <vector>

#include "bignum/montgomery.h"
#include "core/crypto_context.h"
#include "core/key_agreement.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "gcs/spread.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "server/group_host.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "tracer.h"

#define PB_SYM_EXP "_ZNK3sgk13MontgomeryCtx3expERKNS_6BigIntES3_"
#define PB_SYM_MONT_CTX "_ZN3sgk13MontgomeryCtxC1ERKNS_6BigIntE"
#define PB_SYM_MOD_INVERSE "_ZN3sgk11mod_inverseERKNS_6BigIntES2_"
#define PB_SYM_BIGINT_MUL "_ZNK3sgk6BigIntmlERKS0_"
#define PB_SYM_BIGINT_MOD "_ZNK3sgk6BigIntrmERKS0_"
#define PB_SYM_RSA_SIGN "_ZNK3sgk13RsaPrivateKey4signERKSt6vectorIhSaIhEE"
#define PB_SYM_RSA_VERIFY "_ZNK3sgk12RsaPublicKey6verifyERKSt6vectorIhSaIhEES5_"
#define PB_SYM_SHA_UPDATE "_ZN3sgk6Sha2566updateEPKhm"
#define PB_SYM_SHA_FINISH "_ZN3sgk6Sha2566finishEv"
#define PB_SYM_SHA_DIGEST "_ZN3sgk6Sha2566digestERKSt6vectorIhSaIhEE"
#define PB_SYM_HMAC "_ZN3sgk11hmac_sha256ERKSt6vectorIhSaIhEES4_"
#define PB_SYM_HKDF "_ZN3sgk11hkdf_sha256ERKSt6vectorIhSaIhEES4_S4_m"
#define PB_SYM_DRBG_CTOR "_ZN3sgk4DrbgC1EmSt17basic_string_viewIcSt11char_traitsIcEE"
#define PB_SYM_DRBG_FILL "_ZN3sgk4Drbg4fillEPhm"
#define PB_SYM_DRBG_NEXT "_ZN3sgk4Drbg8next_u64Em"
#define PB_SYM_ON_VIEW "_ZN3sgk12KeyAgreement7on_viewERKNS_4ViewERKNS_9ViewDeltaE"
#define PB_SYM_ON_MESSAGE "_ZN3sgk12KeyAgreement10on_messageEjRKSt6vectorIhSaIhEE"
#define PB_SYM_MUL_P "_ZN3sgk13CryptoContext5mul_pERKNS_6BigIntES3_"
#define PB_SYM_INVERSE_Q "_ZN3sgk13CryptoContext9inverse_qERKNS_6BigIntE"
#define PB_SYM_INVERSE_P "_ZN3sgk13CryptoContext9inverse_pERKNS_6BigIntE"
#define PB_SYM_SIM_RUN "_ZN3sgk9Simulator3runEv"
#define PB_SYM_SIM_RUN_UNTIL "_ZN3sgk9Simulator9run_untilEd"
#define PB_SYM_MULTICAST "_ZN3sgk13SpreadNetwork9multicastERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjSt6vectorIhSaIhEE"
#define PB_SYM_ORDERED_SEND "_ZN3sgk13SpreadNetwork12ordered_sendERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjjSt6vectorIhSaIhEE"
#define PB_SYM_UNICAST "_ZN3sgk13SpreadNetwork7unicastERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjjSt6vectorIhSaIhEE"
#define PB_SYM_SERVER_RUN "_ZN3sgk6server11GroupServer3runEv"
#define PB_SYM_ADVANCE "_ZN3sgk6server9GroupHost7advanceEd"
#define PB_SYM_HOST_CTOR "_ZN3sgk6server9GroupHostC1ERKNS0_9GroupSpecESt10shared_ptrINS_3PkiEEjRKNS_8TopologyE"
#define PB_SYM_FINALIZE "_ZN3sgk6server9GroupHost8finalizeEPNS_17SharedSpreadStatsE"
#define PB_SYM_OBSERVE "_ZN3sgk3obs9Histogram7observeEd"
#define PB_SYM_MERGE "_ZN3sgk3obs15MetricsRegistry10merge_fromERKS1_"
#define PB_SYM_MERGE_PREFIX "_ZN3sgk3obs15MetricsRegistry10merge_fromERKS1_RKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define PB_SYM_MEASURE_JOIN "_ZN3sgk10Experiment12measure_joinEv"
#define PB_SYM_MEASURE_LEAVE "_ZN3sgk10Experiment13measure_leaveENS_11LeavePolicyE"
#define PB_SYM_MEASURE_PARTITION "_ZN3sgk10Experiment17measure_partitionERKSt6vectorIS1_IiSaIiEESaIS3_EE"
#define PB_SYM_MEASURE_MERGE "_ZN3sgk10Experiment13measure_mergeEv"

// Declares __real_<sym> as `real_name` and __wrap_<sym> as `wrap_name`. A
// member function is declared as a free function taking the object pointer
// first, which is how the Itanium C++ ABI passes it.
#define PB_DECLARE(sym, ret, real_name, wrap_name, ...)        \
  ret real_name(__VA_ARGS__) __asm__("__real_" sym);          \
  ret wrap_name(__VA_ARGS__) __asm__("__wrap_" sym)

namespace perfbench::wrap {

using sgk::BigInt;
using sgk::Bytes;

/// Runs `call` inside a span of `site` when tracing is on.
template <typename F>
decltype(auto) traced(Site site, F&& call) {
  if (!enabled()) return call();
  Span span(site);
  return call();
}

// ---- bignum -----------------------------------------------------------------

PB_DECLARE(PB_SYM_EXP, BigInt, real_exp, wrap_exp, const sgk::MontgomeryCtx*,
           const BigInt&, const BigInt&);
BigInt wrap_exp(const sgk::MontgomeryCtx* self, const BigInt& base,
                const BigInt& e) {
  if (!enabled()) return real_exp(self, base, e);
  const bool wide = self->modulus().bit_length() > 768;
  const bool full = e.bit_length() > 64;
  const Site site = wide ? (full ? Site::kExp1024Full : Site::kExp1024Small)
                         : (full ? Site::kExp512Full : Site::kExp512Small);
  Span span(site);
  return real_exp(self, base, e);
}

PB_DECLARE(PB_SYM_MONT_CTX, void, real_mont_ctx, wrap_mont_ctx,
           sgk::MontgomeryCtx*, const BigInt&);
void wrap_mont_ctx(sgk::MontgomeryCtx* self, const BigInt& modulus) {
  traced(Site::kMontCtx, [&] { real_mont_ctx(self, modulus); });
}

PB_DECLARE(PB_SYM_MOD_INVERSE, BigInt, real_mod_inverse, wrap_mod_inverse,
           const BigInt&, const BigInt&);
BigInt wrap_mod_inverse(const BigInt& a, const BigInt& m) {
  return traced(Site::kInverse, [&] { return real_mod_inverse(a, m); });
}

PB_DECLARE(PB_SYM_BIGINT_MUL, BigInt, real_bigint_mul, wrap_bigint_mul,
           const BigInt*, const BigInt&);
BigInt wrap_bigint_mul(const BigInt* self, const BigInt& o) {
  return traced(Site::kDivmod, [&] { return real_bigint_mul(self, o); });
}

PB_DECLARE(PB_SYM_BIGINT_MOD, BigInt, real_bigint_mod, wrap_bigint_mod,
           const BigInt*, const BigInt&);
BigInt wrap_bigint_mod(const BigInt* self, const BigInt& o) {
  return traced(Site::kDivmod, [&] { return real_bigint_mod(self, o); });
}

// ---- crypto -----------------------------------------------------------------

PB_DECLARE(PB_SYM_RSA_SIGN, Bytes, real_rsa_sign, wrap_rsa_sign,
           const sgk::RsaPrivateKey*, const Bytes&);
Bytes wrap_rsa_sign(const sgk::RsaPrivateKey* self, const Bytes& m) {
  return traced(Site::kSign, [&] { return real_rsa_sign(self, m); });
}

PB_DECLARE(PB_SYM_RSA_VERIFY, bool, real_rsa_verify, wrap_rsa_verify,
           const sgk::RsaPublicKey*, const Bytes&, const Bytes&);
bool wrap_rsa_verify(const sgk::RsaPublicKey* self, const Bytes& m,
                     const Bytes& sig) {
  return traced(Site::kVerify, [&] { return real_rsa_verify(self, m, sig); });
}

PB_DECLARE(PB_SYM_SHA_UPDATE, void, real_sha_update, wrap_sha_update,
           sgk::Sha256*, const std::uint8_t*, std::size_t);
void wrap_sha_update(sgk::Sha256* self, const std::uint8_t* data,
                     std::size_t len) {
  traced(Site::kHash, [&] { real_sha_update(self, data, len); });
}

PB_DECLARE(PB_SYM_SHA_FINISH, Bytes, real_sha_finish, wrap_sha_finish,
           sgk::Sha256*);
Bytes wrap_sha_finish(sgk::Sha256* self) {
  return traced(Site::kHash, [&] { return real_sha_finish(self); });
}

PB_DECLARE(PB_SYM_SHA_DIGEST, Bytes, real_sha_digest, wrap_sha_digest,
           const Bytes&);
Bytes wrap_sha_digest(const Bytes& data) {
  return traced(Site::kHash, [&] { return real_sha_digest(data); });
}

PB_DECLARE(PB_SYM_HMAC, Bytes, real_hmac, wrap_hmac, const Bytes&,
           const Bytes&);
Bytes wrap_hmac(const Bytes& key, const Bytes& data) {
  return traced(Site::kHash, [&] { return real_hmac(key, data); });
}

PB_DECLARE(PB_SYM_HKDF, Bytes, real_hkdf, wrap_hkdf, const Bytes&,
           const Bytes&, const Bytes&, std::size_t);
Bytes wrap_hkdf(const Bytes& ikm, const Bytes& salt, const Bytes& info,
                std::size_t len) {
  return traced(Site::kHash, [&] { return real_hkdf(ikm, salt, info, len); });
}

PB_DECLARE(PB_SYM_DRBG_CTOR, void, real_drbg_ctor, wrap_drbg_ctor, sgk::Drbg*,
           std::uint64_t, std::string_view);
void wrap_drbg_ctor(sgk::Drbg* self, std::uint64_t seed,
                    std::string_view label) {
  traced(Site::kDrbg, [&] { real_drbg_ctor(self, seed, label); });
}

PB_DECLARE(PB_SYM_DRBG_FILL, void, real_drbg_fill, wrap_drbg_fill, sgk::Drbg*,
           std::uint8_t*, std::size_t);
void wrap_drbg_fill(sgk::Drbg* self, std::uint8_t* out, std::size_t len) {
  traced(Site::kDrbg, [&] { real_drbg_fill(self, out, len); });
}

PB_DECLARE(PB_SYM_DRBG_NEXT, std::uint64_t, real_drbg_next, wrap_drbg_next,
           sgk::Drbg*, std::uint64_t);
std::uint64_t wrap_drbg_next(sgk::Drbg* self, std::uint64_t bound) {
  return traced(Site::kDrbg, [&] { return real_drbg_next(self, bound); });
}

// ---- core -------------------------------------------------------------------

PB_DECLARE(PB_SYM_ON_VIEW, void, real_on_view, wrap_on_view,
           sgk::KeyAgreement*, const sgk::View&, const sgk::ViewDelta&);
void wrap_on_view(sgk::KeyAgreement* self, const sgk::View& view,
                  const sgk::ViewDelta& delta) {
  if (!enabled()) return real_on_view(self, view, delta);
  Span span(Site::kOnView);
  const std::uint64_t restarts = self->restarts();
  real_on_view(self, view, delta);
  Buffer& b = span.trace().buffer();
  ++b.agreements;
  b.restarts += self->restarts() - restarts;
}

PB_DECLARE(PB_SYM_ON_MESSAGE, void, real_on_message, wrap_on_message,
           sgk::KeyAgreement*, sgk::ProcessId, const Bytes&);
void wrap_on_message(sgk::KeyAgreement* self, sgk::ProcessId sender,
                     const Bytes& body) {
  traced(Site::kOnMessage, [&] { real_on_message(self, sender, body); });
}

PB_DECLARE(PB_SYM_MUL_P, BigInt, real_mul_p, wrap_mul_p, sgk::CryptoContext*,
           const BigInt&, const BigInt&);
BigInt wrap_mul_p(sgk::CryptoContext* self, const BigInt& a, const BigInt& b) {
  return traced(Site::kMulP, [&] { return real_mul_p(self, a, b); });
}

PB_DECLARE(PB_SYM_INVERSE_Q, BigInt, real_inverse_q, wrap_inverse_q,
           sgk::CryptoContext*, const BigInt&);
BigInt wrap_inverse_q(sgk::CryptoContext* self, const BigInt& a) {
  return traced(Site::kInverseQP, [&] { return real_inverse_q(self, a); });
}

PB_DECLARE(PB_SYM_INVERSE_P, BigInt, real_inverse_p, wrap_inverse_p,
           sgk::CryptoContext*, const BigInt&);
BigInt wrap_inverse_p(sgk::CryptoContext* self, const BigInt& a) {
  return traced(Site::kInverseQP, [&] { return real_inverse_p(self, a); });
}

// ---- sim + gcs --------------------------------------------------------------

PB_DECLARE(PB_SYM_SIM_RUN, void, real_sim_run, wrap_sim_run, sgk::Simulator*);
void wrap_sim_run(sgk::Simulator* self) {
  if (!enabled()) return real_sim_run(self);
  Span span(Site::kSimRun);
  const std::uint64_t before = self->executed();
  real_sim_run(self);
  span.trace().buffer().sim_events += self->executed() - before;
}

PB_DECLARE(PB_SYM_SIM_RUN_UNTIL, void, real_sim_run_until, wrap_sim_run_until,
           sgk::Simulator*, double);
void wrap_sim_run_until(sgk::Simulator* self, double t) {
  if (!enabled()) return real_sim_run_until(self, t);
  Span span(Site::kSimRun);
  const std::uint64_t before = self->executed();
  real_sim_run_until(self, t);
  span.trace().buffer().sim_events += self->executed() - before;
}

PB_DECLARE(PB_SYM_MULTICAST, void, real_multicast, wrap_multicast,
           sgk::SpreadNetwork*, const std::string&, sgk::ProcessId, Bytes);
void wrap_multicast(sgk::SpreadNetwork* self, const std::string& group,
                    sgk::ProcessId sender, Bytes payload) {
  traced(Site::kSend,
         [&] { real_multicast(self, group, sender, std::move(payload)); });
}

PB_DECLARE(PB_SYM_ORDERED_SEND, void, real_ordered_send, wrap_ordered_send,
           sgk::SpreadNetwork*, const std::string&, sgk::ProcessId,
           sgk::ProcessId, Bytes);
void wrap_ordered_send(sgk::SpreadNetwork* self, const std::string& group,
                       sgk::ProcessId sender, sgk::ProcessId dest,
                       Bytes payload) {
  traced(Site::kSend, [&] {
    real_ordered_send(self, group, sender, dest, std::move(payload));
  });
}

PB_DECLARE(PB_SYM_UNICAST, void, real_unicast, wrap_unicast,
           sgk::SpreadNetwork*, const std::string&, sgk::ProcessId,
           sgk::ProcessId, Bytes);
void wrap_unicast(sgk::SpreadNetwork* self, const std::string& group,
                  sgk::ProcessId sender, sgk::ProcessId dest, Bytes payload) {
  traced(Site::kSend, [&] {
    real_unicast(self, group, sender, dest, std::move(payload));
  });
}

// ---- server -----------------------------------------------------------------

PB_DECLARE(PB_SYM_SERVER_RUN, sgk::server::ServerResult, real_server_run,
           wrap_server_run, sgk::server::GroupServer*);
sgk::server::ServerResult wrap_server_run(sgk::server::GroupServer* self) {
  return traced(Site::kServerRun, [&] { return real_server_run(self); });
}

PB_DECLARE(PB_SYM_ADVANCE, void, real_advance, wrap_advance,
           sgk::server::GroupHost*, double);
void wrap_advance(sgk::server::GroupHost* self, double until) {
  traced(Site::kAdvance, [&] { real_advance(self, until); });
}

PB_DECLARE(PB_SYM_HOST_CTOR, void, real_host_ctor, wrap_host_ctor,
           sgk::server::GroupHost*, const sgk::server::GroupSpec&,
           std::shared_ptr<sgk::Pki>, sgk::ProcessId, const sgk::Topology&);
void wrap_host_ctor(sgk::server::GroupHost* self,
                    const sgk::server::GroupSpec& spec,
                    std::shared_ptr<sgk::Pki> pki, sgk::ProcessId first_pid,
                    const sgk::Topology& topology) {
  traced(Site::kOnboard, [&] {
    real_host_ctor(self, spec, std::move(pki), first_pid, topology);
  });
}

PB_DECLARE(PB_SYM_FINALIZE, sgk::server::GroupReport, real_finalize,
           wrap_finalize, sgk::server::GroupHost*, sgk::SharedSpreadStats*);
sgk::server::GroupReport wrap_finalize(sgk::server::GroupHost* self,
                                       sgk::SharedSpreadStats* shared) {
  return traced(Site::kFinalize, [&] { return real_finalize(self, shared); });
}

// ---- obs --------------------------------------------------------------------

PB_DECLARE(PB_SYM_OBSERVE, void, real_observe, wrap_observe,
           sgk::obs::Histogram*, double);
void wrap_observe(sgk::obs::Histogram* self, double v) {
  traced(Site::kObserve, [&] { real_observe(self, v); });
}

PB_DECLARE(PB_SYM_MERGE, void, real_merge, wrap_merge,
           sgk::obs::MetricsRegistry*, const sgk::obs::MetricsRegistry&);
void wrap_merge(sgk::obs::MetricsRegistry* self,
                const sgk::obs::MetricsRegistry& other) {
  traced(Site::kMerge, [&] { real_merge(self, other); });
}

PB_DECLARE(PB_SYM_MERGE_PREFIX, void, real_merge_prefix, wrap_merge_prefix,
           sgk::obs::MetricsRegistry*, const sgk::obs::MetricsRegistry&,
           const std::string&);
void wrap_merge_prefix(sgk::obs::MetricsRegistry* self,
                       const sgk::obs::MetricsRegistry& other,
                       const std::string& prefix) {
  traced(Site::kMerge, [&] { real_merge_prefix(self, other, prefix); });
}

// ---- harness ----------------------------------------------------------------

PB_DECLARE(PB_SYM_MEASURE_JOIN, sgk::EventResult, real_measure_join,
           wrap_measure_join, sgk::Experiment*);
sgk::EventResult wrap_measure_join(sgk::Experiment* self) {
  return traced(Site::kMeasure, [&] { return real_measure_join(self); });
}

PB_DECLARE(PB_SYM_MEASURE_LEAVE, sgk::EventResult, real_measure_leave,
           wrap_measure_leave, sgk::Experiment*, sgk::LeavePolicy);
sgk::EventResult wrap_measure_leave(sgk::Experiment* self,
                                    sgk::LeavePolicy policy) {
  return traced(Site::kMeasure,
                [&] { return real_measure_leave(self, policy); });
}

PB_DECLARE(PB_SYM_MEASURE_PARTITION, sgk::EventResult, real_measure_partition,
           wrap_measure_partition, sgk::Experiment*,
           const std::vector<std::vector<sgk::MachineId>>&);
sgk::EventResult wrap_measure_partition(
    sgk::Experiment* self,
    const std::vector<std::vector<sgk::MachineId>>& parts) {
  return traced(Site::kMeasure,
                [&] { return real_measure_partition(self, parts); });
}

PB_DECLARE(PB_SYM_MEASURE_MERGE, sgk::EventResult, real_measure_merge,
           wrap_measure_merge, sgk::Experiment*);
sgk::EventResult wrap_measure_merge(sgk::Experiment* self) {
  return traced(Site::kMeasure, [&] { return real_measure_merge(self); });
}

}  // namespace perfbench::wrap
