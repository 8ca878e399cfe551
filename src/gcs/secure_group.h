// Secure Spread client: a group member with an attached key agreement
// protocol and a secured data plane.
//
// A SecureGroupMember owns one protocol instance for one group. On every
// installed view it starts the protocol for the new epoch; protocol messages
// are RSA-signed by the sender and verified by every receiver (the paper's
// source-authentication requirement); all cryptographic work is charged to
// the member's machine CPU in virtual time, and outbound messages leave only
// when that work completes. Once a key is established, application data sent
// through the member is AES-CBC encrypted and HMAC-authenticated under keys
// derived from the group secret.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/crypto_context.h"
#include "core/key_agreement.h"
#include "gcs/spread.h"
#include "core/cost_model.h"
#include "util/secure_bytes.h"
#include "util/thread_annotations.h"

namespace sgk {

/// Public-key directory shared by the members of one simulation run (the
/// paper assumes long-term keys are certified out of band).
class Pki {
  // Owned by one run: a multi-group server hands each GroupHost its own, so
  // only that group's replay enrolls into it and verifies against it, and
  // the executor's epoch barrier orders the slices of that replay.
  SGK_CONFINED_TO_RUN;

 public:
  void enroll(ProcessId p, VerifyKey key) {
    // Owned copies: verification must keep working for messages from members
    // that have since been destroyed. (DsaPublicKey holds a reference and is
    // not assignable, hence erase + emplace.)
    keys_.erase(p);
    keys_.emplace(p, std::move(key));
  }
  const VerifyKey* find(ProcessId p) const {
    auto it = keys_.find(p);
    return it == keys_.end() ? nullptr : &it->second;
  }

 private:
  std::map<ProcessId, VerifyKey> keys_;
};

struct MemberConfig {
  // Copied into each member at construction; per-run value type.
  SGK_CONFINED_TO_RUN;
  std::string group = "secure-group";
  ProtocolKind protocol = ProtocolKind::kTgdh;
  DhBits dh_bits = DhBits::k512;
  CostModel cost = CostModel::paper2002();
  std::uint64_t seed = 1;
  /// Blinded-key re-computation in TGDH/STR (see ProtocolHost).
  bool key_confirmation = true;
  /// Signature scheme for protocol messages (RSA e=3 in the paper; DSA for
  /// the verification-cost comparison).
  SigScheme signature = SigScheme::kRsa;
  /// Verify signatures on incoming protocol frames. Disabled only by fuzzing
  /// harnesses that study what strict structural validation alone catches;
  /// loopback integrity and all semantic checks stay on.
  bool verify_signatures = true;
  /// When > 0, an agreement still in flight this long (virtual ms) after its
  /// view installed triggers a rekey request — the backstop for frames an
  /// adversary erased outright, which produce no rejection at the members
  /// that needed them. 0 disables the watchdog. Like the reject path, the
  /// watchdog's retry chain backs off exponentially across consecutive
  /// unkeyed fires (streak resets on every key install), up to the same cap
  /// (kRecoveryBackoffCapMs, secure_group.cpp).
  double recovery_watchdog_ms = 0.0;
};

/// Deterministic backoff schedule shared by the reject-path recovery and the
/// watchdog retry chain: min(base * 2^attempt, cap), plus up to 25% seeded
/// jitter for attempt >= 1 (attempt 0 keeps the exact legacy delay). A cap
/// <= 0 disables the cap (pure exponential growth). The jitter draw is fault_unit(seed, self, epoch, attempt) — stateless and
/// order-independent, so two members with the same config desynchronize
/// their retry storms identically on every replay of the same seed.
double recovery_backoff_ms(double base_ms, double cap_ms, int attempt,
                           std::uint64_t seed, ProcessId self,
                           std::uint64_t epoch);

class SecureGroupMember final : public GroupClient, private ProtocolHost {
  // A member belongs to exactly one SpreadNetwork/Simulator pair and is
  // driven only from that run's event loop.
  SGK_CONFINED_TO_RUN;

 public:
  SecureGroupMember(SpreadNetwork& net, ProcessId self, std::shared_ptr<Pki> pki,
                    MemberConfig config);
  ~SecureGroupMember() override;

  SecureGroupMember(const SecureGroupMember&) = delete;
  SecureGroupMember& operator=(const SecureGroupMember&) = delete;

  /// Joins the configured group (membership + key agreement are driven by
  /// the GCS from here on).
  void join();
  /// Leaves the group.
  void leave();
  /// Requests an explicit re-key: a fresh group key with unchanged
  /// membership (a "session rekeying" policy event). Every member ends up
  /// with a new key at a new epoch.
  void request_rekey();

  // ---- key state ------------------------------------------------------------
  bool has_key() const { return !key_.empty(); }
  /// The full derived secret block (zeroizing storage). Compare across
  /// members with ct_equal; never with operator== or by hex dump.
  const SecureBytes& key() const { return key_; }
  /// Short hex fingerprint of the current key (SHA-256 of a domain-separated
  /// hash of the key block). Safe to log or display; empty when no key.
  std::string key_fingerprint() const;
  std::uint64_t key_epoch() const { return key_epoch_; }
  /// Virtual time at which the current key was established.
  SimTime key_time() const { return key_time_; }
  /// Virtual time at which the latest view was installed.
  SimTime view_time() const { return view_time_; }
  /// Called at (virtual) key establishment: (time, epoch).
  void set_key_listener(std::function<void(SimTime, std::uint64_t)> fn) {
    key_listener_ = std::move(fn);
  }

  // ---- data plane -----------------------------------------------------------
  /// Encrypts and multicasts application data to the group.
  void send_data(const Bytes& plaintext);
  /// Called for every decrypted application message: (sender, plaintext).
  void set_data_listener(std::function<void(ProcessId, const Bytes&)> fn) {
    data_listener_ = std::move(fn);
  }
  /// Seal/open primitives (encrypt-then-MAC under the group key). Exposed
  /// for tests; send_data/delivery use them internally. `aad` is bound into
  /// the MAC without being transmitted: both sides must present the same
  /// associated data or open fails. The data plane binds epoch || sequence
  /// number so neither can be tampered with independently of the payload.
  Bytes seal(const Bytes& plaintext, const Bytes& aad = {});
  std::optional<Bytes> open(const Bytes& sealed, const Bytes& aad = {});

  // ---- introspection --------------------------------------------------------
  const OpCounters& counters() const { return crypto_.counters(); }
  CryptoContext& crypto_context() { return crypto_; }
  KeyAgreement& protocol() { return *protocol_; }
  /// Agreements aborted by a cascaded view change before completing (the
  /// Secure Spread restart rule firing; see KeyAgreement::restarts).
  std::uint64_t agreement_restarts() const { return protocol_->restarts(); }
  /// True while a key agreement is running for the current view.
  bool agreement_in_flight() const { return protocol_->in_flight(); }
  /// Stale protocol frames discarded (epoch older than the installed view).
  std::uint64_t stale_dropped() const { return stale_dropped_; }
  /// Frames rejected by the hardened receive path, by any typed reason
  /// (also broken out per reason in the `frames_rejected/...` counters).
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  /// Rekey requests issued by the quarantine/recovery policy.
  std::uint64_t recoveries() const { return recoveries_; }
  const View* view() const { return view_ ? &*view_ : nullptr; }
  ProcessId id() const { return self_; }
  const std::string& group_name() const { return config_.group; }

  // GroupClient:
  void on_view(const std::string& group, const View& view,
               const ViewDelta& delta) override;
  void on_message(const std::string& group, ProcessId sender,
                  const Bytes& payload) override;

 private:
  enum class WireKind : std::uint8_t { kProtocol = 1, kData = 2 };
  enum class SendKind : std::uint8_t { kMulticast, kOrdered, kUnicast };

  struct Outbound {
    SendKind kind;
    ProcessId dest;
    Bytes wire;
  };

  /// Decoded outer frame (common header of both wire kinds).
  struct OuterFrame {
    std::uint8_t kind = 0;
    std::uint64_t epoch = 0;
    ProcessId claimed_sender = kNoProcess;
    Bytes body;
    Bytes sig;  // kProtocol only
  };

  /// Decoded data-plane body (sequence number + sealed payload).
  struct DataBody {
    std::uint64_t seq = 0;
    Bytes sealed;
  };

  /// Decoded sealed envelope (IV, ciphertext, MAC).
  struct SealedParts {
    Bytes iv;
    Bytes ct;
    // gka-lint: allow(GKA004) -- untrusted wire MAC value, not key material
    Bytes mac;
  };

  // The only entrypoints that touch untrusted wire bytes (enforced by lint
  // rule GKA009): structural decode that never throws past them — a hostile
  // payload comes back as a typed rejection.
  static Decoded<OuterFrame> validate_and_decode_frame(const Bytes& payload);
  static Decoded<DataBody> validate_and_decode_data(const Bytes& body);
  static Decoded<SealedParts> validate_and_decode_sealed(const Bytes& sealed);

  /// Epochs further ahead of the installed view than this are hostile (an
  /// honest sender can only be a short cascade ahead), and buffering them
  /// would let an attacker park junk in future_.
  static constexpr std::uint64_t kMaxEpochWindow = 1024;

  /// Counts a typed rejection (total, per-reason counter, wire-size
  /// histogram) and, when `recoverable`, invokes the quarantine policy.
  void reject_frame(RejectReason reason, std::size_t wire_size, bool recoverable);
  /// Quarantine policy: after kRecoveryDelayMs of virtual time, if this
  /// epoch's agreement is still stuck, request a rekey (once per epoch).
  void schedule_recovery();

  // ProtocolHost:
  ProcessId self() const override { return self_; }
  CryptoContext& crypto() override { return crypto_; }
  void send_multicast(Bytes body) override;
  void send_ordered(ProcessId dest, Bytes body) override;
  void send_unicast(ProcessId dest, Bytes body) override;
  void deliver_key(const BigInt& group_secret) override;
  void note_frame_rejected(RejectReason reason) override;
  bool key_confirmation() const override { return config_.key_confirmation; }
  void mark_phase(const char* phase_name) override;
  void mark_point(const char* point_name) override;

  Bytes frame_and_sign(WireKind kind, const Bytes& body);
  void queue(SendKind kind, ProcessId dest, Bytes body);
  /// Flushes accumulated compute cost to the CPU model and releases buffered
  /// sends / key notifications at completion time.
  void end_handler();

  SpreadNetwork& net_;
  ProcessId self_;
  std::shared_ptr<Pki> pki_;
  MemberConfig config_;
  // HKDF info of the group key block: the group name as Writer::str frames
  // it, then the epoch as Writer::u64 does. deliver_key rewrites the epoch.
  Bytes derivation_info_;
  CryptoContext crypto_;
  std::unique_ptr<KeyAgreement> protocol_;

  std::optional<View> view_;
  std::uint64_t epoch_ = 0;
  std::uint64_t stale_dropped_ = 0;
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t last_recovery_epoch_ = 0;  // rate limit: one recovery / epoch
  std::size_t current_frame_size_ = 0;     // wire size of the frame in hand

  // Consecutive recovery rekeys since the last successful key install. A
  // persistent adversary (or a member that will never converge) must not be
  // able to drive an unbounded rekey storm: after the budget is exhausted
  // the member stops initiating recoveries until a key installs again. The
  // same counter indexes the exponential backoff schedule, so each retry of
  // an episode waits longer than the last.
  int recovery_attempts_ = 0;
  static constexpr int kMaxRecoveryAttempts = 8;
  // Consecutive watchdog fires without an intervening key install; indexes
  // the watchdog chain's backoff (the chain itself stays budget-exempt).
  int watchdog_streak_ = 0;

  // Protocol frames I sent, pristine as framed (epoch, wire). A kProtocol
  // frame that loops back under my own id must byte-match one of these —
  // nobody else can sign for me, so a mismatch means the wire was tampered
  // in transit. Byte comparison instead of self-verification keeps the
  // charged crypto-op counts of honest runs unchanged.
  std::deque<std::pair<std::uint64_t, Bytes>> sent_wires_;
  static constexpr std::size_t kMaxSentRecorded = 64;

  // Protocol frames that arrived for a future epoch: their sender installed
  // a view this member has not yet processed (possible when injected wire
  // delays reorder a unicast around a view install). Replayed in arrival
  // order once the matching view lands; entries at or below the installed
  // epoch are pruned. Bounded so a buggy peer cannot grow it without limit.
  std::map<std::uint64_t, std::vector<std::pair<ProcessId, Bytes>>> future_;
  static constexpr std::size_t kMaxFutureBuffered = 256;

  // Handler-scoped buffers.
  std::vector<Outbound> outbound_;
  std::optional<SecureBytes> pending_key_;

  SecureBytes key_;  // derived key block (enc key || iv seed || mac key)
  std::uint64_t data_seq_sent_ = 0;              // my data-plane sequence
  std::map<ProcessId, std::uint64_t> data_seq_seen_;  // replay filter
  std::uint64_t key_epoch_ = 0;
  SimTime key_time_ = -1;
  SimTime view_time_ = -1;

  std::function<void(SimTime, std::uint64_t)> key_listener_;
  std::function<void(ProcessId, const Bytes&)> data_listener_;

  // Deferred CPU-completion callbacks capture this flag; destroying the
  // member (e.g. right after it leaves) flips it so stragglers are no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sgk
