// Structure-aware adversarial frame mutation.
//
// FrameMutator corrupts secure-group wire frames in flight the way a hostile
// or broken network element would: bit flips, truncation/extension, lying
// length prefixes, out-of-range group elements, type-tag swaps, sender
// spoofing, epoch games, and wholesale replay of earlier traffic. It is
// seeded and stateless per frame (decisions come from fault_hash keyed on a
// stable per-frame unit), so a run is bit-for-bit reproducible from its seed
// exactly like a FaultPlan churn schedule.
//
// The mutator understands the secure-group frame layout —
//   u8 kind | u64 epoch | u32 sender | u32 body_len | body | [u32 sig_len | sig]
// — so it can aim at specific fields instead of only spraying random bytes.
// Group elements inside the body are located by scanning for the first
// plausible length-prefixed bignum (length within a byte of the modulus
// size); member ids and structure bytes are small values, so the first match
// is the first real element on every protocol's wire format.
//
// Two mutation menus exist. The full menu assumes signatures are verified
// downstream (any content change dies at the signature check; the interest
// is in what happens before it). The `detectable_only` menu is for runs that
// deliberately disable signature verification to drive the semantic
// validators: it restricts to corruptions the strict decode layer provably
// catches, so accepted-but-wrong frames (silent divergence) cannot be
// manufactured by the harness itself.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/hooks.h"
#include "util/bytes.h"

namespace sgk::fault {

class FrameMutator {
 public:
  struct Options {
    /// Probability a given frame is mutated at all.
    double rate = 0.0;
    /// Restrict to mutations strict validation is guaranteed to reject.
    bool detectable_only = false;
    /// Byte width of the DH modulus (locates group elements in bodies).
    std::size_t modulus_bytes = 64;
  };

  FrameMutator(std::uint64_t seed, Options opts)
      : seed_(seed), opts_(opts) {}

  const Options& options() const { return opts_; }

  /// Decides for frame `unit` and applies the verdict to `wire` in place.
  /// Every call first captures the pristine frame into the replay ring.
  /// Returns the mutation applied (kNone = untouched).
  MutationKind mutate(Bytes& wire, std::uint64_t unit);

  /// Frames changed so far (excludes kNone verdicts).
  std::uint64_t mutated() const { return mutated_; }

 private:
  std::uint64_t draw(std::uint64_t unit, std::uint64_t n) const;
  MutationKind pick_kind(std::uint64_t unit) const;
  /// Offset of the first plausible length-prefixed group element inside the
  /// body, or 0 if none.
  std::size_t find_bignum(const Bytes& wire) const;
  bool apply(MutationKind kind, Bytes& wire, std::uint64_t unit);

  std::uint64_t seed_;
  Options opts_;
  std::vector<Bytes> history_;
  std::size_t history_next_ = 0;
  std::uint64_t mutated_ = 0;
};

}  // namespace sgk::fault
