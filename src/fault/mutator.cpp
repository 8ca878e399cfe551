#include "fault/mutator.h"

#include <algorithm>

#include "fault/rng.h"

namespace sgk::fault {

namespace {

// Salt space continues the FaultPlan convention (0x01..0x04 taken).
constexpr std::uint64_t kMutateSalt = 0x05;

// Capacity of the replay capture ring.
constexpr std::size_t kHistory = 32;

// Frame layout offsets (see secure_group framing).
constexpr std::size_t kEpochOff = 1;
constexpr std::size_t kSenderOff = 9;
constexpr std::size_t kBodyLenOff = 13;
constexpr std::size_t kBodyOff = 17;

std::uint32_t read_u32(const Bytes& b, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) v = v << 8 | b[off + i];
  return v;
}

void write_u32(Bytes& b, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    b[off + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
}

void write_u64(Bytes& b, std::size_t off, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    b[off + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

std::uint64_t read_u64(const Bytes& b, std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = v << 8 | b[off + i];
  return v;
}

// End of the body region, clamped to the frame (the length prefix itself may
// already be a lie by the time a second mutation looks at it).
std::size_t body_end(const Bytes& wire) {
  if (wire.size() < kBodyOff) return wire.size();
  const std::size_t len = read_u32(wire, kBodyLenOff);
  return std::min(wire.size(), kBodyOff + len);
}

// The two menus. Every entry of the detectable menu is provably rejected by
// the strict decode layer even with signature verification disabled; the
// full menu adds corruptions whose containment relies on the signature.
constexpr MutationKind kDetectable[] = {
    MutationKind::kTruncate,    MutationKind::kExtend,
    MutationKind::kLengthLie,   MutationKind::kTagSwap,
    MutationKind::kBignumZero,  MutationKind::kBignumOverP,
    MutationKind::kSenderSpoof, MutationKind::kEpochShift,
    MutationKind::kReplay,
};
constexpr MutationKind kFull[] = {
    MutationKind::kBitFlip,     MutationKind::kTruncate,
    MutationKind::kExtend,      MutationKind::kLengthLie,
    MutationKind::kTagSwap,     MutationKind::kBignumZero,
    MutationKind::kBignumOverP, MutationKind::kSenderSpoof,
    MutationKind::kEpochShift,  MutationKind::kReplay,
};

}  // namespace

std::uint64_t FrameMutator::draw(std::uint64_t unit, std::uint64_t n) const {
  return fault_hash(seed_, kMutateSalt, unit, n);
}

MutationKind FrameMutator::pick_kind(std::uint64_t unit) const {
  const std::uint64_t h = draw(unit, 1);
  if (opts_.detectable_only)
    return kDetectable[h % (sizeof(kDetectable) / sizeof(kDetectable[0]))];
  return kFull[h % (sizeof(kFull) / sizeof(kFull[0]))];
}

std::size_t FrameMutator::find_bignum(const Bytes& wire) const {
  // A group element is serialized as u32 length + big-endian magnitude, with
  // leading zeros stripped: its length sits within a byte of the modulus
  // width. Everything else in a body (tags, flags, member ids, list counts)
  // is a small integer, so scanning for the first u32 in that band lands on
  // the first real element; bignum *content* can alias such a u32, but
  // content always lies beyond its own (earlier) length field.
  const std::size_t end = body_end(wire);
  if (end < kBodyOff + 4) return 0;
  const std::size_t lo = opts_.modulus_bytes > 8 ? opts_.modulus_bytes - 8 : 1;
  const std::size_t hi = opts_.modulus_bytes + 1;
  for (std::size_t off = kBodyOff; off + 4 <= end; ++off) {
    const std::uint32_t len = read_u32(wire, off);
    if (len >= lo && len <= hi && off + 4 + len <= end) return off;
  }
  return 0;
}

bool FrameMutator::apply(MutationKind kind, Bytes& wire, std::uint64_t unit) {
  const std::uint64_t h = draw(unit, 2);
  switch (kind) {
    case MutationKind::kBitFlip: {
      if (wire.empty()) return false;
      const std::size_t bit = h % (wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      return true;
    }
    case MutationKind::kTruncate: {
      if (wire.empty()) return false;
      wire.resize(h % wire.size());  // any proper prefix breaks a field read
      return true;
    }
    case MutationKind::kExtend: {
      const std::size_t extra = 1 + h % 16;
      for (std::size_t i = 0; i < extra; ++i)
        wire.push_back(static_cast<std::uint8_t>(draw(unit, 3 + i)));
      return true;
    }
    case MutationKind::kLengthLie: {
      if (wire.size() < kBodyOff) return false;
      const std::uint32_t len = read_u32(wire, kBodyLenOff);
      // Growing the claimed length either runs the reader off the end or
      // swallows signature bytes into the body, which the per-protocol
      // trailing-bytes check then rejects; a detectable lie in both cases.
      // The full menu also shrinks, which tears the frame mid-structure.
      std::uint32_t lie;
      if (opts_.detectable_only || (h & 1) != 0)
        lie = len + 1 + static_cast<std::uint32_t>(h % 64);
      else
        lie = static_cast<std::uint32_t>(h % (len + 1));
      if (lie == len) lie = len + 1;
      write_u32(wire, kBodyLenOff, lie);
      return true;
    }
    case MutationKind::kTagSwap: {
      if (body_end(wire) <= kBodyOff) return false;
      // Message tags are small (1..4). Forcing the high bit yields a tag no
      // protocol knows — a guaranteed typed rejection; the full menu swaps
      // to arbitrary values and lets the signature catch what validation
      // cannot.
      if (opts_.detectable_only)
        wire[kBodyOff] |= 0x80;
      else
        wire[kBodyOff] = static_cast<std::uint8_t>(h);
      return true;
    }
    case MutationKind::kBignumZero: {
      const std::size_t off = find_bignum(wire);
      if (off == 0) return false;
      const std::uint32_t len = read_u32(wire, off);
      std::fill(wire.begin() + static_cast<std::ptrdiff_t>(off + 4),
                wire.begin() + static_cast<std::ptrdiff_t>(off + 4 + len),
                std::uint8_t{0});  // value 0: outside [2, p-2]
      return true;
    }
    case MutationKind::kBignumOverP: {
      const std::size_t off = find_bignum(wire);
      if (off == 0) return false;
      const std::uint32_t len = read_u32(wire, off);
      // Replace the element with modulus_bytes of 0xff: a maximal value of
      // the modulus width, necessarily >= p. Field and body lengths are
      // patched so the frame still parses and reaches the range check.
      Bytes out(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(off));
      Bytes rest(wire.begin() + static_cast<std::ptrdiff_t>(off + 4 + len),
                 wire.end());
      out.resize(off + 4);
      write_u32(out, off, static_cast<std::uint32_t>(opts_.modulus_bytes));
      out.insert(out.end(), opts_.modulus_bytes, std::uint8_t{0xff});
      out.insert(out.end(), rest.begin(), rest.end());
      const std::uint32_t body_len = read_u32(wire, kBodyLenOff);
      write_u32(out, kBodyLenOff,
                body_len + static_cast<std::uint32_t>(opts_.modulus_bytes) -
                    len);
      wire = std::move(out);
      return true;
    }
    case MutationKind::kSenderSpoof: {
      if (wire.size() < kSenderOff + 4) return false;
      const std::uint32_t sender = read_u32(wire, kSenderOff);
      write_u32(wire, kSenderOff,
                sender + 1 + static_cast<std::uint32_t>(h % 7));
      return true;
    }
    case MutationKind::kEpochShift: {
      if (wire.size() < kEpochOff + 8) return false;
      const std::uint64_t epoch = read_u64(wire, kEpochOff);
      // Far-future epochs are immediately rejected by the receive window;
      // the full menu also nudges by small deltas to probe the stale-drop
      // and buffering paths.
      std::uint64_t shifted;
      if (opts_.detectable_only || (h & 1) != 0)
        shifted = epoch + (1ULL << 32) + h % 1024;
      else
        shifted = epoch + 1 + h % 4;
      write_u64(wire, kEpochOff, shifted);
      return true;
    }
    case MutationKind::kReplay: {
      if (history_.empty()) return false;
      const Bytes& captured = history_[h % history_.size()];
      if (captured == wire) return false;
      wire = captured;
      return true;
    }
    case MutationKind::kNone:
      return false;
  }
  return false;
}

MutationKind FrameMutator::mutate(Bytes& wire, std::uint64_t unit) {
  // Capture pristine traffic for later replay regardless of the verdict.
  if (history_.size() < kHistory) {
    history_.push_back(wire);
  } else {
    history_[history_next_] = wire;
    history_next_ = (history_next_ + 1) % kHistory;
  }
  if (fault_unit(seed_, kMutateSalt, unit, 0) >= opts_.rate)
    return MutationKind::kNone;
  const MutationKind kind = pick_kind(unit);
  if (!apply(kind, wire, unit)) {
    // The aimed-at structure is absent (no bignum field, empty history, ...):
    // fall back to a corruption that always applies and is always caught.
    if (wire.empty() || !apply(MutationKind::kTruncate, wire, unit))
      return MutationKind::kNone;
    ++mutated_;
    return MutationKind::kTruncate;
  }
  ++mutated_;
  return kind;
}

}  // namespace sgk::fault
