#include "core/key_agreement.h"

#include <algorithm>

#include "core/bd.h"
#include "core/ckd.h"
#include "core/gdh.h"
#include "core/str.h"
#include "core/tgdh.h"
#include "util/check.h"

namespace sgk {

const char* to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kGdh: return "GDH";
    case ProtocolKind::kCkd: return "CKD";
    case ProtocolKind::kTgdh: return "TGDH";
    case ProtocolKind::kTgdhBalanced: return "TGDH-bal";
    case ProtocolKind::kStr: return "STR";
    case ProtocolKind::kBd: return "BD";
    case ProtocolKind::kNone: return "none";
  }
  return "?";
}

void KeyAgreement::on_view(const View& view, const ViewDelta& delta) {
  restarting_ = in_flight_;
  if (in_flight_) {
    // Secure Spread rule: the membership changed under a running agreement.
    // Abort it (handle_view discards transient state) and restart on the
    // newest view.
    ++restarts_;
    host_.mark_point("agreement_restart");
  }
  in_flight_ = true;
  ++started_;
  handle_view(view, delta);
}

void KeyAgreement::on_message(ProcessId sender, const Bytes& body) {
  handle_message(sender, body);
}

void KeyAgreement::note_key_delivered() {
  if (in_flight_) {
    in_flight_ = false;
    ++completed_;
  }
}

namespace {
/// The null protocol: completes instantly with a fixed key. Measures the
/// bare membership service (the baseline series in the paper's figures).
class NullProtocol final : public KeyAgreement {
 public:
  explicit NullProtocol(ProtocolHost& host) : KeyAgreement(host) {}
  ProtocolKind kind() const override { return ProtocolKind::kNone; }

 protected:
  void handle_view(const View& view, const ViewDelta&) override {
    host_.deliver_key(BigInt(view.view_id + 1));
  }
  void handle_message(ProcessId, const Bytes&) override {}
};
}  // namespace

std::unique_ptr<KeyAgreement> make_protocol(ProtocolKind kind, ProtocolHost& host) {
  switch (kind) {
    case ProtocolKind::kGdh: return std::make_unique<GdhProtocol>(host);
    case ProtocolKind::kCkd: return std::make_unique<CkdProtocol>(host);
    case ProtocolKind::kTgdh: return std::make_unique<TgdhProtocol>(host);
    case ProtocolKind::kTgdhBalanced:
      return std::make_unique<TgdhProtocol>(host, /*eager_balance=*/true);
    case ProtocolKind::kStr: return std::make_unique<StrProtocol>(host);
    case ProtocolKind::kBd: return std::make_unique<BdProtocol>(host);
    case ProtocolKind::kNone: return std::make_unique<NullProtocol>(host);
  }
  SGK_CHECK(false);
  return nullptr;
}

const std::vector<ProcessId>* core_side(const ViewDelta& delta) {
  const std::vector<ProcessId>* best = nullptr;
  for (const auto& side : delta.sides) {
    if (side.empty()) continue;
    if (best == nullptr || side.size() > best->size() ||
        (side.size() == best->size() && side.front() < best->front())) {
      best = &side;
    }
  }
  return best;
}

void put_bigint(Writer& w, const BigInt& v) { v.write_bytes(w.field(v.byte_length())); }

BigInt get_bigint(Reader& r) { return BigInt::from_bytes(r.bytes_view()); }

bool in_group_range(const BigInt& v, const BigInt& p) {
  // v >= 2, and p - v >= 2 by one borrow pass over p's limbs.
  const auto& vl = v.limbs();
  const auto& pl = p.limbs();
  if (vl.size() > pl.size() || vl.empty() || (vl.size() == 1 && vl[0] < 2)) return false;
  std::uint64_t borrow = 0;
  std::uint64_t low = 0;    // limb 0 of p - v
  std::uint64_t high = 0;   // OR of its other limbs
  for (std::size_t i = 0; i < pl.size(); ++i) {
    std::uint64_t d;
    const bool b1 = __builtin_sub_overflow(pl[i], i < vl.size() ? vl[i] : 0, &d);
    const bool b2 = __builtin_sub_overflow(d, borrow, &d);
    borrow = static_cast<std::uint64_t>(b1 || b2);
    if (i == 0)
      low = d;
    else
      high |= d;
  }
  return borrow == 0 && (high != 0 || low >= 2);
}

}  // namespace sgk
