namespace sgk::server {

// Namespace-scope constants are fine; mutable tallies live in classified
// per-run structures.
constexpr int kMaxShards = 16;

struct OnboardTally {
  SGK_CONFINED_TO_RUN;  // one epoch's tally, owned by a single worker
  int groups = 0;
};

void bump(OnboardTally& t) { ++t.groups; }

}  // namespace sgk::server
