#include "util/thread_annotations.h"

namespace sgk::server {

// Classified: each group keeps its own ledger, advanced by whichever worker
// claimed the group this epoch (the epoch barrier orders the hand-offs), so
// it needs no lock. The server folds the ledgers on the main thread.
class EpochLedger {
  SGK_CONFINED_TO_RUN;

 public:
  void bump() { ++epochs_run_; }
  int epochs_run() const { return epochs_run_; }

 private:
  int epochs_run_ = 0;
};

}  // namespace sgk::server
