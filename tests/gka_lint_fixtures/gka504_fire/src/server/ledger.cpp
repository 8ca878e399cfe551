#include "util/thread_annotations.h"

namespace sgk::server {

// One ledger shared by every worker behind a mutex: groups share no mutable
// state, so a lock in the multi-group server means they have started to.
// The confinement marker does not excuse the lock member. GKA504.
class EpochLedger {
  SGK_CONFINED_TO_RUN;

 public:
  void bump() {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    ++epochs_run_;
  }

 private:
  std::mutex ledger_mu_;
  int epochs_run_ = 0;
};

}  // namespace sgk::server
