namespace sgk {

// Mutable top-level structure in a simulation subsystem without an
// SGK_CONFINED_TO_RUN marker: with worker threads advancing groups, nobody
// knows whether this may be shared. GKA504.
struct RunStats {
  int events_handled = 0;
  double virtual_ms = 0.0;
};

void bump(RunStats& s) { ++s.events_handled; }

}  // namespace sgk
