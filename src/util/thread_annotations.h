// Concurrency classification for mutable structures under src/sim, src/gcs
// and src/server, checked by gka_lint's GKA504.
//
// Groups share no mutable state (docs/multi_group.md), so these subsystems
// take no locks. Every mutable structure there instead carries this marker,
// claiming it is owned by one simulation run (one group's replay, or the
// orchestrator that drives it) and touched by one thread at a time, with the
// executor's epoch barrier ordering any hand-off between threads:
//
//   class Simulator {
//     SGK_CONFINED_TO_RUN;  // owned by one run, never shared
//     ...
//   };
//
// An unclassified mutable structure, or one that holds a mutex or condition
// variable, is a GKA504 error.
#pragma once

/// gka_lint-only classification marker (GKA504): this mutable structure is
/// confined to a single simulation run by construction and carries no
/// locks. Expands to a harmless declaration so it can sit inside a class
/// body followed by ';'.
#define SGK_CONFINED_TO_RUN \
  static_assert(true, "sgk: confined to one simulation run")
