// Reproduces Figures 11 and 12: average time to establish a secure
// membership after a JOIN (Figure 11) or a LEAVE (Figure 12), on the
// 13-machine LAN testbed, for DH-512 and DH-1024, group sizes 2..50 (size
// before the leave), all five protocols plus the bare membership service.
// This one source builds both binaries: SGK_LAN_FIGURE (11 or 12, set in
// bench/CMakeLists.txt) picks the event.
//
// Figure 11, expected shape (paper section 6.1.3):
//  * 512-bit: BD cheapest-ish for small groups but deteriorates rapidly,
//    doubling every 13 members (CPU contention), worst past ~30; STR/TGDH
//    close and best at scale; GDH/CKD linear with GDH above CKD.
//  * 1024-bit: GDH worst (expensive exponentiations dominate); BD stays
//    competitive up to ~24 members.
//
// Figure 12 test scenarios follow section 6.1.2: STR removes the middle
// member (its average case); the other protocols remove a uniformly random
// member, which realizes CKD's 1/n probability of losing the controller
// (visible as spikes that average out over seeds).
//
// Figure 12, expected shape (paper section 6.1.4):
//  * 512-bit: TGDH clearly best (sub-linear), BD worst at every size,
//    STR/CKD/GDH linear with STR's slope steepest.
//  * 1024-bit: STR most expensive, TGDH remains the leader, BD no longer
//    worst and close to GDH for smaller groups.
//
// Usage: fig11_join_lan [max_size] [--csv out_prefix]
//                       [--json out.json] [--trace out.trace.json]
//        fig12_leave_lan [max_size] [--seeds k] [--csv out_prefix]
//                        [--json out.json] [--trace out.trace.json]
#include <iostream>
#include <string>

#include "harness/bench_io.h"
#include "harness/report.h"

namespace {

struct Figure {
  const char* bench;  // binary and report name
  const char* title;  // table title prefix
  const char* event;  // "event" param, sweep-key and CSV prefix
  bool seeds_flag;    // takes --seeds (default 3) and records it in params
  sgk::SweepResult (*sweep)(const sgk::SweepConfig&);
};

static_assert(SGK_LAN_FIGURE == 11 || SGK_LAN_FIGURE == 12);
constexpr Figure kFigure =
    SGK_LAN_FIGURE == 11
        ? Figure{"fig11_join_lan", "Figure 11: join", "join", false,
                 &sgk::sweep_join}
        : Figure{"fig12_leave_lan", "Figure 12: leave", "leave", true,
                 &sgk::sweep_leave};

}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  std::size_t max_size = 50;
  std::size_t seeds = 3;
  std::string csv_prefix;
  for (std::size_t i = 0; i < opts.rest.size(); ++i) {
    bool ok = true;
    if (opts.rest[i] == "--csv" && i + 1 < opts.rest.size()) {
      csv_prefix = opts.rest[++i];
    } else if (kFigure.seeds_flag && opts.rest[i] == "--seeds" &&
               i + 1 < opts.rest.size()) {
      ok = sgk::parse_count(opts.rest[++i], 1, seeds);
    } else {
      ok = sgk::parse_count(opts.rest[i], 2, max_size);
    }
    if (!ok) {
      std::cerr << "error: bad argument '" << opts.rest[i] << "'\n"
                << "usage: " << kFigure.bench << " [max_size >= 2]"
                << (kFigure.seeds_flag ? " [--seeds k >= 1]" : "")
                << " [--csv out_prefix]\n"
                   "       [--json out.json] [--trace out.trace.json]\n";
      return 2;
    }
  }

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report(kFigure.bench);
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("max_size", sgk::obs::Json(static_cast<std::uint64_t>(max_size)));
    if (kFigure.seeds_flag)
      params.set("seeds", sgk::obs::Json(static_cast<std::int64_t>(seeds)));
    params.set("topology", sgk::obs::Json("lan"));
    params.set("event", sgk::obs::Json(kFigure.event));
    report.add_section("params", std::move(params));
  }

  const std::string event = kFigure.event;
  sgk::obs::Json sweeps = sgk::obs::Json::object();
  for (sgk::DhBits bits : {sgk::DhBits::k512, sgk::DhBits::k1024}) {
    const char* label = bits == sgk::DhBits::k512 ? "512" : "1024";
    sgk::SweepConfig cfg;
    cfg.dh_bits = bits;
    cfg.max_size = max_size;
    if (kFigure.seeds_flag) cfg.seeds = static_cast<int>(seeds);
    cfg.seed_base = opts.seed;
    sgk::SweepResult result = kFigure.sweep(cfg);
    sgk::print_sweep_table(std::cout,
                           std::string(kFigure.title) + ", LAN, DH " + label +
                               " bits (avg total time, ms)",
                           result, 4);
    sgk::print_sweep_summary(std::cout, result);
    sweeps.set(event + "_" + label, sgk::sweep_to_json(result));
    if (!csv_prefix.empty()) {
      std::string csv_err;
      if (!sgk::write_sweep_csv(csv_prefix + "_" + event + "_" + label + ".csv",
                                result, &csv_err))
        std::cerr << "error: " << csv_err << "\n";
    }
    std::cout << "\n";
  }
  report.add_section("sweeps", std::move(sweeps));

  return session.finish(report) ? 0 : 1;
}
