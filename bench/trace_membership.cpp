// Records a Chrome trace of a short membership-event sequence: grow a group
// to n-1 members, then trace one measured join followed by one leave. The
// --trace output opens in chrome://tracing or https://ui.perfetto.dev with
// one root span per membership event on the "membership events" track and
// per-machine compute/instant tracks below it (see docs/observability.md).
//
// Usage: trace_membership [protocol] [n] [--json out.json]
//                         [--trace out.trace.json] [--wallclock]
//        protocol: GDH | CKD | TGDH | TGDH-bal | STR | BD, any case
//                  (default TGDH)
//        n: group size after the join                       (default 16)
//
// With --wallclock the trace gains a second track (pid 1, "wall clock
// (host)") carrying the calibrated host-ns spans of the same run, so the
// virtual and real timelines sit side by side in Perfetto.
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_io.h"

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  sgk::ProtocolKind kind = sgk::ProtocolKind::kTgdh;
  std::size_t n = 16;
  for (const std::string& arg : opts.rest) {
    // One protocol name (case-insensitive); "all" is not a single protocol.
    std::vector<sgk::ProtocolKind> named;
    if (sgk::parse_protocols(arg, named) && named.size() == 1) {
      kind = named.front();
      continue;
    }
    // Otherwise a group size.
    if (!sgk::parse_count(arg, 0, n)) {
      std::cerr << "error: '" << arg << "' is neither one protocol nor a group size\n"
                << "usage: trace_membership [protocol] [n] [--json out.json]\n"
                   "                        [--trace out.trace.json] [--wallclock]\n"
                   "       protocol: GDH | CKD | TGDH | TGDH-bal | STR | BD, any case\n";
      return 2;
    }
  }
  if (n < 2) {
    std::cerr << "error: n must be at least 2\n";
    return 1;
  }

  sgk::ObsSession session(opts);
  sgk::ExperimentConfig ec;
  ec.protocol = kind;
  ec.seed = 7;
  sgk::Experiment exp(ec);
  exp.grow_to(n - 1);
  const sgk::EventResult join = exp.measure_join();
  const sgk::EventResult leave = exp.measure_leave(sgk::LeavePolicy::kMiddle);

  std::cout << sgk::to_string(kind) << " n=" << n
            << ": join " << join.elapsed_ms << " ms, leave " << leave.elapsed_ms
            << " ms\n";
  if (opts.trace_path.empty() && opts.json_path.empty())
    std::cout << "(pass --trace out.trace.json to record a Perfetto trace)\n";

  sgk::obs::RunReport report("trace_membership");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("protocol", sgk::obs::Json(sgk::to_string(kind)));
    params.set("n", sgk::obs::Json(static_cast<std::uint64_t>(n)));
    report.add_section("params", std::move(params));
  }
  {
    sgk::obs::Json events = sgk::obs::Json::object();
    events.set("join_ms", sgk::obs::Json(join.elapsed_ms));
    events.set("leave_ms", sgk::obs::Json(leave.elapsed_ms));
    report.add_section("events", std::move(events));
  }
  return session.finish(report) ? 0 : 1;
}
