// Reproduces Figure 14: join and leave on the three-site WAN testbed
// (Figure 13: JHU x11 machines, UCI x1, ICU x1; one-way latencies
// JHU-UCI 17.5 ms, UCI-ICU 150 ms, ICU-JHU 135 ms), DH-512, sizes 2..50.
//
// Expected shape (paper section 6.2):
//  * join: GDH dramatically worst (4 rounds, and its token/factor-out
//    messages travel in agreed order); the others cluster, with CKD's two
//    cheap unicast rounds keeping it competitive; BD grows past ~30; the
//    membership service alone costs 400-700 ms.
//  * leave: BD worst (two rounds of n broadcasts); GDH/CKD/TGDH similar
//    (single broadcast); STR above them due to its linear computation.
//
// The paper's footnote 9 promised 1024-bit WAN results "in the final
// submission"; pass --dh1024 to produce them here.
//
// Usage: fig14_wan [max_size] [--csv out_prefix] [--topology] [--dh1024]
//                  [--json out.json] [--trace out.trace.json]
#include <iostream>
#include <string>

#include "harness/bench_io.h"
#include "harness/report.h"

namespace {
void print_topology(const sgk::Topology& topo) {
  std::cout << "WAN testbed (Figure 13):\n";
  for (std::size_t m = 0; m < topo.machine_count(); ++m) {
    const auto& spec = topo.machine(static_cast<sgk::MachineId>(m));
    std::cout << "  machine " << m << ": site " << topo.site(spec.site).name
              << ", " << spec.cores << " cpu, speed x" << spec.speed << "\n";
  }
  std::cout << "  one-way latencies: JHU-UCI "
            << topo.site_latency(0, 1) << " ms, UCI-ICU "
            << topo.site_latency(1, 2) << " ms, ICU-JHU "
            << topo.site_latency(2, 0) << " ms\n\n";
}
}  // namespace

int main(int argc, char** argv) {
  sgk::BenchOptions opts;
  std::string err;
  if (!sgk::BenchOptions::parse(argc, argv, opts, err)) {
    std::cerr << "error: " << err << "\n";
    return 1;
  }
  std::size_t max_size = 50;
  std::string csv_prefix;
  bool topology_only = false;
  bool dh1024 = false;
  for (std::size_t i = 0; i < opts.rest.size(); ++i) {
    if (opts.rest[i] == "--csv" && i + 1 < opts.rest.size()) {
      csv_prefix = opts.rest[++i];
    } else if (opts.rest[i] == "--topology") {
      topology_only = true;
    } else if (opts.rest[i] == "--dh1024") {
      dh1024 = true;
    } else if (!sgk::parse_count(opts.rest[i], 2, max_size)) {
      std::cerr << "error: bad argument '" << opts.rest[i] << "'\n"
                << "usage: fig14_wan [max_size >= 2] [--csv out_prefix] "
                   "[--topology] [--dh1024]\n"
                   "       [--json out.json] [--trace out.trace.json]\n";
      return 2;
    }
  }

  sgk::Topology topo = sgk::wan_testbed();
  print_topology(topo);
  if (topology_only) return 0;

  sgk::SweepConfig cfg;
  cfg.topology = topo;
  cfg.max_size = max_size;
  cfg.seed_base = opts.seed;
  if (dh1024) cfg.dh_bits = sgk::DhBits::k1024;
  const char* bits_label = dh1024 ? "1024" : "512";

  sgk::ObsSession session(opts);
  sgk::obs::RunReport report("fig14_wan");
  {
    sgk::obs::Json params = sgk::obs::Json::object();
    params.set("max_size", sgk::obs::Json(static_cast<std::uint64_t>(max_size)));
    params.set("topology", sgk::obs::Json("wan"));
    params.set("dh_bits", sgk::obs::Json(bits_label));
    report.add_section("params", std::move(params));
  }
  sgk::obs::Json sweeps = sgk::obs::Json::object();

  sgk::SweepResult join = sgk::sweep_join(cfg);
  sgk::print_sweep_table(std::cout,
                         std::string("Figure 14 (left): join, WAN, DH ") +
                             bits_label + " bits",
                         join, 4);
  sgk::print_sweep_summary(std::cout, join);
  sweeps.set("join", sgk::sweep_to_json(join));
  if (!csv_prefix.empty()) {
    std::string csv_err;
    if (!sgk::write_sweep_csv(csv_prefix + "_join.csv", join, &csv_err))
      std::cerr << "error: " << csv_err << "\n";
  }
  std::cout << "\n";

  sgk::SweepResult leave = sgk::sweep_leave(cfg);
  sgk::print_sweep_table(std::cout,
                         std::string("Figure 14 (right): leave, WAN, DH ") +
                             bits_label + " bits",
                         leave, 4);
  sgk::print_sweep_summary(std::cout, leave);
  sweeps.set("leave", sgk::sweep_to_json(leave));
  if (!csv_prefix.empty()) {
    std::string csv_err;
    if (!sgk::write_sweep_csv(csv_prefix + "_leave.csv", leave, &csv_err))
      std::cerr << "error: " << csv_err << "\n";
  }
  report.add_section("sweeps", std::move(sweeps));

  return session.finish(report) ? 0 : 1;
}
