// Reproduces Table 1: communication and computation costs of the five
// protocols for join / leave / merge / partition.
//
// The paper's table gives closed-form *serial* costs (parallel computation
// collapsed). This harness runs each event on an instrumented deployment and
// prints, next to the paper's formulas evaluated at the experiment's
// parameters, the measured message counts and the measured exponentiation /
// signature / verification counts (both the heaviest single member — the
// serial bottleneck — and the group-wide total, which the paper explicitly
// does NOT tabulate).
//
// Counting convention: key-confirmation recomputation is disabled, matching
// the optimization the paper applies when counting exponentiations (sec. 5).
//
// Usage: table1_costs [n >= 2] [m >= 1] [l in [1, n-1]] [--json out.json]
//                     [--trace out.trace.json]   (defaults n=16, m=4, l=4)
#include <cmath>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_io.h"
#include "harness/experiment.h"

namespace sgk {
namespace {

struct Row {
  std::string protocol;
  std::string event;
  std::string paper_rounds;
  std::string paper_msgs;
  std::string paper_exps;  // serial
  std::string paper_sig;
  std::string paper_ver;
  EventResult measured;
};

std::string fmt_counts(const OpCounters& c) {
  std::string out = std::to_string(c.multicasts) + "mc";
  if (c.ordered_sends) {
    out += "+";
    out += std::to_string(c.ordered_sends);
    out += "ord";
  }
  if (c.unicasts) {
    out += "+";
    out += std::to_string(c.unicasts);
    out += "uni";
  }
  return out;
}

void print_rows(const std::vector<Row>& rows) {
  std::cout << std::left << std::setw(6) << "proto" << std::setw(11) << "event"
            << std::setw(10) << "rnds(p)" << std::setw(9) << "msgs(p)"
            << std::setw(15) << "msgs(meas)" << std::setw(16) << "exps(p)"
            << std::setw(9) << "exp(max)" << std::setw(9) << "exp(tot)"
            << std::setw(7) << "sig(p)" << std::setw(9) << "sig(tot)"
            << std::setw(8) << "ver(p)" << std::setw(9) << "ver(max)"
            << std::setw(10) << "hash(tot)" << std::setw(10) << "drbgB(tot)"
            << std::setw(10) << "bytes" << "\n";
  for (const Row& r : rows) {
    std::cout << std::left << std::setw(6) << r.protocol << std::setw(11)
              << r.event << std::setw(10) << r.paper_rounds << std::setw(9)
              << r.paper_msgs << std::setw(15) << fmt_counts(r.measured.total)
              << std::setw(16) << r.paper_exps << std::setw(9)
              << r.measured.max_member.exp_total() << std::setw(9)
              << r.measured.total.exp_total() << std::setw(7) << r.paper_sig
              << std::setw(9) << r.measured.total.sign_ops << std::setw(8)
              << r.paper_ver << std::setw(9) << r.measured.max_member.verify_ops
              << std::setw(10) << r.measured.total.hash_ops << std::setw(10)
              << r.measured.total.drbg_bytes << std::setw(10)
              << r.measured.total.bytes_sent << "\n";
  }
}

obs::Json rows_to_json(const std::vector<Row>& rows) {
  obs::Json out = obs::Json::array();
  for (const Row& r : rows) {
    obs::Json row = obs::Json::object();
    row.set("protocol", obs::Json(r.protocol));
    row.set("event", obs::Json(r.event));
    row.set("elapsed_ms", obs::Json(r.measured.elapsed_ms));
    row.set("multicasts", obs::Json(r.measured.total.multicasts));
    row.set("ordered_sends", obs::Json(r.measured.total.ordered_sends));
    row.set("unicasts", obs::Json(r.measured.total.unicasts));
    row.set("bytes_sent", obs::Json(r.measured.total.bytes_sent));
    row.set("exp_max", obs::Json(r.measured.max_member.exp_total()));
    row.set("exp_total", obs::Json(r.measured.total.exp_total()));
    row.set("sign_total", obs::Json(r.measured.total.sign_ops));
    row.set("verify_max", obs::Json(r.measured.max_member.verify_ops));
    row.set("hash_total", obs::Json(r.measured.total.hash_ops));
    row.set("drbg_bytes_total", obs::Json(r.measured.total.drbg_bytes));
    out.push(std::move(row));
  }
  return out;
}

/// Paper formulas (Table 1), evaluated with the run's n, m, l. Cells the
/// scanned table leaves ambiguous are rendered with '~'.
struct Formulas {
  std::size_t n, m, l;
  std::size_t h() const {
    return static_cast<std::size_t>(std::ceil(std::log2(std::max<std::size_t>(n, 2))));
  }
};

Experiment make_experiment(ProtocolKind kind, std::size_t machines) {
  ExperimentConfig ec;
  ec.topology = lan_testbed(static_cast<int>(machines));
  ec.protocol = kind;
  ec.seed = 7;
  // Table 1 counts assume the blinded-key recomputation optimization.
  // (The figures' timing experiments keep it on, like the measured system.)
  ec.key_confirmation = false;
  return Experiment(ec);
}

}  // namespace
}  // namespace sgk

int main(int argc, char** argv) {
  using namespace sgk;
  BenchOptions opts;
  std::string opt_err;
  if (!BenchOptions::parse(argc, argv, opts, opt_err)) {
    std::cerr << "error: " << opt_err << "\n";
    return 1;
  }
  std::size_t n = 16, m = 4, l = 4;
  // The smallest sizes every event runs with: a group of two, one merging
  // member, and a partition that leaves at least one member behind.
  const bool args_ok =
      opts.rest.size() <= 3 &&
      (opts.rest.size() < 1 || parse_count(opts.rest[0], 2, n)) &&
      (opts.rest.size() < 2 || parse_count(opts.rest[1], 1, m)) &&
      (opts.rest.size() < 3 || parse_count(opts.rest[2], 1, l)) && l < n;
  if (!args_ok) {
    std::cerr << "usage: table1_costs [n >= 2] [m >= 1] [l in [1, n-1]] "
                 "[--json out.json] [--trace out.trace.json]\n"
                 "       (defaults n=16, m=4, l=4)\n";
    return 2;
  }
  Formulas f{n, m, l};
  ObsSession session(opts);
  const std::string N = std::to_string(n);
  const std::string H = std::to_string(f.h());

  std::cout << "Table 1 reproduction: n=" << n << " current members, m=" << m
            << " merging, l=" << l << " leaving, h=" << f.h()
            << " (tree height bound)\n"
            << "(p) = paper's closed form evaluated at these parameters;\n"
            << "exp(max)/ver(max) = heaviest single member (serial "
               "bottleneck); (tot) = summed over members.\n\n";

  std::vector<Row> rows;
  const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kGdh, ProtocolKind::kTgdh, ProtocolKind::kStr,
      ProtocolKind::kBd, ProtocolKind::kCkd};

  for (ProtocolKind kind : kinds) {
    const std::string P = to_string(kind);

    // ---- join: group of n -> n+1 (paper's n = size before the join) --------
    {
      Experiment exp = make_experiment(kind, 13);
      exp.grow_to(n);
      EventResult r = exp.measure_join();
      Row row{P, "join", "", "", "", "", "", r};
      switch (kind) {
        case ProtocolKind::kGdh:
          row.paper_rounds = "4";
          row.paper_msgs = std::to_string(n + 3);
          row.paper_exps = std::to_string(n + 3);
          row.paper_sig = "4";
          row.paper_ver = std::to_string(n + 3);
          break;
        case ProtocolKind::kTgdh:
          row.paper_rounds = "2";
          row.paper_msgs = "3";
          row.paper_exps = "~2h=" + std::to_string(2 * f.h());
          row.paper_sig = "2";
          row.paper_ver = "3";
          break;
        case ProtocolKind::kStr:
          row.paper_rounds = "2";
          row.paper_msgs = "3";
          row.paper_exps = "7";
          row.paper_sig = "2";
          row.paper_ver = "3";
          break;
        case ProtocolKind::kBd:
          row.paper_rounds = "2";
          row.paper_msgs = std::to_string(2 * (n + 1));
          row.paper_exps = "3(+n-1 small)";
          row.paper_sig = "2";
          row.paper_ver = std::to_string(2 * n);
          break;
        case ProtocolKind::kCkd:
          row.paper_rounds = "3";
          row.paper_msgs = "3";
          row.paper_exps = "~n+2=" + std::to_string(n + 2);
          row.paper_sig = "3";
          row.paper_ver = "3";
          break;
        default:
          break;
      }
      rows.push_back(std::move(row));
    }

    // ---- leave: group of n -> n-1 ------------------------------------------
    {
      Experiment exp = make_experiment(kind, 13);
      exp.grow_to(n);
      EventResult r = exp.measure_leave(LeavePolicy::kMiddle);
      Row row{P, "leave", "", "", "", "", "", r};
      switch (kind) {
        case ProtocolKind::kGdh:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = std::to_string(n - 1);
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        case ProtocolKind::kTgdh:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = "~2h=" + std::to_string(2 * f.h());
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        case ProtocolKind::kStr:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = "~3n/2+2=" + std::to_string(3 * n / 2 + 2);
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        case ProtocolKind::kBd:
          row.paper_rounds = "2";
          row.paper_msgs = std::to_string(2 * (n - 1));
          row.paper_exps = "3(+n-3 small)";
          row.paper_sig = "2";
          row.paper_ver = std::to_string(2 * (n - 2));
          break;
        case ProtocolKind::kCkd:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = std::to_string(n - 1);
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        default:
          break;
      }
      rows.push_back(std::move(row));
    }

    // ---- merge: n members + m members (network heal) ------------------------
    {
      Experiment exp = make_experiment(kind, n + m);
      exp.grow_to(n + m);  // one member per machine
      std::vector<std::vector<MachineId>> parts(2);
      for (std::size_t i = 0; i < n + m; ++i)
        parts[i < n ? 0 : 1].push_back(static_cast<MachineId>(i));
      exp.measure_partition(parts);
      EventResult r = exp.measure_merge();
      Row row{P, "merge", "", "", "", "", "", r};
      switch (kind) {
        case ProtocolKind::kGdh:
          row.paper_rounds = std::to_string(m + 3);
          row.paper_msgs = std::to_string(n + 2 * m + 1);
          row.paper_exps = "~n+2m+1=" + std::to_string(n + 2 * m + 1);
          row.paper_sig = std::to_string(m + 3);
          row.paper_ver = "~n+m+2=" + std::to_string(n + m + 2);
          break;
        case ProtocolKind::kTgdh:
          row.paper_rounds = "2";
          row.paper_msgs = "3";
          row.paper_exps = "~2h";
          row.paper_sig = "2";
          row.paper_ver = "3";
          break;
        case ProtocolKind::kStr:
          row.paper_rounds = "2";
          row.paper_msgs = "3";
          row.paper_exps = "~2m+4=" + std::to_string(2 * m + 4);
          row.paper_sig = "2";
          row.paper_ver = "3";
          break;
        case ProtocolKind::kBd:
          row.paper_rounds = "2";
          row.paper_msgs = std::to_string(2 * (n + m));
          row.paper_exps = "3(+small)";
          row.paper_sig = "2";
          row.paper_ver = std::to_string(2 * (n + m - 1));
          break;
        case ProtocolKind::kCkd:
          row.paper_rounds = "3";
          row.paper_msgs = std::to_string(m + 2);
          row.paper_exps = "~n+2m+1=" + std::to_string(n + 2 * m + 1);
          row.paper_sig = "3";
          row.paper_ver = std::to_string(m + 2);
          break;
        default:
          break;
      }
      rows.push_back(std::move(row));
    }

    // ---- partition: l members leave at once ---------------------------------
    {
      Experiment exp = make_experiment(kind, 13);
      exp.grow_to(n);
      EventResult r = exp.measure_multi_leave(l);
      Row row{P, "partition", "", "", "", "", "", r};
      switch (kind) {
        case ProtocolKind::kGdh:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = std::to_string(n - l);
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        case ProtocolKind::kTgdh:
          row.paper_rounds = "<=h=" + H;
          row.paper_msgs = "<=2h";
          row.paper_exps = "~3h";
          row.paper_sig = "<=h";
          row.paper_ver = "<=2h";
          break;
        case ProtocolKind::kStr:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = "~3n/2+2";
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        case ProtocolKind::kBd:
          row.paper_rounds = "2";
          row.paper_msgs = std::to_string(2 * (n - l));
          row.paper_exps = "3(+small)";
          row.paper_sig = "2";
          row.paper_ver = std::to_string(2 * (n - l - 1));
          break;
        case ProtocolKind::kCkd:
          row.paper_rounds = "1";
          row.paper_msgs = "1";
          row.paper_exps = std::to_string(n - l);
          row.paper_sig = "1";
          row.paper_ver = "1";
          break;
        default:
          break;
      }
      rows.push_back(std::move(row));
    }
  }

  print_rows(rows);

  obs::RunReport report("table1_costs");
  {
    obs::Json params = obs::Json::object();
    params.set("n", obs::Json(static_cast<std::uint64_t>(n)));
    params.set("m", obs::Json(static_cast<std::uint64_t>(m)));
    params.set("l", obs::Json(static_cast<std::uint64_t>(l)));
    report.add_section("params", std::move(params));
  }
  report.add_section("table", rows_to_json(rows));
  if (!session.finish(report)) return 1;

  std::cout << "\nNotes:\n"
            << " * measured msgs include every signed protocol message the "
               "group sent for the event;\n"
            << " * BD's exp counts include its small-exponent step-3 "
               "exponentiations (the paper's 'hidden cost');\n"
            << " * bytes = total signed protocol traffic for the event (the "
               "paper calls GDH bandwidth-efficient: compare its "
               "leave/partition bytes);\n"
            << " * TGDH/STR run here without key-confirmation recomputation, "
               "matching the paper's counting convention.\n";
  return 0;
}
