// Wall-clock trajectory report: compares the per-site p50_ns cells of the
// "wallclock" section of a BENCH_*.json, written by a bench run with
// --wallclock --json, against a committed baseline under
// bench/baselines/wall/. Host time is machine noise by nature, so the
// report never fails on a slowdown: a site whose p50 grew by more than 60%
// (plus a 100 ns floor) prints a "WALL REGRESSION" line, and a site the
// baseline lacks prints a "new" line. The deterministic sections need no
// tool: virtual time regenerates them byte for byte, so CI compares each
// report with its committed baseline by diff.
//
// The two documents must come from the same bench (their "bench" keys):
// wall numbers of different benches time different work, so such a pairing
// is refused (exit 2) instead of passing as "0 cells compared" or as a
// comparison of unrelated runs. Multi-threaded benches
// record their thread count in the wallclock env (bench_io --threads). Wall
// numbers from different thread counts are not comparable, so when both
// documents record one and they differ, the pairing is refused (exit 2). A
// document that is not a sgk-bench report or has no wallclock.sites object
// is refused too; otherwise the exit code is 0.
//
// Usage: bench_gate <baseline.json> <current.json>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/run_report.h"

namespace {

using sgk::obs::Json;

// A site must slow down by more than this share of its baseline p50, plus
// kWallEpsilonNs, before it counts as a wall regression. The floor keeps
// sites near the timer resolution, which jitter far more in absolute terms
// than in ratio, from reporting.
constexpr double kWallTolerance = 0.60;
constexpr double kWallEpsilonNs = 100.0;

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open '" + path + "' for reading";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// Flat map of wall-clock cell name -> value, e.g.
//   "wall/bignum/modexp_full/p50_ns".
std::map<std::string, double> wall_cells(const Json& sites) {
  std::map<std::string, double> cells;
  for (const auto& [site, stats] : sites.as_object())
    if (const Json* p50 = stats.find("p50_ns"); p50 && p50->is_number())
      cells["wall/" + site + "/p50_ns"] = p50->as_number();
  return cells;
}

// The report's "bench" key (the bench program's name), or "" when it has none.
std::string bench_name(const Json& doc) {
  const Json* bench = doc.find("bench");
  return bench != nullptr && bench->is_string() ? bench->as_string() : std::string();
}

// Thread count recorded in the wallclock env by bench_io --threads, or 0
// when the document never recorded one.
int wall_threads(const Json& wall) {
  const Json* env = wall.find("env");
  if (env == nullptr) return 0;
  const Json* threads = env->find("threads");
  if (threads == nullptr || !threads->is_number()) return 0;
  return static_cast<int>(threads->as_number());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: bench_gate <baseline.json> <current.json>\n");
    return 2;
  }

  Json docs[2];
  const Json* walls[2] = {nullptr, nullptr};
  const Json* sites[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    const char* path = argv[i + 1];
    std::string text, error;
    if (!read_file(path, text, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    try {
      docs[i] = Json::parse(text);
    } catch (const sgk::obs::JsonError& e) {
      std::fprintf(stderr, "error: %s: %s\n", path, e.what());
      return 2;
    }
    const Json* schema = docs[i].find("schema");
    if (schema == nullptr || !schema->is_string() ||
        (schema->as_string() != sgk::obs::kBenchSchema &&
         schema->as_string() != sgk::obs::kBenchSchemaWallclock &&
         schema->as_string() != sgk::obs::kBenchSchemaBatch)) {
      std::fprintf(stderr, "error: '%s' is not a sgk-bench document\n", path);
      return 2;
    }
    walls[i] = docs[i].find("wallclock");
    sites[i] = walls[i] ? walls[i]->find("sites") : nullptr;
    if (sites[i] == nullptr || !sites[i]->is_object()) {
      std::fprintf(stderr,
                   "error: '%s' has no wallclock.sites object (run the bench "
                   "with --wallclock)\n",
                   path);
      return 2;
    }
  }

  const std::string base_bench = bench_name(docs[0]);
  const std::string cur_bench = bench_name(docs[1]);
  if (base_bench != cur_bench) {
    std::fprintf(stderr,
                 "error: the reports come from different benches (baseline "
                 "'%s' vs current '%s'); their wall sites are not comparable\n",
                 base_bench.c_str(), cur_bench.c_str());
    return 2;
  }

  // Refuse wall comparisons across different recorded thread counts: those
  // numbers measure different machines-worth of parallelism.
  const int base_threads = wall_threads(*walls[0]);
  const int cur_threads = wall_threads(*walls[1]);
  if (base_threads != 0 && cur_threads != 0 && base_threads != cur_threads) {
    std::fprintf(stderr,
                 "error: wallclock thread counts differ (baseline --threads "
                 "%d vs current --threads %d); these wall numbers are not "
                 "comparable — rerun with matching --threads\n",
                 base_threads, cur_threads);
    return 2;
  }

  const std::map<std::string, double> base = wall_cells(*sites[0]);
  const std::map<std::string, double> cur = wall_cells(*sites[1]);
  int regressions = 0, compared = 0;
  for (const auto& [key, base_value] : base) {
    auto it = cur.find(key);
    if (it == cur.end()) {
      std::printf("WALL MISSING %s (baseline %.0f)\n", key.c_str(), base_value);
      continue;
    }
    ++compared;
    const double limit = base_value * (1.0 + kWallTolerance) + kWallEpsilonNs;
    if (it->second > limit) {
      ++regressions;
      std::printf("WALL REGRESSION %s: %.0f -> %.0f (limit %.0f)\n",
                  key.c_str(), base_value, it->second, limit);
    }
  }
  for (const auto& [key, value] : cur)
    if (base.find(key) == base.end())
      std::printf("new %s = %.0f\n", key.c_str(), value);
  std::printf("bench_gate wall: %d cells compared, %d regressions "
              "(tolerance %.0f%%, report-only)\n",
              compared, regressions, kWallTolerance * 100.0);
  return 0;
}
