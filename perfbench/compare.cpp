// Comparison mode: two result sets -> one ranked verdict table.
//
// A result set is a directory holding <workload>.jsonl, one benchmark
// result line per run. For every workload and metric present in both,
// the table gives parent and change medians with quartiles, the ratio
// change / parent, a bootstrap interval of that ratio, and a verdict.
// Rows are ranked LASSi-style by how much worse the change reads
// against its baseline (the ratio oriented so that > 1 is worse).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <span>

#include "common/json.h"
#include "core/bootstrap.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Series = std::map<std::string, std::vector<double>>;  // metric -> runs

/// Quartiles as Python's statistics.quantiles(xs, n=4) computes them
/// (the "exclusive" method), so figures match that module's.
std::array<double, 3> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto ld = static_cast<long>(xs.size());
  if (ld == 1) return {xs[0], xs[0], xs[0]};
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    q[i - 1] = (xs[j - 1] * (4 - delta) + xs[j] * delta) / 4;
  }
  return q;
}

std::map<std::string, Series> load(const fs::path& dir) {
  std::map<std::string, Series> sets;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".jsonl") continue;
    Series& series = sets[entry.path().stem().string()];
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) {
      if (line.empty()) continue;
      eio::json::Value v = eio::json::parse(line);
      for (const auto& [name, metric] : v.at("metrics").as_object()) {
        series[name].push_back(metric.at("value").as_number());
      }
    }
  }
  return sets;
}

struct Row {
  std::string workload, metric, verdict;
  const MetricSpec* spec;
  std::array<double, 3> p, c;  // quartiles
  double badness;              // > 1: the change reads worse
  double ci_lo, ci_hi;         // bootstrap interval of the badness
};

Row compare_metric(const std::string& workload, const std::string& name,
                   const MetricSpec* spec, const std::vector<double>& parent,
                   const std::vector<double>& change) {
  Row row{workload, name, "", spec, quartiles(parent), quartiles(change), 1.0,
          1.0, 1.0};
  const double mp = row.p[1];
  const double mc = row.c[1];
  const bool higher = spec->higher_is_better;
  auto badness = [&](double c) {
    if (c == mp) return 1.0;
    if (higher) return c == 0 ? std::numeric_limits<double>::infinity() : mp / c;
    return mp == 0 ? std::numeric_limits<double>::infinity() : c / mp;
  };
  row.badness = badness(mc);
  auto median_of = [](std::span<const double> xs) {
    return median(std::vector<double>(xs.begin(), xs.end()));
  };
  eio::stats::Interval ci = eio::stats::bootstrap_interval(change, median_of);
  row.ci_lo = std::min(badness(ci.lo), badness(ci.hi));
  row.ci_hi = std::max(badness(ci.lo), badness(ci.hi));

  // Pairs are runs at the same position (the same seed in both sets).
  std::size_t wins = 0, losses = 0;
  for (std::size_t i = 0; i < std::min(parent.size(), change.size()); ++i) {
    wins += higher ? change[i] > parent[i] : change[i] < parent[i];
    losses += higher ? change[i] < parent[i] : change[i] > parent[i];
  }
  const bool all_better =
      higher ? *std::min_element(change.begin(), change.end()) >
                   *std::max_element(parent.begin(), parent.end())
             : *std::max_element(change.begin(), change.end()) <
                   *std::min_element(parent.begin(), parent.end());
  const double iqr = row.p[2] - row.p[0];
  const double spread = mp == 0 ? 0.0 : iqr / std::abs(mp);
  const double bound = spec->bound;
  if (mp == mc && iqr == 0 && row.c[2] == row.c[0]) {
    row.verdict = "unchanged";
  } else if (parent.size() < 3 || change.size() < 3) {
    row.verdict = "unresolved";  // too few runs to tell noise from change
  } else if (all_better ||
             (row.badness < 1.0 && wins + losses > 0 &&
              static_cast<double>(wins) >= 0.9 * static_cast<double>(wins + losses) &&
              std::abs(mc - mp) > iqr)) {
    row.verdict = "improved";
  } else if (row.badness > 1.0 + bound) {
    row.verdict = row.ci_lo > 1.0 ? "worse" : "unresolved";
  } else if (spec->end_to_end && spread > bound) {
    row.verdict = "unresolved";
  } else {
    row.verdict = "unchanged";
  }
  return row;
}

}  // namespace

int run_compare(const fs::path& parent, const fs::path& change) {
  std::map<std::string, Series> a, b;
  try {
    a = load(parent);
    b = load(change);
  } catch (const std::exception& e) {
    std::cerr << "perfbench compare: " << e.what() << "\n";
    return 1;
  }
  std::vector<Row> rows;
  for (const auto& [workload, pseries] : a) {
    auto it = b.find(workload);
    if (it == b.end()) continue;
    for (const auto& [name, pvalues] : pseries) {
      const MetricSpec* spec = find_metric(name);
      auto cv = it->second.find(name);
      if (spec == nullptr || cv == it->second.end() || pvalues.empty() ||
          cv->second.empty()) {
        continue;
      }
      // A layer the workload does not exercise reads 0 on both sides.
      if (median(pvalues) == 0 && median(cv->second) == 0) continue;
      rows.push_back(compare_metric(workload, name, spec, pvalues, cv->second));
    }
  }
  if (rows.empty()) {
    std::cerr << "perfbench compare: no workload/metric in common\n";
    return 1;
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    return x.badness > y.badness;
  });
  std::printf("%-15s %-30s %-6s %12s %12s %12s %12s %8s %17s  %s\n",
              "workload", "metric", "unit", "parent_p50", "parent_iqr",
              "change_p50", "change_iqr", "ratio", "badness(95% CI)",
              "verdict");
  std::map<std::string, int> tally;
  for (const Row& r : rows) {
    const double ratio = r.p[1] == 0 ? 0.0 : r.c[1] / r.p[1];
    char ci[40];
    std::snprintf(ci, sizeof ci, "%.3f[%.2f,%.2f]", r.badness, r.ci_lo, r.ci_hi);
    std::printf("%-15s %-30s %-6s %12.5g %12.5g %12.5g %12.5g %8.4f %17s  %s\n",
                r.workload.c_str(), r.metric.c_str(), r.spec->unit, r.p[1],
                r.p[2] - r.p[0], r.c[1], r.c[2] - r.c[0], ratio, ci,
                r.verdict.c_str());
    if (r.spec->end_to_end) ++tally[r.verdict];
  }
  std::printf("end-to-end verdicts:");
  for (const auto& [verdict, n] : tally) std::printf(" %s=%d", verdict.c_str(), n);
  std::printf("\n");
  return 0;
}

}  // namespace perfbench
