// The measurement harness shared by every workload: run options, the
// metric table, correctness accounting, repeated timing, peak-RSS
// probes, the traced-run layer table, and the result line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

namespace fs = std::filesystem;

/// One invocation: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  fs::path work;  ///< scratch directory, removed when the run ends
  fs::path out;   ///< traced-run artifacts (Chrome trace, layer table)
};

/// One row of the metric table. End-to-end metrics carry the bound by
/// which they may worsen (a share of the baseline median); per-layer
/// metrics have none.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  double bound;  ///< 0 for per-layer metrics
  bool end_to_end;
};

/// Every metric the benchmark reports, end-to-end first. BENCHMARK.json
/// at the repository root lists the same names, units and bounds.
[[nodiscard]] const std::vector<MetricSpec>& metric_table();
[[nodiscard]] const MetricSpec* find_metric(const std::string& name);

/// Correctness accounting: every command, run and output check is one
/// attempt; a failure is logged to stderr and counted.
class Checks {
 public:
  /// Count one attempt; returns `ok`.
  bool expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Median (mean of the middle pair for even counts).
[[nodiscard]] double median(std::vector<double> xs);

/// The highest order statistic with at least ten samples above it,
/// x[n-11] of the sorted samples — but never below the median, so with
/// fewer than 21 samples the tail reads as the median.
[[nodiscard]] double tail(std::vector<double> xs);

/// The host's speed right now: a fixed pointer chase and heap churn
/// compiled into the benchmark, independent of the library, run on
/// `threads` threads at once (as many as the workload keeps busy).
/// Returns (kProbeRefS ÷ its mean wall time) ^ kHostElasticity, the
/// factor that turns a wall time measured next to it into reference
/// seconds (> 1 on a fast host).
[[nodiscard]] double host_scale(std::size_t threads);
/// The probe's wall time on the reference host. A wall time in reference
/// seconds is what the work would take on a host whose probe takes this
/// long.
constexpr double kProbeRefS = 0.125;
/// How much more the workloads slow than the probe on a busy host: over
/// ten 30 s runs of each, the log of a run's median iteration wall
/// against the log of its median probe ratio had slopes 1.4 (gcrm_sim),
/// 2.6 (trace_analyze) and 1.7 (campaign_sweep).
constexpr int kHostElasticity = 2;

/// Walls in reference seconds: walls[i] × scales[i].
[[nodiscard]] std::vector<double> scaled(const std::vector<double>& walls,
                                         const std::vector<double>& scales);

/// Run `setup` `times` times, each after a host probe on
/// `probe_threads` threads, and return the median wall time in reference
/// seconds.
[[nodiscard]] double timed_setup(std::size_t times, std::size_t probe_threads,
                                 const std::function<void()>& setup);

/// A closed loop's samples: each iteration's wall time, the host scale
/// probed right before it, and the largest VmHWM of this process during
/// an iteration.
struct Samples {
  std::vector<double> walls;
  std::vector<double> scales;
  double peak_mib = 0.0;
  /// The walls in reference seconds.
  [[nodiscard]] std::vector<double> ref() const { return scaled(walls, scales); }
};

/// Repeat a host probe on `probe_threads` threads, `iteration` (timed)
/// and `check` (untimed) until the next round would overrun `budget_s`,
/// and at least `min_iters` times.
Samples time_loop(double budget_s, std::size_t min_iters,
                  std::size_t probe_threads,
                  const std::function<void()>& iteration,
                  const std::function<void()>& check);

/// The traced run's measurement. Each round runs `iteration` (+ `check`)
/// untraced and again with the obs registry on, in alternating order,
/// then `probe` (the layer decomposition) with it on — interleaved, so
/// all three see the same host conditions — until the budget is spent,
/// at least twice. The registry is reset first and left on; end_trace()
/// turns it off.
struct TracedRounds {
  std::vector<double> untraced;  ///< iteration walls, obs off
  std::vector<double> traced;    ///< iteration walls, obs on
  std::size_t probes = 0;
};
TracedRounds traced_rounds(double budget_s,
                           const std::function<void()>& iteration,
                           const std::function<void()>& check,
                           const std::function<void()>& probe);

/// Reset this process's VmHWM so the next reading covers only what
/// follows (set-up, probe and check peaks must not leak into an
/// iteration's figure).
void reset_peak_rss();
/// This process's VmHWM in MiB.
[[nodiscard]] double peak_rss_mib();
/// The largest peak RSS of any waited-for child process, in MiB.
[[nodiscard]] double children_peak_rss_mib();

/// Traced-run support. begin_trace() clears the obs registry and turns
/// it on; end_trace() turns it off and writes
/// `<out>/<workload>-seed<n>.trace.json` (Chrome trace) and
/// `<out>/<workload>-seed<n>.layers.tsv` (per-span count, total and
/// self time, then the counters). Returns the per-span totals in
/// seconds. Counters stay readable through obs_counter() until the
/// next begin_trace().
void begin_trace();
std::map<std::string, double> end_trace(const Options& opt);
/// The value of an obs counter (0 when it never fired).
[[nodiscard]] std::uint64_t obs_counter(const std::string& name);
/// Total seconds of the spans named `name` recorded so far.
[[nodiscard]] double span_total(const std::string& name);

/// What one run reports. Metrics missing from `metrics` are an error
/// for end-to-end runs and read as 0 (layer not exercised) for traced
/// runs.
struct Result {
  std::map<std::string, double> metrics;
};

/// Print the result line (the last line of stdout) and a readable
/// table on stderr; end-to-end runs get success_rate (1 - failed /
/// attempted) filled in here. Returns the process exit code.
int report(const Options& opt, const Checks& checks, Result result);

/// Run one command through the eiotrace library entry point, capturing
/// stdout; returns the exit code.
int eiotrace(const std::vector<std::string>& args, std::string* out);

/// Read a whole file.
[[nodiscard]] std::string slurp(const fs::path& path);

}  // namespace perfbench
