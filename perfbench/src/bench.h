// perfbench — shared types of the PSF benchmark program.
//
// One process runs one workload (stencil_sweep, reduction_sweep or
// serve_open) for a fixed measuring time and prints one JSON result line:
// the end-to-end metrics by default, the per-layer metrics with --trace 1.
// See perfbench/rationale.json for why each workload and metric exists.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a run reports: pass/fail tallies plus named metrics with units.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Free-form facts printed before the result line (thread budget, ...).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Count one checked operation; `ok` false marks it failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Linear-interpolated quantile (the same definition as numpy's default).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The fastest of each series, where series[i] holds the repeated wall
/// times of item i. Interference from other work on the host (other
/// tenants' CPU steal included) only ever adds time, so the fastest of many
/// warmed repeats is the steadiest estimate of an item's own cost.
inline std::vector<double> fastest(
    const std::vector<std::vector<double>>& series) {
  std::vector<double> result;
  for (const auto& samples : series) {
    result.push_back(*std::min_element(samples.begin(), samples.end()));
  }
  return result;
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Relative closeness with an absolute floor, as tests/test_apps.cpp uses.
inline bool near(double value, double reference, double rel, double abs = 0.0) {
  return std::abs(value - reference) <= rel * std::abs(reference) + abs;
}

/// Stable per-purpose seed derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Peak resident set size of the process in MB.
double peak_rss_mb();

/// Number of online processors; the thread budget is checked against it.
int host_cpus();

// Workload entry points. Each fills the report with the end-to-end metrics
// (trace off) or the per-layer metrics (trace on). `start` is process start:
// the first set-up is timed from it.
void run_sweep(const Options& options, Clock::time_point start, Report& report);
void run_serve_open(const Options& options, Clock::time_point start,
                    Report& report);

/// Per-layer [span] probes shared by every traced run: the benchmark's own
/// timed calls into each layer's public functions.
void probe_layers(std::uint64_t seed, Report& report);

/// Copies the counters every layer exports (`metrics::Registry` counters and
/// timers) from `counters`/`timers` snapshots into per-layer metrics.
void report_layer_counters(const std::map<std::string, std::uint64_t>& counters,
                           const std::map<std::string, double>& timers,
                           std::uint64_t pool_hits, std::uint64_t pool_misses,
                           Report& report);

}  // namespace perfbench
