// Shared plumbing of the end-to-end benchmark: run options, the metric
// sheet every workload fills in, output checks, and small timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one invocation.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for generated files and span dumps.
  std::string outDir;
  /// Taken first thing in main(): setup_s runs from here to the end of the
  /// workload's cold set-up, input generation included.
  Clock::time_point start = Clock::now();
};

/// Thrown when a program output disagrees with the benchmark's own
/// computation or with a property of the method.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// Relative difference |a - b| / max(|a|, |b|, tiny).
double relDiff(double a, double b);

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metric sheet of one run. Every metric is printed as a
/// human-readable line when it is set; the last line of stdout is the
/// JSON result built from the metrics the run mode selects.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Operations attempted / failed (iterations, requests, delta batches).
  void countOps(std::uint64_t attempted, std::uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` holding
  /// exactly `specs` (a metric never set, or set with another unit, is an
  /// error).
  std::string resultJson(bool correct,
                         const std::vector<MetricSpec>& specs) const;
  bool has(const std::string& name) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Exact nearest-rank-interpolated quantile of `v` (copied and sorted).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The run's operation time: the lower quartile, over the run's rounds, of
/// each round's median operation time. Every round repeats the same work (a
/// cpAls call, a replay of the delta log), so a change to the program moves
/// every round alike; the host's slow phases, in which the same code runs
/// up to 2x slower for seconds at a time, move only some, and the lower
/// quartile follows the rounds they left alone.
double roundLowerQuartile(const std::vector<std::vector<double>>& rounds);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// End-to-end metrics: measured with tracing off, on every workload.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics: printed by the traced run of every workload (a layer
/// the workload never enters reads 0).
extern const std::vector<MetricSpec> kPerLayer;

/// Workload entry points. Each fills `report`, counts its operations, and
/// throws CheckFailed when an output check fails.
void runTrain(const RunOptions& opts, bool csf, Report& report,
              SpanLog& spans);
void runServe(const RunOptions& opts, Report& report, SpanLog& spans);
void runStream(const RunOptions& opts, Report& report, SpanLog& spans);

}  // namespace perfbench
