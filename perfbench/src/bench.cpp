#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"sparkle.shuffle_mb_per_iter", "MB"},
    {"sparkle.shuffle_records_per_iter", "count"},
    {"sparkle.stages_per_iter", "count"},
    {"sparkle.task_s_per_iter", "thread-s"},
    {"sparkle.busy_ratio", "ratio"},
    {"sparkle.reduce_imbalance", "ratio"},
    {"sparkle.stage_wall_over_iter", "ratio"},
    {"cstf.iter_s", "s"},
    {"cstf.sim_iter_s", "s"},
    {"cstf.fit", "ratio"},
    {"cstf.mttkrp_ms", "ms"},
    {"cstf.mttkrp_gflops", "GFLOP/s"},
    {"cstf.mttkrp_flop_per_byte", "flop/B"},
    {"cstf.kernel_s_per_iter", "thread-s"},
    {"cstf.layout_build_s", "s"},
    {"cstf.iter_s_1t", "s"},
    {"cstf.speedup_2t", "ratio"},
    {"la.mode_update_us", "us"},
    {"serve.qps", "req/s"},
    {"serve.latency_p50_us", "us"},
    {"serve.latency_p99_us", "us"},
    {"serve.topk_us", "us"},
    {"serve.rows_scanned_per_query", "count"},
    {"serve.prune_ratio", "ratio"},
    {"serve.batcher_overhead_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"stream.batch_ms", "ms"},
    {"stream.fit", "ratio"},
    {"stream.rows_per_batch", "count"},
    {"stream.row_solve_us", "us"},
    {"stream.delta_read_ms", "ms"},
    {"stream.fit_probe_ms", "ms"},
    {"host.mem_bw_gbs", "GB/s"},
    {"program.setup_s", "s"},
    {"trace.overhead_pct", "%"},
};

double relDiff(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
      return;
    }
  }
  metrics_.push_back({name, value, unit});
  std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string Report::resultJson(bool correct,
                               const std::vector<MetricSpec>& specs) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string& name = specs[i].name;
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      throw std::logic_error("metric never set: " + name);
    }
    if (it->unit != specs[i].unit || !std::isfinite(it->value)) {
      throw std::logic_error("metric " + name + " has unit " + it->unit +
                             " or a non-finite value");
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", it->name.c_str(), it->value,
                  it->unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double roundLowerQuartile(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> medians;
  for (const std::vector<double>& r : rounds) {
    if (!r.empty()) medians.push_back(median(r));
  }
  return quantile(medians, 0.25);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
