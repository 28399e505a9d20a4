// cstf_perfbench: one workload per invocation.
//
//   cstf_perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// Prints every metric it measures as "metric <name> <value> <unit>", then
// as its last line one JSON object with correct/attempted/failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status: 0 on success, 1 when an output check failed (the JSON line
// then says "correct": false), 2 on bad arguments or an unexpected error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "probes.hpp"

namespace {

using namespace perfbench;

bool parseArgs(int argc, char** argv, RunOptions& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty() || val[0] == '-') return false;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0 && o.seconds <= 120.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o.trace = val == "1";
    } else if (key == "--out") {
      o.outDir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.outDir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;  // starts the set-up clock
  if (!parseArgs(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: cstf_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out DIR\n");
    return 2;
  }
  std::filesystem::create_directories(opts.outDir);
  SpanLog spans(opts.trace);
  Report report;
  bool correct = true;
  try {
    if (opts.workload == "train-qcoo") {
      runTrain(opts, false, report, spans);
    } else if (opts.workload == "train-csf") {
      runTrain(opts, true, report, spans);
    } else if (opts.workload == "serve-topk") {
      runServe(opts, report, spans);
    } else if (opts.workload == "stream-als") {
      runStream(opts, report, spans);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
      return 2;
    }
    if (opts.trace) {
      const BandwidthProbe bw = memoryBandwidth(2);
      report.set("host.mem_bw_gbs", bw.gbPerSec, "GB/s");
      report.set("host.llc_mb", bw.llcBytes / 1048576.0, "MB");
      report.set("host.probe_mb", bw.arrayBytes / 1048576.0, "MB");
      report.set("trace.spans", double(spans.size()), "count");
      const std::string path = opts.outDir + "/spans-" + opts.workload + "-" +
                               std::to_string(opts.seed) + ".json";
      spans.write(path);
      std::printf("spans: %zu written to %s (%llu dropped)\n", spans.size(),
                  path.c_str(),
                  static_cast<unsigned long long>(spans.dropped()));
      for (const auto& [name, sec] : spans.selfSeconds()) {
        std::printf("self %-22s %10.4f s\n", name.c_str(), sec);
      }
      // Layers this workload never enters read 0.
      for (const MetricSpec& m : kPerLayer) {
        if (!report.has(m.name)) report.set(m.name, 0.0, m.unit);
      }
    } else {
      report.set("peak_rss_mb", peakRssMb(), "MB");
    }
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    correct = false;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!correct) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(report.attempted(), 1)),
                static_cast<unsigned long long>(report.failed()));
    return 1;
  }
  try {
    std::printf("%s\n",
                report.resultJson(true, opts.trace ? kPerLayer : kEndToEnd)
                    .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
