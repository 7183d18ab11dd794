// The repository benchmark: runs one named workload for a fixed host time
// and prints, as its last line, one JSON object with the operations
// attempted and failed and every metric by name and unit.
//
//   perfbench --workload NAME [--seed N] --seconds S --trace 0|1
//             [--spans FILE] [--scale tiny] [--corrupt]
//
// --trace 0 prints the end-to-end metrics (measured with tracing off);
// --trace 1 records spans around every layer call, writes them to --spans
// and prints the per-layer metrics. --scale tiny and --corrupt exist for
// perfbench/selftest.py. Exit status: 0 all outputs correct, 1 some
// operation failed, 2 bad arguments, 3 the benchmark itself could not run.
// See perfbench/README.md for the workloads and the metric definitions.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json lists, in the same order.
constexpr MetricDef kEndToEnd[] = {
    {"sim_mcps", "Mcycles/s"},   {"requests_per_s", "1/s"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
    {"hht_cycles", "cycles"},    {"baseline_cycles", "cycles"},
    {"p50_cycles", "cycles"},    {"p99_cycles", "cycles"},
    {"knee_rate", "requests/Mcycle"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.gen_s", "s"},
    {"workload.nnz", "count"},
    {"harness.run_s", "s"},
    {"harness.ns_per_cycle", "ns"},
    {"harness.fixed_run_s", "s"},
    {"cpu.retired", "count"},
    {"cpu.cpi", "cycles/instr"},
    {"cpu.load_stall_cycles", "cycles"},
    {"hht.elements_delivered", "count"},
    {"hht.cpu_wait_cycles", "cycles"},
    {"hht.stall_buffers_full", "cycles"},
    {"mem.grants", "count"},
    {"mem.cpu.conflict_cycles", "cycles"},
    {"mem.hht.conflict_cycles", "cycles"},
    {"mem.l1.hit_ratio", "ratio"},
    {"hht.prefetch.useful_ratio", "ratio"},
    {"mem.wq.grants", "count"},
    {"mem.wq.steals", "count"},
    {"mem.wq.conflict_cycles", "cycles"},
    {"serve.attempts", "count"},
    {"serve.hht_faults", "count"},
    {"serve.retries", "count"},
    {"serve.degraded", "count"},
    {"serve.probes", "count"},
    {"serve.batches", "count"},
    {"serve.useful_attempt_ratio", "ratio"},
    {"serve.batch_ms", "ms"},
    {"serve.materialize_s", "s"},
    {"sparse.reference_s", "s"},
    {"obs.cpu.compute_cycles", "cycles"},
    {"obs.cpu.fifo_wait_cycles", "cycles"},
    {"obs.cpu.mem_wait_cycles", "cycles"},
    {"obs.cpu.queue_wait_cycles", "cycles"},
    {"obs.cpu.drained_cycles", "cycles"},
    {"obs.mem.active_cycles", "cycles"},
    {"obs.mem.drained_cycles", "cycles"},
    {"obs.hht_be.active_cycles", "cycles"},
    {"obs.hht_be.drained_cycles", "cycles"},
    {"obs.traced_run_s", "s"},
    {"obs.overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME [--seed N] --seconds S "
               "--trace 0|1 [--spans FILE] [--scale tiny] [--corrupt]\n"
               "workloads: paper_busy spmv_stall multitile_skew "
               "serve_faults\n";
  std::exit(2);
}

std::uint64_t parseUnsigned(std::string_view flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || end != v.c_str() + v.size() || errno != 0) {
    usage("bad value '" + v + "' for " + std::string(flag));
  }
  return x;
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  opt.seed = 1;  // the default seed; README.md names the held-out one
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = parseUnsigned(flag, v);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUnsigned(flag, v);
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      opt.spans_path = v;
    } else if (flag == "--scale") {
      if (v != "tiny" && v != "full") usage("--scale takes tiny or full");
      opt.scale = v == "tiny" ? Scale::kTiny : Scale::kFull;
    } else {
      usage("unknown argument " + flag);
    }
  }
  if (opt.workload.empty() || !have_seconds || !have_trace) {
    usage("--workload, --seconds and --trace are required");
  }
  return opt;
}

/// %.17g keeps every digit of a double; JSON has no NaN or infinity.
std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printSpanTable(const Spans& spans) {
  std::printf("%-20s %9s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : spans.totals()) {
    std::printf("%-20s %9llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  Tally tally;
  Metrics metrics;
  Spans spans;
  Spans* recorder = opt.trace ? &spans : nullptr;
  std::string json;
  try {
    if (opt.workload == "serve_faults") {
      runServeWorkload(opt, tally, metrics, recorder);
    } else if (!runBatchWorkload(opt, tally, metrics, recorder)) {
      usage("unknown workload " + opt.workload);
    }
    json = "{\"correct\": " + std::string(tally.failed() == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(tally.attempted()) +
           ", \"failed\": " + std::to_string(tally.failed()) + ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& d, bool required) {
      const auto it = metrics.find(d.name);
      if (it == metrics.end() && required) {
        throw std::runtime_error(std::string("metric ") + d.name +
                                 " was not measured");
      }
      json += std::string(first ? "" : ", ") + "\"" + d.name +
              "\": {\"value\": " +
              number(it == metrics.end() ? 0.0 : it->second) +
              ", \"unit\": \"" + d.unit + "\"}";
      first = false;
    };
    if (opt.trace) {
      // A layer a workload does not exercise reads 0 (see README.md).
      for (const MetricDef& d : kPerLayer) emit(d, false);
    } else {
      for (const MetricDef& d : kEndToEnd) emit(d, true);
    }
    json += "}}";
    if (opt.trace) {
      printSpanTable(spans);
      if (!opt.spans_path.empty()) {
        if (!spans.write(opt.spans_path)) {
          throw std::runtime_error("cannot write " + opt.spans_path);
        }
        std::printf("spans written to %s\n", opt.spans_path.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 3;
  }
  for (const std::string& m : tally.messages()) {
    std::cerr << "FAILED " << m << "\n";
  }
  std::printf("%s\n", json.c_str());
  return tally.failed() == 0 ? 0 : 1;
}
