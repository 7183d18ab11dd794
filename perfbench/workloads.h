// The four workloads. Each runs whole rounds of the same operations until
// Options::seconds have passed, checks every output, and fills `out` with
// every end-to-end metric and, for a traced run, every per-layer metric;
// perfbench.cc prints the ones the run's mode asks for.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common.h"
#include "harness/system.h"

namespace perfbench {

namespace harness = hht::harness;

/// paper_busy, spmv_stall, multitile_skew: rounds of harness run-function
/// calls. Returns false for a name that is none of these.
bool runBatchWorkload(const Options& opt, Tally& tally, Metrics& out,
                      Spans* spans);

/// serve_faults: rounds of serve::Server drains.
void runServeWorkload(const Options& opt, Tally& tally, Metrics& out,
                      Spans* spans);

// ---- shared by both workload files -----------------------------------------

using Folded = std::map<std::string, std::uint64_t>;
using RunFn = std::function<harness::RunResult(const harness::SystemConfig&)>;

/// Independent RNG seed for input `k` of a run with seed `seed`.
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t k);

/// `into += from`, counter by counter.
void addStats(Folded& into, const Folded& from);

/// cpu.*, hht.* and mem.* per-layer metrics from run stats summed over
/// tiles and runs.
void statLayerMetrics(const Folded& folded, Metrics& out);

/// Run `run` once more with an obs::TraceSink attached, fold the sink with
/// obs::profile and record obs.<component>.<bucket>_cycles, obs.traced_run_s
/// and obs.overhead (traced host time over `untraced_s`). The traced run
/// must reproduce `untraced` (cycles and y); that check is one operation.
void traceRepresentative(const harness::SystemConfig& cfg, const RunFn& run,
                         const harness::RunResult& untraced,
                         double untraced_s, Tally& tally, Metrics& out);

/// harness.fixed_run_s: median host time of `run` on a minimal input.
/// Every call's y is checked against `expect`.
void fixedRunCost(const harness::SystemConfig& cfg, const RunFn& run,
                  const sparse::DenseVector& expect, Scale scale,
                  Tally& tally, Metrics& out);

}  // namespace perfbench
