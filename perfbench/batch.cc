// Batch workloads: every round calls the harness run functions on the same
// seeded inputs and checks each result against the benchmark's own exact
// reference.
//
//   paper_busy      Table-1 machine (defaultConfig, 1-cycle SRAM): the
//                   Fig. 4 SpMV sweep (vector baseline, HHT 1/2 buffers) and
//                   the Fig. 5 SpMSpV sweep (merge baseline, variant 1/2 x
//                   1/2 buffers, variant 2 with the scalar consumer).
//   spmv_stall      Scalar-baseline and HHT SpMV on a 6-cycle SRAM (short
//                   stalls) and a 2048-cycle SRAM (deep stalls).
//   multitile_skew  8 tiles, per-tile L1 + HHT prefetcher + 4 memory
//                   channels, power-law matrices: static nnz-balanced shards
//                   and the chunk-queue device, plus the single-tile vector
//                   baseline of the same matrix.
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "harness/experiment.h"
#include "obs/profile.h"
#include "workloads.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

namespace workload = hht::workload;
namespace obs = hht::obs;
namespace sim = hht::sim;

/// One operation of a round: a single harness run-function call.
struct Op {
  std::string name;
  bool hht = false;  ///< HHT-assisted (hht_cycles) or software baseline
  harness::SystemConfig cfg;
  RunFn run;
  sparse::DenseVector expect;  ///< the benchmark's own reference y
};

/// What a workload's set-up produces.
struct OpSet {
  std::vector<Op> ops;
  std::size_t traced = 0;  ///< the representative op for the obs trace
  Op minimal;              ///< the same run function on a minimal input
  std::uint64_t nnz = 0;   ///< nonzeros over all generated matrices
};

using Csr = std::shared_ptr<const sparse::CsrMatrix>;
using Dense = std::shared_ptr<const sparse::DenseVector>;
using SparseVec = std::shared_ptr<const sparse::SparseVector>;

/// Builds an OpSet: generation and reference calls run inside spans.
class Builder {
 public:
  Builder(std::uint64_t seed, Spans* spans) : seed_(seed), spans_(spans) {}

  Csr randomCsr(std::uint64_t k, sim::Index n, double sparsity) {
    Scope s(spans_, "workload.gen");
    sim::Rng rng(inputSeed(seed_, k));
    return keep(workload::randomCsr(rng, n, n, sparsity));
  }
  Csr powerLaw(std::uint64_t k, sim::Index n, sim::Index max_degree,
               double alpha) {
    Scope s(spans_, "workload.gen");
    sim::Rng rng(inputSeed(seed_, k));
    return keep(workload::powerLawCsr(rng, n, n, max_degree, alpha));
  }
  Dense denseVector(std::uint64_t k, sim::Index n) {
    Scope s(spans_, "workload.gen");
    sim::Rng rng(inputSeed(seed_, k));
    return std::make_shared<const sparse::DenseVector>(
        workload::randomDenseVector(rng, n));
  }
  SparseVec sparseVector(std::uint64_t k, sim::Index n, double sparsity) {
    Scope s(spans_, "workload.gen");
    sim::Rng rng(inputSeed(seed_, k));
    return std::make_shared<const sparse::SparseVector>(
        workload::randomSparseVector(rng, n, sparsity));
  }

  sparse::DenseVector reference(const Csr& m, const Dense& v) {
    Scope s(spans_, "bench.reference");
    return exactSpmv(*m, *v);
  }
  sparse::DenseVector reference(const Csr& m, const SparseVec& v) {
    Scope s(spans_, "bench.reference");
    return exactSpmspv(*m, *v);
  }

  void add(std::string name, bool hht, const harness::SystemConfig& cfg,
           RunFn run, const sparse::DenseVector& expect) {
    set_.ops.push_back(Op{std::move(name), hht, cfg, std::move(run), expect});
  }
  void markTraced() { set_.traced = set_.ops.size() - 1; }
  void minimal(const harness::SystemConfig& cfg, RunFn run,
               const sparse::DenseVector& expect) {
    set_.minimal = Op{"minimal", true, cfg, std::move(run), expect};
  }
  OpSet take() { return std::move(set_); }

 private:
  Csr keep(sparse::CsrMatrix m) {
    set_.nnz += m.nnz();
    return std::make_shared<const sparse::CsrMatrix>(std::move(m));
  }

  std::uint64_t seed_;
  Spans* spans_;
  OpSet set_;
};

RunFn spmvBaseline(Csr m, Dense v, bool vectorized) {
  return [m, v, vectorized](const harness::SystemConfig& c) {
    return harness::runSpmvBaseline(c, *m, *v, vectorized);
  };
}
RunFn spmvHht(Csr m, Dense v, bool vectorized) {
  return [m, v, vectorized](const harness::SystemConfig& c) {
    return harness::runSpmvHht(c, *m, *v, vectorized);
  };
}

/// The minimal input: a 1x1 matrix holding one nonzero.
void addMinimalSpmv(Builder& b, const harness::SystemConfig& cfg) {
  const Csr m = b.randomCsr(1, 1, 0.0);
  const Dense v = b.denseVector(2, 1);
  b.minimal(cfg, spmvHht(m, v, true), b.reference(m, v));
}

OpSet paperBusy(std::uint64_t seed, Scale scale, Spans* spans) {
  const sim::Index n = scale == Scale::kTiny ? 16 : 128;
  const std::vector<int> fills =
      scale == Scale::kTiny ? std::vector<int>{30, 70}
                            : std::vector<int>{10, 30, 50, 70, 90};
  const harness::SystemConfig one = harness::defaultConfig(1);
  const harness::SystemConfig two = harness::defaultConfig(2);
  Builder b(seed, spans);
  for (const int s : fills) {
    const std::string pt = "/s" + std::to_string(s);
    const Csr m = b.randomCsr(400 + s, n, s / 100.0);
    const Dense v = b.denseVector(500 + s, n);
    const sparse::DenseVector y = b.reference(m, v);
    b.add("fig4" + pt + "/base_vec", false, two, spmvBaseline(m, v, true), y);
    b.add("fig4" + pt + "/hht_1buf", true, one, spmvHht(m, v, true), y);
    b.add("fig4" + pt + "/hht_2buf", true, two, spmvHht(m, v, true), y);
    if (s == 50 || (scale == Scale::kTiny && s == 30)) b.markTraced();
  }
  for (const int s : fills) {
    const std::string pt = "/s" + std::to_string(s);
    const Csr m = b.randomCsr(600 + s, n, s / 100.0);
    const SparseVec sv = b.sparseVector(700 + s, n, s / 100.0);
    const sparse::DenseVector y = b.reference(m, sv);
    b.add("fig5" + pt + "/base_merge", false, two,
          [m, sv](const harness::SystemConfig& c) {
            return harness::runSpmspvBaseline(c, *m, *sv);
          },
          y);
    for (const int variant : {1, 2}) {
      for (const std::uint32_t buffers : {1u, 2u}) {
        b.add("fig5" + pt + "/v" + std::to_string(variant) + "_" +
                  std::to_string(buffers) + "buf",
              true, buffers == 1 ? one : two,
              [m, sv, variant](const harness::SystemConfig& c) {
                return harness::runSpmspvHht(c, *m, *sv, variant);
              },
              y);
      }
    }
    b.add("fig5" + pt + "/v2_2buf_scalar", true, two,
          [m, sv](const harness::SystemConfig& c) {
            return harness::runSpmspvHht(c, *m, *sv, 2, /*vectorized=*/false);
          },
          y);
  }
  addMinimalSpmv(b, two);
  return b.take();
}

OpSet spmvStall(std::uint64_t seed, Scale scale, Spans* spans) {
  const bool tiny = scale == Scale::kTiny;
  const sim::Index n = tiny ? 16 : 128;
  const sim::Index n_deep_hht = tiny ? 8 : 32;
  harness::SystemConfig shallow = harness::defaultConfig(2);
  shallow.memory.sram_latency = 6;
  harness::SystemConfig deep = harness::defaultConfig(2);
  deep.memory.sram_latency = 2048;
  Builder b(seed, spans);
  for (const int s : {30, 70}) {
    const std::string pt = "/s" + std::to_string(s);
    const Csr m = b.randomCsr(800 + s, n, s / 100.0);
    const Dense v = b.denseVector(900 + s, n);
    const sparse::DenseVector y = b.reference(m, v);
    b.add("short" + pt + "/base_scalar", false, shallow,
          spmvBaseline(m, v, false), y);
    b.add("short" + pt + "/hht", true, shallow, spmvHht(m, v, true), y);
  }
  for (const int s : {30, 70}) {
    const Csr m = b.randomCsr(1000 + s, n, s / 100.0);
    const Dense v = b.denseVector(1100 + s, n);
    b.add("deep/s" + std::to_string(s) + "/base_scalar", false, deep,
          spmvBaseline(m, v, false), b.reference(m, v));
    if (s == 70) b.markTraced();
  }
  const Csr m = b.randomCsr(1200, n_deep_hht, 0.5);
  const Dense v = b.denseVector(1201, n_deep_hht);
  b.add("deep/s50/hht", true, deep, spmvHht(m, v, true), b.reference(m, v));
  addMinimalSpmv(b, deep);
  return b.take();
}

/// fig_scaleout's "l1ch" machine: per-tile L1s, the HHT stride prefetcher
/// and 4 address-interleaved channels behind a round-robin arbiter.
harness::SystemConfig tiledConfig() {
  harness::SystemConfig cfg = harness::defaultConfig(2);
  cfg.memory.policy = hht::mem::ArbiterPolicy::RoundRobin;
  hht::mem::TopologyConfig& t = cfg.memory.topology;
  t.tile_l1_enabled = true;
  t.tile_l1.size_bytes = 4096;
  t.tile_l1.line_bytes = 32;
  t.tile_l1.ways = 4;
  t.tile_l1.hit_latency = 1;
  t.tile_l1.miss_penalty = 2;
  t.hht_prefetch_enabled = true;
  t.channels = 4;
  t.interleave_bytes = 256;
  return cfg;
}

constexpr std::uint32_t kTiles = 8;
constexpr std::uint32_t kChunkRows = 8;

OpSet multitileSkew(std::uint64_t seed, Scale scale, Spans* spans) {
  const bool tiny = scale == Scale::kTiny;
  const sim::Index n = tiny ? 32 : 1024;
  const harness::SystemConfig tiled = tiledConfig();
  const harness::SystemConfig flat = harness::defaultConfig(2);
  Builder b(seed, spans);
  for (const double alpha : {0.6, 0.9, 1.2}) {
    const auto k = static_cast<std::uint64_t>(std::lround(alpha * 10));
    char pt[16];
    std::snprintf(pt, sizeof pt, "/a%.1f", alpha);
    const Csr m = b.powerLaw(1300 + k, n, n / 2, alpha);
    const Dense v = b.denseVector(1400 + k, n);
    const sparse::DenseVector y = b.reference(m, v);
    b.add(std::string("zipf") + pt + "/static", true, tiled,
          [m, v](const harness::SystemConfig& c) {
            return harness::runSpmvHhtSharded(
                c, kTiles, harness::Partition::NnzBalanced, *m, *v, true);
          },
          y);
    b.add(std::string("zipf") + pt + "/chunk_queue", true, tiled,
          [m, v](const harness::SystemConfig& c) {
            return harness::runSpmvHhtChunkQueue(c, kTiles, *m, *v, true,
                                                 kChunkRows);
          },
          y);
    if (k == 9) b.markTraced();
    b.add(std::string("zipf") + pt + "/base_vec", false, flat,
          spmvBaseline(m, v, true), y);
  }
  const Csr m = b.randomCsr(1, kTiles, 0.0);
  const Dense v = b.denseVector(2, kTiles);
  b.minimal(tiled,
            [m, v](const harness::SystemConfig& c) {
              return harness::runSpmvHhtSharded(
                  c, kTiles, harness::Partition::NnzBalanced, *m, *v, true);
            },
            b.reference(m, v));
  return b.take();
}

/// Check one run: y bit-exact against the reference, grant accounting, no
/// degraded fallback or residual HHT work (faults are off here).
std::optional<std::string> checkRun(const harness::RunResult& r,
                                    const sparse::DenseVector& y,
                                    const sparse::DenseVector& expect) {
  if (!sameBits(y, expect)) return "y differs from the reference";
  if (r.degraded) return "run degraded to the CPU fallback";
  if (r.hht_residual_busy) return "HHT still busy after ECALL";
  return checkGrants(foldTiles(r.stats));
}

/// Run op once; a SimError is a failed operation.
std::optional<harness::RunResult> runOp(const Op& op,
                                        const harness::SystemConfig& cfg,
                                        std::string& error) {
  try {
    return op.run(cfg);
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
}

}  // namespace

std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t k) {
  // SplitMix64 finaliser over (seed, k): distinct inputs get unrelated
  // streams, and the same (seed, k) always gives the same input.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void addStats(Folded& into, const Folded& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

void statLayerMetrics(const Folded& f, Metrics& out) {
  const auto get = [&](const char* k) {
    const auto it = f.find(k);
    return it == f.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  out["cpu.retired"] = get("cpu.retired");
  out["cpu.cpi"] = ratio(get("cpu.cycles"), get("cpu.retired"));
  out["cpu.load_stall_cycles"] = get("cpu.load_stall_cycles");
  out["hht.elements_delivered"] = get("hht.elements_delivered");
  out["hht.cpu_wait_cycles"] = get("hht.cpu_wait_cycles");
  out["hht.stall_buffers_full"] = get("hht.stall_buffers_full");
  out["mem.grants"] = get("mem.grants");
  out["mem.cpu.conflict_cycles"] = get("mem.cpu.conflict_cycles");
  out["mem.hht.conflict_cycles"] = get("mem.hht.conflict_cycles");
  out["mem.l1.hit_ratio"] =
      ratio(get("mem.l1.hits"), get("mem.l1.hits") + get("mem.l1.misses"));
  out["hht.prefetch.useful_ratio"] =
      ratio(get("hht.prefetch.useful"), get("hht.prefetch.issued"));
  out["mem.wq.grants"] = get("mem.wq.grants");
  out["mem.wq.steals"] = get("mem.wq.steals");
  out["mem.wq.conflict_cycles"] = get("mem.wq.conflict_cycles");
}

void traceRepresentative(const harness::SystemConfig& cfg, const RunFn& run,
                         const harness::RunResult& untraced,
                         double untraced_s, Tally& tally, Metrics& out) {
  obs::TraceSink sink;
  harness::SystemConfig traced_cfg = cfg;
  traced_cfg.trace_sink = &sink;
  const auto t0 = Clock::now();
  const harness::RunResult r = run(traced_cfg);
  const double traced_s = secondsSince(t0);
  tally.record(r.cycles == untraced.cycles && sameBits(r.y, untraced.y),
               "traced run differs from the untraced run");
  if (sink.dropped() != 0) {
    throw std::runtime_error("obs trace ring overflowed; the representative "
                             "simulation is too long to profile");
  }
  const obs::ProfileReport p = obs::profile(sink);
  const auto bucket = [&](obs::Component c, std::uint8_t b) {
    return static_cast<double>(p.bucketCycles(c, b));
  };
  using obs::Component;
  out["obs.cpu.compute_cycles"] = bucket(Component::kCpu, obs::kBucketCompute);
  out["obs.cpu.fifo_wait_cycles"] =
      bucket(Component::kCpu, obs::kBucketFifoWait);
  out["obs.cpu.mem_wait_cycles"] = bucket(Component::kCpu, obs::kBucketMemWait);
  out["obs.cpu.queue_wait_cycles"] =
      bucket(Component::kCpu, obs::kBucketQueueWait);
  out["obs.cpu.drained_cycles"] = bucket(Component::kCpu, obs::kBucketDrained);
  out["obs.mem.active_cycles"] = bucket(Component::kMem, obs::kBucketActive);
  out["obs.mem.drained_cycles"] = bucket(Component::kMem, obs::kBucketDrained);
  out["obs.hht_be.active_cycles"] =
      bucket(Component::kHhtBe, obs::kBucketActive);
  out["obs.hht_be.drained_cycles"] =
      bucket(Component::kHhtBe, obs::kBucketDrained);
  out["obs.traced_run_s"] = traced_s;
  out["obs.overhead"] = untraced_s > 0.0 ? traced_s / untraced_s : 0.0;
}

void fixedRunCost(const harness::SystemConfig& cfg, const RunFn& run,
                  const sparse::DenseVector& expect, Scale scale,
                  Tally& tally, Metrics& out) {
  const int calls = scale == Scale::kTiny ? 3 : 50;
  std::vector<double> times;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    const harness::RunResult r = run(cfg);
    times.push_back(secondsSince(t0));
    tally.record(sameBits(r.y, expect), "minimal run: y differs");
  }
  out["harness.fixed_run_s"] = median(times);
}

bool runBatchWorkload(const Options& opt, Tally& tally, Metrics& out,
                      Spans* spans) {
  OpSet (*setup)(std::uint64_t, Scale, Spans*) = nullptr;
  if (opt.workload == "paper_busy") setup = paperBusy;
  if (opt.workload == "spmv_stall") setup = spmvStall;
  if (opt.workload == "multitile_skew") setup = multitileSkew;
  if (setup == nullptr) return false;

  std::vector<double> setup_s;
  OpSet first;
  std::vector<harness::RunResult> first_results;  // round 0, per op
  std::vector<double> best;                       // fastest call, per op
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    Scope round_span(spans, "bench.round");
    const auto t0 = Clock::now();
    OpSet set = [&] {
      Scope s(spans, "bench.setup");
      return setup(opt.seed, opt.scale, spans);
    }();
    setup_s.push_back(secondsSince(t0));
    if (rounds == 0) {
      best.assign(set.ops.size(), std::numeric_limits<double>::infinity());
      first_results.assign(set.ops.size(), harness::RunResult{});
    }
    for (std::size_t i = 0; i < set.ops.size(); ++i) {
      const Op& op = set.ops[i];
      std::string error;
      const auto t = Clock::now();
      const std::optional<harness::RunResult> r = [&] {
        Scope s(spans, "harness.run");
        return runOp(op, op.cfg, error);
      }();
      const double dt = secondsSince(t);
      Scope check_span(spans, "bench.check");
      if (!r) {
        tally.record(false, op.name + ": " + error);
        continue;
      }
      sparse::DenseVector y = r->y;
      if (opt.corrupt && rounds == 0 && i == 0) {
        y.at(0) = std::bit_cast<float>(std::bit_cast<std::uint32_t>(y.at(0)) ^ 1u);
      }
      std::optional<std::string> bad = checkRun(*r, y, op.expect);
      if (rounds == 0) {
        first_results[i] = *r;
      } else if (!bad && (r->cycles != first_results[i].cycles ||
                          !sameBits(op.expect, first.ops[i].expect))) {
        bad = "not deterministic: differs from the first round";
      }
      tally.record(!bad, op.name + ": " + bad.value_or(""));
      best[i] = std::min(best[i], dt);
    }
    if (rounds == 0) first = std::move(set);
    ++rounds;
  } while (secondsSince(start) < opt.seconds);
  out["peak_rss_mb"] = peakRssMb();

  // End-to-end metrics. Host time per op is the fastest of its calls: the
  // host's slow phases come from other load and only ever add time.
  std::vector<std::uint64_t> cycles;
  double hht_cycles = 0.0, baseline_cycles = 0.0, host_s = 0.0;
  Folded folded;
  for (std::size_t i = 0; i < first.ops.size(); ++i) {
    const std::uint64_t c = first_results[i].cycles;
    cycles.push_back(c);
    (first.ops[i].hht ? hht_cycles : baseline_cycles) += static_cast<double>(c);
    if (std::isfinite(best[i])) host_s += best[i];  // inf: failed every call
    addStats(folded, foldTiles(first_results[i].stats));
  }
  const double total_cycles = hht_cycles + baseline_cycles;
  const auto n_ops = static_cast<double>(first.ops.size());
  out["sim_mcps"] = total_cycles / host_s / 1e6;
  out["requests_per_s"] = n_ops / host_s;
  out["setup_s"] = median(setup_s);
  out["hht_cycles"] = hht_cycles;
  out["baseline_cycles"] = baseline_cycles;
  out["p50_cycles"] = static_cast<double>(percentile(cycles, 0.50));
  out["p99_cycles"] = static_cast<double>(percentile(cycles, 0.99));
  out["knee_rate"] = n_ops / total_cycles * 1e6;

  // Per-layer metrics.
  out["workload.nnz"] = static_cast<double>(first.nnz);
  statLayerMetrics(folded, out);
  if (spans != nullptr) {
    const auto per_round = [&](const char* name) {
      return spans->selfSeconds(name) / static_cast<double>(rounds);
    };
    out["workload.gen_s"] = per_round("workload.gen");
    out["harness.run_s"] = per_round("harness.run");
    out["harness.ns_per_cycle"] = out["harness.run_s"] / total_cycles * 1e9;
    fixedRunCost(first.minimal.cfg, first.minimal.run, first.minimal.expect,
                 opt.scale, tally, out);
    const Op& rep = first.ops[first.traced];
    traceRepresentative(rep.cfg, rep.run, first_results[first.traced],
                        best[first.traced], tally, out);
  }
  return true;
}

}  // namespace perfbench
