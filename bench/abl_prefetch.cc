// Ablation (§2): HHT vs a traditional stream prefetcher.
//
// The paper motivates the HHT by arguing that indexed vector loads give
// the memory system no look-ahead and that "given the random nature of the
// indices accessed, traditional prefetchers perform poorly". We test that
// claim in the high-performance integration (L1D in front of a ~24-cycle
// RAM): a next-line stream prefetcher recovers the *sequential* misses
// (rows/cols/vals arrays) but cannot anticipate the v[cols[k]] gathers —
// while the HHT removes those accesses from the core altogether.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "abl_prefetch");
  const sim::Index n = opt.size ? opt.size : 256;

  harness::printBanner(std::cout, "Ablation (§2)",
                       "stream prefetcher vs HHT (HP integration, far RAM)");

  sim::Rng rng(opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, n);

  const auto makeCfg = [&](bool prefetch, bool hht_cache) {
    harness::SystemConfig cfg = harness::defaultConfig(2);
    cfg.memory.sram_latency = 24;
    cfg.memory.cache.miss_penalty = 24;
    cfg.memory.cpu_cache_enabled = true;
    cfg.memory.hht_cache_enabled = hht_cache;
    cfg.memory.prefetch_enabled = prefetch;
    cfg.memory.prefetch_degree = 2;
    cfg.sched_mode = opt.schedMode();
    return cfg;
  };

  harness::SweepRunner sweep(opt.jobs);
  const auto runs = sweep.run(4, [&](std::size_t i) {
    switch (i) {
      case 0:
        return harness::runSpmvBaseline(makeCfg(false, false), m, v, true);
      case 1:
        return harness::runSpmvBaseline(makeCfg(true, false), m, v, true);
      case 2:
        return harness::runSpmvHht(makeCfg(false, true), m, v, true);
      default:
        return harness::runSpmvHht(makeCfg(true, true), m, v, true);
    }
  });
  const auto& base = runs[0];
  const auto& base_pf = runs[1];
  const auto& hht = runs[2];
  const auto& hht_pf = runs[3];

  const auto hitrate = [](const harness::RunResult& r) {
    const double h = static_cast<double>(r.stats.value("mem.cpu.cache_hits"));
    const double mi = static_cast<double>(r.stats.value("mem.cpu.cache_misses"));
    return h + mi == 0.0 ? 0.0 : h / (h + mi);
  };

  harness::Table table({"configuration", "cycles", "vs_plain_baseline",
                        "cpu_hit_rate", "prefetch_fills"});
  const auto row = [&](const char* name, const harness::RunResult& r) {
    table.addRow({name, std::to_string(r.cycles),
                  harness::fmt(harness::speedup(base, r)),
                  harness::pct(hitrate(r)),
                  std::to_string(r.stats.value("mem.cpu.prefetch_fills"))});
  };
  row("baseline (L1D)", base);
  row("baseline + stream prefetcher", base_pf);
  row("HHT (L1D on both paths)", hht);
  row("HHT + stream prefetcher", hht_pf);
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "expected: the prefetcher lifts the baseline's streaming hit\n"
               "rate but leaves the indirect-gather misses; the HHT removes\n"
               "the indirection from the core and wins by more (§2's claim).\n";
  return 0;
}
