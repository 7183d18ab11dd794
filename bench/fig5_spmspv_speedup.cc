// Figure 5: HHT speedup over the CPU-only baseline for SpMSpV (sparse
// matrix x sparse vector), 512x512 synthetic matrix, matrix and vector at
// the same sparsity level, 10%..90%.
//
// Four configurations per sparsity, as in the paper:
//   variant-1 (aligned pairs)        x {1, 2} buffers — avg 2.47, rising
//                                      from ~1.48 (10%) to >4.0 (90%)
//   variant-2 (value-or-zero stream) x {1, 2} buffers — avg 3.05
//                                      (2.5..3.52), best at low sparsity
// Crossover: variant-1 overtakes variant-2 above ~80% sparsity.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig5_spmspv_speedup");
  const sim::Index n = opt.size ? opt.size : 512;

  harness::printBanner(std::cout, "Fig. 5",
                       "SpMSpV speedup vs sparsity: variant-1/2 x 1/2 buffers");

  auto config = [&](std::uint32_t buffers) {
    harness::SystemConfig cfg = harness::defaultConfig(buffers);
    cfg.sched_mode = opt.schedMode();
    return cfg;
  };
  struct Row {
    int s = 0;
    std::uint64_t base = 0;
    double sp[5] = {};
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(9, [&](std::size_t i) {
    Row row;
    row.s = 10 + static_cast<int>(i) * 10;
    const double sparsity = row.s / 100.0;
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(row.s) * 7);
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, sparsity);
    const sparse::SparseVector v =
        workload::randomSparseVector(rng, n, sparsity);

    const auto base = harness::runSpmspvBaseline(config(2), m, v);
    row.base = base.cycles;
    row.sp[0] = harness::speedup(base, harness::runSpmspvHht(config(1), m, v, 1));
    row.sp[1] = harness::speedup(base, harness::runSpmspvHht(config(2), m, v, 1));
    row.sp[2] = harness::speedup(base, harness::runSpmspvHht(config(1), m, v, 2));
    row.sp[3] = harness::speedup(base, harness::runSpmspvHht(config(2), m, v, 2));
    // v2 with a scalar consumer: how much of v2's win is vectorization.
    row.sp[4] = harness::speedup(
        base, harness::runSpmspvHht(config(2), m, v, 2, /*vectorized=*/false));
    return row;
  });

  harness::Table table({"sparsity", "base_cycles", "v1_1buf", "v1_2buf",
                        "v2_1buf", "v2_2buf", "v2_2buf_scalar"});
  double sums[5] = {};
  int count = 0;
  for (const Row& row : rows) {
    for (int i = 0; i < 5; ++i) sums[i] += row.sp[i];
    ++count;
    table.addRow({std::to_string(row.s) + "%", std::to_string(row.base),
                  harness::fmt(row.sp[0]), harness::fmt(row.sp[1]),
                  harness::fmt(row.sp[2]), harness::fmt(row.sp[3]),
                  harness::fmt(row.sp[4])});
  }

  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "averages: v1_2buf " << harness::fmt(sums[1] / count)
            << " (paper v1 avg: 2.47), v2_2buf " << harness::fmt(sums[3] / count)
            << " (paper v2 avg: 3.05)\n";

  // --trace: variant-1 at the lowest sparsity — the configuration where
  // "HHT is performing more work than the CPU" (§5.1) and the CPU-wait
  // attribution matters most.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    const int s = rows.front().s;
    std::cout << "tracing variant-1 2-buffer run at sparsity " << s << "%\n";
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s) * 7);
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    const sparse::SparseVector v =
        workload::randomSparseVector(rng, n, s / 100.0);
    harness::SystemConfig cfg = config(2);
    cfg.trace_sink = &sink;
    harness::runSpmspvHht(cfg, m, v, 1);
  });
  return 0;
}
