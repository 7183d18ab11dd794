// Figure 4: HHT speedup over the CPU-only baseline for SpMV (sparse matrix
// x dense vector) on a 512x512 synthetic matrix, sparsity 10%..90%,
// RV32 vector kernels with VL=8; ASIC HHT with 1 and 2 buffers.
//
// Paper reference: 1-buffer average speedup 1.70 (1.67..1.72);
// 2-buffer average 1.73 (1.71..1.75); gains shrink slightly as sparsity
// rises because less work is offloaded per row.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig4_spmv_speedup");
  const sim::Index n = opt.size ? opt.size : 512;

  harness::printBanner(std::cout, "Fig. 4",
                       "SpMV speedup vs sparsity (512x512, VL=8, HHT 1/2 buffers)");

  // Each sparsity point is an independent simulation (its own seed-derived
  // operands and fresh Systems), so the sweep parallelizes across rows;
  // results come back in row order regardless of --jobs.
  auto config = [&](std::uint32_t buffers) {
    harness::SystemConfig cfg = harness::defaultConfig(buffers);
    cfg.sched_mode = opt.schedMode();
    return cfg;
  };
  struct Row {
    int s = 0;
    std::uint64_t base = 0, hht1 = 0, hht2 = 0;
    double sp1 = 0.0, sp2 = 0.0;
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(9, [&](std::size_t i) {
    Row row;
    row.s = 10 + static_cast<int>(i) * 10;
    const double sparsity = row.s / 100.0;
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(row.s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, sparsity);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);

    const auto base = harness::runSpmvBaseline(config(2), m, v, true);
    const auto hht1 = harness::runSpmvHht(config(1), m, v, true);
    const auto hht2 = harness::runSpmvHht(config(2), m, v, true);
    row.base = base.cycles;
    row.hht1 = hht1.cycles;
    row.hht2 = hht2.cycles;
    row.sp1 = harness::speedup(base, hht1);
    row.sp2 = harness::speedup(base, hht2);
    return row;
  });

  harness::Table table({"sparsity", "base_cycles", "hht1_cycles", "hht2_cycles",
                        "speedup_1buf", "speedup_2buf", "bar(2buf)"});
  double sum1 = 0.0, sum2 = 0.0;
  int count = 0;
  for (const Row& row : rows) {
    sum1 += row.sp1;
    sum2 += row.sp2;
    ++count;
    table.addRow({std::to_string(row.s) + "%", std::to_string(row.base),
                  std::to_string(row.hht1), std::to_string(row.hht2),
                  harness::fmt(row.sp1), harness::fmt(row.sp2),
                  harness::bar(row.sp2, 4.0)});
  }

  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "average speedup: 1-buffer " << harness::fmt(sum1 / count)
            << " (paper: 1.70), 2-buffer " << harness::fmt(sum2 / count)
            << " (paper: 1.73)\n";

  // --trace: re-run the worst 2-buffer sparsity point (lowest speedup, the
  // matrix where stall attribution is most interesting) with a sink.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    const Row* worst = &rows.front();
    for (const Row& row : rows) {
      if (row.sp2 < worst->sp2) worst = &row;
    }
    std::cout << "tracing 2-buffer HHT run at sparsity " << worst->s << "%\n";
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(worst->s));
    const sparse::CsrMatrix m =
        workload::randomCsr(rng, n, n, worst->s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);
    harness::SystemConfig cfg = config(2);
    cfg.trace_sink = &sink;
    harness::runSpmvHht(cfg, m, v, true);
  });
  return 0;
}
