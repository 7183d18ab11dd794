// Figure 8: sensitivity of the HHT's SpMV speedup to the vector width used
// by the RISCV vector instructions: VL in {1 (scalar), 4, 8} on a 512x512
// matrix. Baseline and HHT kernels both use the same width.
//
// Paper reference: speedup stays high at every width —
//   scalar 1.77..1.81, VL=4 1.51..1.62, VL=8 1.71..1.75 —
// showing the double-buffered ASIC HHT meets the CPU's demand rate.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig8_vector_width");
  const sim::Index n = opt.size ? opt.size : 512;

  harness::printBanner(std::cout, "Fig. 8",
                       "SpMV speedup vs vector width VL in {1,4,8} (512x512)");

  struct Row {
    int s = 0;
    double sp[3] = {};
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(9, [&](std::size_t idx) {
    Row row;
    row.s = 10 + static_cast<int>(idx) * 10;
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(row.s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, row.s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);

    const int widths[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
      harness::SystemConfig cfg = harness::defaultConfig(2, widths[i]);
      cfg.sched_mode = opt.schedMode();
      const bool vectorized = widths[i] > 1;
      const auto base = harness::runSpmvBaseline(cfg, m, v, vectorized);
      const auto hht = harness::runSpmvHht(cfg, m, v, vectorized);
      row.sp[i] = harness::speedup(base, hht);
    }
    return row;
  });

  harness::Table table({"sparsity", "VL=1(scalar)", "VL=4", "VL=8"});
  double sums[3] = {};
  int count = 0;
  for (const Row& row : rows) {
    for (int i = 0; i < 3; ++i) sums[i] += row.sp[i];
    ++count;
    table.addRow({std::to_string(row.s) + "%", harness::fmt(row.sp[0]),
                  harness::fmt(row.sp[1]), harness::fmt(row.sp[2])});
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "averages: scalar " << harness::fmt(sums[0] / count)
            << " (paper 1.77-1.81), VL4 " << harness::fmt(sums[1] / count)
            << " (paper 1.51-1.62), VL8 " << harness::fmt(sums[2] / count)
            << " (paper 1.71-1.75)\n";

  // --trace: scalar (VL=1) consumer at the lowest sparsity — the slowest
  // consumer against the densest stream, maximizing FIFO back-pressure.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    const int s = rows.front().s;
    std::cout << "tracing VL=1 HHT run at sparsity " << s << "%\n";
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);
    harness::SystemConfig cfg = harness::defaultConfig(2, 1);
    cfg.sched_mode = opt.schedMode();
    cfg.trace_sink = &sink;
    harness::runSpmvHht(cfg, m, v, false);
  });
  return 0;
}
