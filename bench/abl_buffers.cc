// Ablation: CPU-side buffer count N (the paper fixes N=2; §3.1 notes N is
// a design-time parameter and N>=2 enables prefetch-ahead). We sweep
// N in {1,2,4,8} for SpMV and SpMSpV variant-1 at 50% sparsity.
//
// Expected: SpMV is CPU-bound (the BE keeps up even with one buffer), so
// the curve is flat — consistent with the paper's finding that double
// buffering adds little. Variant-1 is HHT-bound, so extra buffers smooth
// the pair bursts and help until the merge rate saturates.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "abl_buffers");
  const sim::Index n = opt.size ? opt.size : 256;

  harness::printBanner(std::cout, "Ablation",
                       "CPU-side buffer count N sweep (256x256, 50% sparsity)");

  sim::Rng rng(opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.5);
  const sparse::DenseVector dv = workload::randomDenseVector(rng, n);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, n, 0.5);

  auto config = [&](std::uint32_t nb) {
    harness::SystemConfig cfg = harness::defaultConfig(nb);
    cfg.sched_mode = opt.schedMode();
    return cfg;
  };
  const auto spmv_base = harness::runSpmvBaseline(config(2), m, dv, true);
  const auto spmspv_base = harness::runSpmspvBaseline(config(2), m, sv);

  const std::uint32_t nbs[4] = {1u, 2u, 4u, 8u};
  struct Row {
    double spmv_sp = 0.0, spmv_wait = 0.0, v1_sp = 0.0, v1_wait = 0.0;
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(4, [&](std::size_t i) {
    const auto spmv = harness::runSpmvHht(config(nbs[i]), m, dv, true);
    const auto v1 = harness::runSpmspvHht(config(nbs[i]), m, sv, 1);
    Row row;
    row.spmv_sp = harness::speedup(spmv_base, spmv);
    row.spmv_wait = spmv.cpuWaitFraction();
    row.v1_sp = harness::speedup(spmspv_base, v1);
    row.v1_wait = v1.cpuWaitFraction();
    return row;
  });

  harness::Table table({"buffers", "spmv_speedup", "spmv_cpu_wait",
                        "v1_speedup", "v1_cpu_wait"});
  for (std::size_t i = 0; i < 4; ++i) {
    table.addRow({std::to_string(nbs[i]), harness::fmt(rows[i].spmv_sp),
                  harness::pct(rows[i].spmv_wait), harness::fmt(rows[i].v1_sp),
                  harness::pct(rows[i].v1_wait)});
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
