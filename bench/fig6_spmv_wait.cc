// Figure 6: fraction of execution time the CPU idles waiting for the HHT
// during SpMV, per sparsity level, with 1 and 2 buffers.
//
// Paper reference: "With an ASIC HHT, the application CPU rarely waits" —
// the bars are near zero at every sparsity; this is what lets Fig. 4's
// speedup stay near its ceiling.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig6_spmv_wait");
  const sim::Index n = opt.size ? opt.size : 512;

  harness::printBanner(std::cout, "Fig. 6",
                       "CPU wait-cycle fraction for SpMV (512x512, VL=8)");

  auto config = [&](std::uint32_t buffers) {
    harness::SystemConfig cfg = harness::defaultConfig(buffers);
    cfg.sched_mode = opt.schedMode();
    return cfg;
  };
  struct Row {
    int s = 0;
    double wait1 = 0.0, wait2 = 0.0, stall1 = 0.0, stall2 = 0.0;
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(9, [&](std::size_t i) {
    Row row;
    row.s = 10 + static_cast<int>(i) * 10;
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(row.s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, row.s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);

    const auto h1 = harness::runSpmvHht(config(1), m, v, true);
    const auto h2 = harness::runSpmvHht(config(2), m, v, true);
    // hht_stall = fraction of cycles the *BE* idles on full buffers — the
    // complementary "HHT waiting for CPU" counter of §4.
    const auto stallFrac = [](const harness::RunResult& r) {
      return r.cycles ? static_cast<double>(r.hht_wait_cycles) / r.cycles : 0.0;
    };
    row.wait1 = h1.cpuWaitFraction();
    row.wait2 = h2.cpuWaitFraction();
    row.stall1 = stallFrac(h1);
    row.stall2 = stallFrac(h2);
    return row;
  });

  harness::Table table({"sparsity", "wait_1buf", "wait_2buf", "hht_stall_1buf",
                        "hht_stall_2buf"});
  for (const Row& row : rows) {
    table.addRow({std::to_string(row.s) + "%", harness::pct(row.wait1),
                  harness::pct(row.wait2), harness::pct(row.stall1),
                  harness::pct(row.stall2)});
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "paper: CPU wait ~0% at all sparsities (ASIC HHT keeps up)\n";

  // --trace: the highest-wait 1-buffer point; the profiler's fifo_wait
  // bucket decomposes exactly the wait fraction this figure plots.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    const Row* worst = &rows.front();
    for (const Row& row : rows) {
      if (row.wait1 > worst->wait1) worst = &row;
    }
    std::cout << "tracing 1-buffer HHT run at sparsity " << worst->s << "%\n";
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(worst->s));
    const sparse::CsrMatrix m =
        workload::randomCsr(rng, n, n, worst->s / 100.0);
    const sparse::DenseVector v = workload::randomDenseVector(rng, n);
    harness::SystemConfig cfg = config(1);
    cfg.trace_sink = &sink;
    harness::runSpmvHht(cfg, m, v, true);
  });
  return 0;
}
