// Figure 7: fraction of execution time the CPU idles waiting for the HHT
// during SpMSpV, for variant-1 and variant-2 with 1 and 2 buffers.
//
// Paper reference: variant-1 (HHT does the full merge and supplies aligned
// pairs) leaves the CPU idling for a significant fraction of the run;
// two buffers help only marginally. Variant-2 (value-or-zero stream)
// reduces CPU idle time significantly.
#include <iostream>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig7_spmspv_wait");
  const sim::Index n = opt.size ? opt.size : 512;

  harness::printBanner(
      std::cout, "Fig. 7",
      "CPU wait-cycle fraction for SpMSpV: variant-1/2 x 1/2 buffers");

  auto config = [&](std::uint32_t buffers) {
    harness::SystemConfig cfg = harness::defaultConfig(buffers);
    cfg.sched_mode = opt.schedMode();
    return cfg;
  };
  struct Row {
    int s = 0;
    double wait[4] = {};
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(9, [&](std::size_t i) {
    Row row;
    row.s = 10 + static_cast<int>(i) * 10;
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(row.s) * 7);
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, row.s / 100.0);
    const sparse::SparseVector v =
        workload::randomSparseVector(rng, n, row.s / 100.0);

    row.wait[0] = harness::runSpmspvHht(config(1), m, v, 1).cpuWaitFraction();
    row.wait[1] = harness::runSpmspvHht(config(2), m, v, 1).cpuWaitFraction();
    row.wait[2] = harness::runSpmspvHht(config(1), m, v, 2).cpuWaitFraction();
    row.wait[3] = harness::runSpmspvHht(config(2), m, v, 2).cpuWaitFraction();
    return row;
  });

  harness::Table table(
      {"sparsity", "v1_1buf", "v1_2buf", "v2_1buf", "v2_2buf"});
  for (const Row& row : rows) {
    table.addRow({std::to_string(row.s) + "%", harness::pct(row.wait[0]),
                  harness::pct(row.wait[1]), harness::pct(row.wait[2]),
                  harness::pct(row.wait[3])});
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "paper: variant-1 idles significantly (HHT does the merge);\n"
               "       variant-2 idles far less; 2 buffers help marginally\n";

  // --trace: the highest-wait variant-1 point — the bar this figure is
  // about; the profiler attributes those wait cycles per component.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    const Row* worst = &rows.front();
    for (const Row& row : rows) {
      if (row.wait[0] > worst->wait[0]) worst = &row;
    }
    std::cout << "tracing variant-1 1-buffer run at sparsity " << worst->s
              << "%\n";
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(worst->s) * 7);
    const sparse::CsrMatrix m =
        workload::randomCsr(rng, n, n, worst->s / 100.0);
    const sparse::SparseVector v =
        workload::randomSparseVector(rng, n, worst->s / 100.0);
    harness::SystemConfig tcfg = config(1);
    tcfg.trace_sink = &sink;
    harness::runSpmspvHht(tcfg, m, v, 1);
  });
  return 0;
}
