// Ablation (§7): ASIC HHT vs the programmable HHT the paper proposes in
// its conclusions ("a programmable HHT, using a simple RISCV like core...
// can be designed with very few integer instructions ... consuming less
// energy than a full-fledged primary CPU core").
//
// The programmable device runs the same protocols as firmware on a scalar
// micro-core; flexibility (new sparse formats = new firmware, no new
// silicon) is traded against the metadata-processing rate. This bench
// quantifies that trade for SpMV and both SpMSpV variants.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "abl_programmable");
  const sim::Index n = opt.size ? opt.size : 128;

  harness::printBanner(std::cout, "Ablation (§7)",
                       "dedicated ASIC HHT vs programmable (firmware) HHT");

  harness::SystemConfig cfg = harness::defaultConfig(2);
  cfg.sched_mode = opt.schedMode();

  const int sparsities[3] = {30, 60, 90};
  harness::SweepRunner sweep(opt.jobs);
  // One task per sparsity level; each returns its three pre-formatted
  // table rows so output order is independent of --jobs.
  const auto groups = sweep.run(3, [&](std::size_t idx) {
    const int s = sparsities[idx];
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s));
    const double sparsity = s / 100.0;
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, sparsity);
    const sparse::DenseVector dv = workload::randomDenseVector(rng, n);
    const sparse::SparseVector sv = workload::randomSparseVector(rng, n, sparsity);

    std::vector<std::vector<std::string>> rows;
    const auto add = [&](const char* kernel, const harness::RunResult& base,
                         const harness::RunResult& asic,
                         const harness::RunResult& prog) {
      rows.push_back({kernel, std::to_string(s) + "%",
                      std::to_string(base.cycles), std::to_string(asic.cycles),
                      std::to_string(prog.cycles),
                      harness::fmt(harness::speedup(base, asic)),
                      harness::fmt(harness::speedup(base, prog)),
                      harness::pct(prog.cpuWaitFraction())});
    };
    add("SpMV", harness::runSpmvBaseline(cfg, m, dv, true),
        harness::runSpmvHht(cfg, m, dv, true),
        harness::runSpmvProgHht(cfg, m, dv, true));
    add("SpMSpV v1", harness::runSpmspvBaseline(cfg, m, sv),
        harness::runSpmspvHht(cfg, m, sv, 1),
        harness::runSpmspvProgHht(cfg, m, sv, 1));
    add("SpMSpV v2", harness::runSpmspvBaseline(cfg, m, sv),
        harness::runSpmspvHht(cfg, m, sv, 2),
        harness::runSpmspvProgHht(cfg, m, sv, 2));
    return rows;
  });

  harness::Table table({"kernel", "sparsity", "baseline", "asic_hht",
                        "prog_hht", "asic_speedup", "prog_speedup",
                        "prog_cpu_wait"});
  for (const auto& rows : groups) {
    for (const auto& row : rows) table.addRow(row);
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout
      << "finding: at clock/latency parity with the primary core, the\n"
         "firmware metadata walk is strictly slower than the consumer it\n"
         "feeds (prog_speedup < 1, CPU idle 70-93%) — the dedicated\n"
         "pipelines buy the entire Fig. 4/5 win. A viable programmable HHT\n"
         "(§7) therefore needs the specialisation the paper hints at:\n"
         "multi-word fetch, a compare-select step, or a faster clock, not\n"
         "just a smaller general-purpose core.\n";

  // --trace: the programmable-HHT SpMV run at the middle sparsity — the
  // micro_core track shows where the firmware walk burns its cycles.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    const int s = sparsities[1];
    std::cout << "tracing programmable-HHT SpMV run at sparsity " << s
              << "%\n";
    sim::Rng rng(opt.seed + static_cast<std::uint64_t>(s));
    const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, s / 100.0);
    const sparse::DenseVector dv = workload::randomDenseVector(rng, n);
    harness::SystemConfig tcfg = cfg;
    tcfg.trace_sink = &sink;
    harness::runSpmvProgHht(tcfg, m, dv, true);
  });
  return 0;
}
