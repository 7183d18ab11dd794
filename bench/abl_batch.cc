// Ablation: SpMM batch-size sweep.
//
// DNN inference often batches activations (Y = W * B with k columns).
// The HHT is restarted once per column (§5.5's tiling pattern applied to
// the operand instead of the matrix); this bench checks that the per-START
// reconfiguration cost amortises and the SpMV speedup carries over to
// batched workloads.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/synthetic.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "abl_batch");
  const sim::Index n = opt.size ? opt.size : 128;

  harness::printBanner(std::cout, "Ablation",
                       "SpMM batch-size sweep (128x128 @ 60% sparsity)");

  sim::Rng rng(opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.6);

  // Operand generation consumes one shared RNG stream, so it stays serial
  // (and cheap); only the simulations fan out across --jobs.
  const std::vector<sim::Index> ks = {1u, 2u, 4u, 8u, 16u};
  std::vector<sparse::DenseMatrix> bs;
  for (sim::Index k : ks) {
    sparse::DenseMatrix b(n, k);
    for (sim::Index i = 0; i < n; ++i) {
      for (sim::Index j = 0; j < k; ++j) {
        b.at(i, j) = workload::drawValue(rng, workload::ValueDist::kSmallIntegers);
      }
    }
    bs.push_back(std::move(b));
  }

  harness::SystemConfig cfg = harness::defaultConfig(2);
  cfg.sched_mode = opt.schedMode();
  struct Row {
    std::uint64_t base = 0, hht = 0;
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(ks.size(), [&](std::size_t i) {
    Row row;
    row.base = harness::runSpmmBaseline(cfg, m, bs[i]).cycles;
    row.hht = harness::runSpmmHht(cfg, m, bs[i]).cycles;
    return row;
  });

  harness::Table table({"batch k", "base_cycles", "hht_cycles", "speedup",
                        "hht_cycles_per_col"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const sim::Index k = ks[i];
    const double sp = rows[i].hht == 0
                          ? 0.0
                          : static_cast<double>(rows[i].base) / rows[i].hht;
    table.addRow({std::to_string(k), std::to_string(rows[i].base),
                  std::to_string(rows[i].hht), harness::fmt(sp),
                  std::to_string(rows[i].hht / k)});
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "expected: flat speedup and flat per-column cost across k —\n"
               "the per-column START/V_Base reprogram is a handful of stores.\n";
  return 0;
}
