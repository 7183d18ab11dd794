// Figure 9: HHT speedup on the fully-connected (classifier) layers of
// seven DNNs, SpMV with VL=8, baseline uses vector indexed loads.
//
// Paper reference: 1.53x (DenseNet) .. 1.92x (VGG19); results track the
// synthetic sweeps at the corresponding sparsity/size.
//
// Substitution: seeded random weight matrices at each network's classifier
// shape and sparsity (DESIGN.md #3). Rows are independent in SpMV, so a
// 128-row slice of each layer preserves the cycle ratio while keeping the
// bench fast; pass --size=1000 to simulate the full layers.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "workload/dnn.h"

int main(int argc, char** argv) {
  using namespace hht;
  const benchutil::Options opt = benchutil::parse(argc, argv, /*trace=*/true);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "fig9_dnn_layers");
  const sim::Index row_limit = opt.size ? opt.size : 128;

  harness::printBanner(std::cout, "Fig. 9",
                       "SpMV speedup on DNN fully-connected layers (VL=8)");

  const auto catalog = workload::dnnFcCatalog();
  struct Row {
    std::string network, shape, sparsity;
    std::uint64_t base = 0, hht = 0;
    double sp = 0.0;
  };
  harness::SweepRunner sweep(opt.jobs);
  const auto rows = sweep.run(catalog.size(), [&](std::size_t i) {
    const workload::DnnFcLayer& layer = catalog[i];
    const sparse::CsrMatrix m =
        workload::dnnLayerMatrix(layer, opt.seed, row_limit);
    sim::Rng rng(opt.seed ^ 0xD99);
    const sparse::DenseVector v =
        workload::randomDenseVector(rng, layer.in_features);

    harness::SystemConfig cfg = harness::defaultConfig(2);
    cfg.sched_mode = opt.schedMode();
    const auto base = harness::runSpmvBaseline(cfg, m, v, true);
    const auto hht = harness::runSpmvHht(cfg, m, v, true);
    Row row;
    row.network = layer.network;
    row.shape =
        std::to_string(m.numRows()) + "x" + std::to_string(m.numCols());
    row.sparsity = harness::pct(layer.sparsity, 0);
    row.base = base.cycles;
    row.hht = hht.cycles;
    row.sp = harness::speedup(base, hht);
    return row;
  });

  harness::Table table({"network", "shape", "sparsity", "base_cycles",
                        "hht_cycles", "speedup", "bar"});
  for (const Row& row : rows) {
    table.addRow({row.network, row.shape, row.sparsity,
                  std::to_string(row.base), std::to_string(row.hht),
                  harness::fmt(row.sp), harness::bar(row.sp, 2.5)});
  }
  if (opt.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "paper: 1.53 (DenseNet) .. 1.92 (VGG19)\n";

  // --trace: the lowest-speedup network layer.
  benchutil::writeTraceIfRequested(opt, std::cout, [&](obs::TraceSink& sink) {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].sp < rows[worst].sp) worst = i;
    }
    const workload::DnnFcLayer& layer = catalog[worst];
    std::cout << "tracing HHT run on " << layer.network << " classifier\n";
    const sparse::CsrMatrix m =
        workload::dnnLayerMatrix(layer, opt.seed, row_limit);
    sim::Rng rng(opt.seed ^ 0xD99);
    const sparse::DenseVector v =
        workload::randomDenseVector(rng, layer.in_features);
    harness::SystemConfig cfg = harness::defaultConfig(2);
    cfg.sched_mode = opt.schedMode();
    cfg.trace_sink = &sink;
    harness::runSpmvHht(cfg, m, v, true);
  });
  return 0;
}
