// Ablation: memory-system parameters the paper holds fixed.
//   (a) SRAM grant bandwidth shared by CPU and HHT (1/2/4 grants per
//       cycle) under CPU-priority vs round-robin arbitration — how much
//       does the HHT's extra traffic interfere with the core?
//   (b) The §3.2 "high-performance processor integration": an L1D cache in
//       front of the memory for the CPU path, the HHT path, or both.
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
  const benchutil::Options opt = benchutil::parse(argc, argv);
  const benchutil::HostTimeout host_watchdog(opt.timeout_ms, "abl_memory");
  const sim::Index n = opt.size ? opt.size : 256;

  harness::printBanner(std::cout, "Ablation",
                       "Memory bandwidth, arbitration and L1D integration");

  sim::Rng rng(opt.seed);
  const sparse::CsrMatrix m = workload::randomCsr(rng, n, n, 0.5);
  const sparse::DenseVector v = workload::randomDenseVector(rng, n);
  harness::SweepRunner sweep(opt.jobs);

  {
    struct Case {
      std::uint32_t grants;
      mem::ArbiterPolicy policy;
    };
    std::vector<Case> cases;
    for (std::uint32_t grants : {1u, 2u, 4u}) {
      for (auto policy : {mem::ArbiterPolicy::CpuPriority,
                          mem::ArbiterPolicy::RoundRobin}) {
        cases.push_back({grants, policy});
      }
    }
    const auto rows = sweep.run(cases.size(), [&](std::size_t i) {
      harness::SystemConfig cfg = harness::defaultConfig(2);
      cfg.memory.grants_per_cycle = cases[i].grants;
      cfg.memory.policy = cases[i].policy;
      cfg.sched_mode = opt.schedMode();
      const auto base = harness::runSpmvBaseline(cfg, m, v, true);
      const auto hht = harness::runSpmvHht(cfg, m, v, true);
      return std::vector<std::string>{
          std::to_string(cases[i].grants),
          cases[i].policy == mem::ArbiterPolicy::CpuPriority ? "cpu-priority"
                                                             : "round-robin",
          std::to_string(base.cycles), std::to_string(hht.cycles),
          harness::fmt(harness::speedup(base, hht)),
          std::to_string(hht.stats.value("mem.hht.conflict_cycles"))};
    });
    harness::Table table({"grants/cycle", "policy", "base_cycles",
                          "hht_cycles", "speedup", "hht_conflict_cycles"});
    for (const auto& row : rows) table.addRow(row);
    table.print(std::cout);
    std::cout << '\n';
  }

  {
    struct CacheCase {
      const char* name;
      bool cpu;
      bool hht;
    };
    const std::vector<CacheCase> cases = {{"none (MCU)", false, false},
                                          {"cpu only", true, false},
                                          {"hht only", false, true},
                                          {"cpu+hht", true, true}};
    const auto rows = sweep.run(cases.size(), [&](std::size_t i) {
      const CacheCase& cc = cases[i];
      harness::SystemConfig cfg = harness::defaultConfig(2);
      cfg.memory.cpu_cache_enabled = cc.cpu;
      cfg.memory.hht_cache_enabled = cc.hht;
      // High-performance integration (§3.2): the backing RAM sits behind an
      // interconnect (~24 cycles), so an L1D in front of it pays off; in
      // the MCU integration (row "none") the same far RAM is felt directly.
      cfg.memory.sram_latency = 24;
      cfg.memory.cache.miss_penalty = 24;
      cfg.sched_mode = opt.schedMode();
      const auto base = harness::runSpmvBaseline(cfg, m, v, true);
      const auto hht = harness::runSpmvHht(cfg, m, v, true);
      const auto rate = [](const harness::RunResult& r, const char* who) {
        const double hits = static_cast<double>(
            r.stats.value(std::string("mem.") + who + ".cache_hits"));
        const double misses = static_cast<double>(
            r.stats.value(std::string("mem.") + who + ".cache_misses"));
        return hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
      };
      return std::vector<std::string>{
          cc.name, std::to_string(base.cycles), std::to_string(hht.cycles),
          harness::fmt(harness::speedup(base, hht)),
          harness::pct(rate(hht, "cpu")), harness::pct(rate(hht, "hht"))};
    });
    harness::Table table({"L1D config", "base_cycles", "hht_cycles", "speedup",
                          "cpu_hit_rate", "hht_hit_rate"});
    for (const auto& row : rows) table.addRow(row);
    table.print(std::cout);
  }
  return 0;
}
