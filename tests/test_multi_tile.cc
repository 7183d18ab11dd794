// Multi-tile scale-out tests (DESIGN.md §13): N-tile sharded kernels are
// bit-identical to the single-tile System for SpMV and both SpMSpV
// variants under both partitioners; the single-tile robustness features
// (checkpoint/restore, differential oracle, per-tile stall profiles, the
// whole-machine jump of the run loop) all carry over to multi-tile
// systems.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/profile.h"
#include "sparse/reference.h"
#include "verify/oracle.h"
#include "workload/partition.h"
#include "workload/synthetic.h"

namespace hht::harness {
namespace {

using sim::Cycle;
using sim::ErrorKind;
using sim::SimError;

SystemConfig scaleConfig(std::uint32_t num_tiles,
                         mem::ArbiterPolicy policy =
                             mem::ArbiterPolicy::RoundRobin) {
  SystemConfig cfg = defaultConfig();
  cfg.memory.num_tiles = num_tiles;
  cfg.memory.policy = policy;
  return cfg;
}

/// Occamy-style hierarchical topology (DESIGN.md §17): per-tile L1s, four
/// address-interleaved shared channels, a 1-cycle link and the HHT stride
/// prefetcher. The topology is timing-only, so every run through it must
/// produce the same output bits as the flat shared SRAM.
SystemConfig hierConfig(std::uint32_t num_tiles) {
  SystemConfig cfg = scaleConfig(num_tiles);
  mem::TopologyConfig& topo = cfg.memory.topology;
  topo.channels = 4;
  topo.interleave_bytes = 256;
  topo.link_latency = 1;
  topo.tile_l1_enabled = true;
  topo.tile_l1.size_bytes = 1024;
  topo.tile_l1.line_bytes = 32;
  topo.tile_l1.ways = 2;
  topo.tile_l1.hit_latency = 1;
  topo.tile_l1.miss_penalty = 4;
  topo.hht_prefetch_enabled = true;
  return cfg;
}

void expectSameY(const sparse::DenseVector& a, const sparse::DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto& av = a.values();
  const auto& bv = b.values();
  EXPECT_TRUE(av.empty() ||
              std::memcmp(av.data(), bv.data(),
                          av.size() * sizeof(float)) == 0);
}

TEST(MultiTile, ShardedSpmvBitIdenticalToSingleTileForAnyTileCount) {
  sim::Rng rng(0x71E5);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.25);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);
  const SystemConfig base = defaultConfig();
  const RunResult single = runSpmvHht(base, m, v, true);

  for (const std::uint32_t tiles : {1u, 2u, 4u}) {
    for (const Partition part : {Partition::Block, Partition::NnzBalanced}) {
      const RunResult sharded =
          runSpmvHhtSharded(scaleConfig(tiles), tiles, part, m, v, true);
      expectSameY(single.y, sharded.y);
    }
  }
  // And the sharding is actually correct, not just self-consistent.
  const sparse::DenseVector ref = sparse::spmvCsr(m, v);
  expectSameY(ref, single.y);
}

TEST(MultiTile, ShardedSpmspvBothVariantsBitIdentical) {
  sim::Rng rng(0x71E6);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 80, 80, 0.3);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 80, 0.4);

  for (const int variant : {1, 2}) {
    const RunResult single = runSpmspvHht(defaultConfig(), m, v, variant);
    for (const std::uint32_t tiles : {2u, 4u}) {
      for (const Partition part :
           {Partition::Block, Partition::NnzBalanced}) {
        const RunResult sharded = runSpmspvHhtSharded(
            scaleConfig(tiles), tiles, part, m, v, variant);
        expectSameY(single.y, sharded.y);
      }
    }
  }
}

TEST(MultiTile, OneTileShardedRunIsCycleIdenticalToSystem) {
  sim::Rng rng(0x71E7);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.2);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
  // Same config both sides (System requires num_tiles == 1).
  const SystemConfig cfg = defaultConfig();
  const RunResult single = runSpmvHht(cfg, m, v, true);
  const RunResult sharded =
      runSpmvHhtSharded(cfg, 1, Partition::Block, m, v, true);
  // The shard program is instruction-identical (only its name differs), so
  // a 1-tile MultiTileSystem must reproduce the System cycle for cycle.
  EXPECT_EQ(single.cycles, sharded.cycles);
  EXPECT_EQ(single.retired, sharded.retired);
  EXPECT_EQ(single.cpu_wait_cycles, sharded.cpu_wait_cycles);
  expectSameY(single.y, sharded.y);
}

TEST(MultiTile, MoreTilesThanRowsLeavesTrailingShardsEmpty) {
  sim::Rng rng(0x71E8);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 6, 32, 0.4);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 32);
  const auto shards = workload::partitionRowsBlock(m, 8);
  ASSERT_EQ(shards.size(), 8u);
  EXPECT_TRUE(shards.back().empty());
  const RunResult sharded = runSpmvHhtSharded(scaleConfig(8), 8,
                                              Partition::Block, m, v, true);
  const sparse::DenseVector ref = sparse::spmvCsr(m, v);
  expectSameY(ref, sharded.y);
}

TEST(MultiTile, RejectsUnsupportedConfigsAndProgramCounts) {
  {  // System stays single-tile.
    SystemConfig cfg = scaleConfig(2);
    try {
      System sys(cfg);
      ADD_FAILURE() << "System accepted num_tiles=2";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Config);
    }
  }
  {  // MultiTileSystem is ASIC-only.
    SystemConfig cfg = scaleConfig(2);
    cfg.programmable_hht = true;
    EXPECT_THROW(MultiTileSystem sys(cfg), SimError);
  }
  {  // Fault injection is supported per tile: one injector per tile, the
     // tile-0 stream seeded identically to a System's.
    SystemConfig cfg = scaleConfig(2);
    cfg.faults.enabled = true;
    cfg.faults.drop_rate = 0.01;
    MultiTileSystem sys(cfg);
    EXPECT_NE(sys.faultInjector(0), nullptr);
    EXPECT_NE(sys.faultInjector(1), nullptr);
    EXPECT_NE(sys.faultInjector(0), sys.faultInjector(1));
  }
  {  // One program per tile, exactly.
    MultiTileSystem sys(scaleConfig(2));
    std::vector<isa::Program> one{
        isa::ProgramBuilder("only_one").ecall().build()};
    EXPECT_THROW(sys.run(one, 0x1000, 1), SimError);
  }
}

/// The 4-tile workload the robustness tests below share.
struct ShardedWorkload {
  sparse::CsrMatrix m;
  sparse::DenseVector v;
  kernels::SpmvLayout layout;
  std::vector<kernels::RowShard> shards;
  std::vector<isa::Program> programs;
};

ShardedWorkload prepare(MultiTileSystem& sys, std::uint64_t seed) {
  sim::Rng rng(seed);
  ShardedWorkload w;
  w.m = workload::randomCsr(rng, 64, 64, 0.3);
  w.v = workload::randomDenseVector(rng, 64);
  w.layout = loadSpmv(sys.arena(), sys.memory().sram(), w.m, w.v);
  w.shards = workload::partitionRowsNnzBalanced(w.m, sys.numTiles());
  for (std::uint32_t t = 0; t < sys.numTiles(); ++t) {
    w.programs.push_back(kernels::spmvVectorHhtShard(w.layout, w.shards[t],
                                                     sys.mmioBaseOf(t)));
  }
  return w;
}

/// Observer that checkpoints the running MultiTileSystem once, at `at`.
class CheckpointAt : public RunObserver {
 public:
  CheckpointAt(const std::vector<isa::Program>& programs, Cycle at)
      : programs_(&programs), at_(at) {}

  void onCycle(MultiTileSystem& sys, Cycle now) override {
    if (now == at_ && snapshot_.empty()) {
      snapshot_ = sys.checkpoint(*programs_, now + 1);
      resume_at_ = now + 1;
    }
  }

  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }
  Cycle resumeAt() const { return resume_at_; }

 private:
  const std::vector<isa::Program>* programs_;
  Cycle at_;
  Cycle resume_at_ = 0;
  std::vector<std::uint8_t> snapshot_;
};

TEST(MultiTile, CheckpointRestoreResumeIsBitIdenticalOn4Tiles) {
  const SystemConfig cfg = scaleConfig(4);

  MultiTileSystem uninterrupted(cfg);
  const ShardedWorkload w = prepare(uninterrupted, 0x4711);
  const RunResult base =
      uninterrupted.run(w.programs, w.layout.y, w.layout.num_rows);
  ASSERT_GT(base.cycles, 200u);

  MultiTileSystem observed(cfg);
  const ShardedWorkload w2 = prepare(observed, 0x4711);
  CheckpointAt observer(w2.programs, base.cycles / 2);
  const RunResult watched = observed.run(w2.programs, w2.layout.y,
                                         w2.layout.num_rows, 500'000'000,
                                         &observer);
  EXPECT_EQ(base.cycles, watched.cycles);
  EXPECT_EQ(base.stats.all(), watched.stats.all());
  ASSERT_FALSE(observer.snapshot().empty());

  MultiTileSystem resumed_sys(cfg);
  const Cycle start =
      resumed_sys.restore(observer.snapshot(), w2.programs);
  EXPECT_EQ(start, observer.resumeAt());
  const RunResult resumed = resumed_sys.resume(w2.programs, w2.layout.y,
                                               w2.layout.num_rows, start);
  EXPECT_EQ(base.cycles, resumed.cycles);
  EXPECT_EQ(base.retired, resumed.retired);
  EXPECT_EQ(base.stats.all(), resumed.stats.all());
  expectSameY(base.y, resumed.y);
  expectSameY(sparse::spmvCsr(w.m, w.v), resumed.y);
}

TEST(MultiTile, RestoreRejectsTileCountAndProgramMismatch) {
  const SystemConfig cfg = scaleConfig(4);
  MultiTileSystem sys(cfg);
  const ShardedWorkload w = prepare(sys, 0x4712);
  const std::vector<std::uint8_t> snap = sys.checkpoint(w.programs, 0);

  {  // Same snapshot into a 2-tile system: fingerprint already differs.
    MultiTileSystem target(scaleConfig(2));
    ShardedWorkload w2 = prepare(target, 0x4712);
    try {
      target.restore(snap, w2.programs);
      ADD_FAILURE() << "restore accepted a 4-tile snapshot on 2 tiles";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    }
  }
  {  // Right tile count, one wrong program.
    MultiTileSystem target(cfg);
    ShardedWorkload w2 = prepare(target, 0x4712);
    w2.programs[2] = isa::ProgramBuilder("imposter").ecall().build();
    try {
      target.restore(snap, w2.programs);
      ADD_FAILURE() << "restore accepted a mismatched tile program";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    }
  }
}

TEST(MultiTile, RestoreRejectsNewerSnapshotVersion) {
  const SystemConfig cfg = scaleConfig(4);
  MultiTileSystem sys(cfg);
  const ShardedWorkload w = prepare(sys, 0x4713);
  std::vector<std::uint8_t> snap = sys.checkpoint(w.programs, 0);
  const std::uint32_t newer = kSnapshotVersion + 1;
  std::memcpy(snap.data() + 4, &newer, sizeof newer);  // version field
  MultiTileSystem target(cfg);
  ShardedWorkload w2 = prepare(target, 0x4713);
  try {
    target.restore(snap, w2.programs);
    ADD_FAILURE() << "restore accepted a snapshot from the future";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Checkpoint);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos)
        << e.what();
  }
}

TEST(MultiTile, DifferentialOracleTapsEveryTileAndStaysClean) {
  const SystemConfig cfg = scaleConfig(2);
  MultiTileSystem sys(cfg);
  sim::Rng rng(0x4714);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.35);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 48, 0.5);
  const kernels::SpmspvLayout layout =
      loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
  const auto shards = workload::partitionRowsNnzBalanced(m, 2);

  std::vector<std::vector<verify::StreamEvent>> expected;
  std::vector<isa::Program> programs;
  for (std::uint32_t t = 0; t < 2; ++t) {
    expected.push_back(verify::expectedMergeV1StreamShard(m, v, shards[t]));
    programs.push_back(
        kernels::spmspvHhtV1Shard(layout, shards[t], sys.mmioBaseOf(t)));
  }

  verify::MultiTileOracle oracle(std::move(expected));
  oracle.attach(sys);
  const RunResult r =
      sys.run(programs, layout.y, layout.num_rows, 500'000'000, &oracle);
  oracle.detach(sys);
  oracle.checkFinal(r.y, sparse::spmspvMerge(m, v));
  EXPECT_FALSE(oracle.diverged()) << oracle.describe();
  EXPECT_GT(oracle.tileOracle(0).delivered(), 0u);
  EXPECT_GT(oracle.tileOracle(1).delivered(), 0u);
}

TEST(MultiTile, OracleCatchesACorruptedTileStream) {
  const SystemConfig cfg = scaleConfig(2);
  MultiTileSystem sys(cfg);
  const ShardedWorkload w = prepare(sys, 0x4715);

  std::vector<std::vector<verify::StreamEvent>> expected;
  for (std::uint32_t t = 0; t < 2; ++t) {
    expected.push_back(
        verify::expectedGatherStreamShard(w.m, w.v, w.shards[t]));
  }
  // Sabotage tile 1's functional model: the run must flag tile 1 and only
  // tile 1 (the taps are per-tile, so divergence localizes).
  ASSERT_FALSE(expected[1].empty());
  expected[1][0].bits ^= 0x00400000;
  verify::MultiTileOracle oracle(std::move(expected));
  oracle.attach(sys);
  sys.run(w.programs, w.layout.y, w.layout.num_rows, 500'000'000, &oracle);
  oracle.detach(sys);
  EXPECT_FALSE(oracle.tileOracle(0).diverged());
  EXPECT_TRUE(oracle.tileOracle(1).diverged());
  EXPECT_TRUE(oracle.diverged());
}

TEST(MultiTile, PerTileStallProfilesPartitionTheSharedHorizon) {
  SystemConfig cfg = scaleConfig(2);
  MultiTileSystem sys(cfg);
  const ShardedWorkload w = prepare(sys, 0x4716);
  obs::TraceSink sink0, sink1;
  sys.setTileTraceSink(0, &sink0);
  sys.setTileTraceSink(1, &sink1);
  sys.run(w.programs, w.layout.y, w.layout.num_rows);

  const obs::ProfileReport rep0 = obs::profile(sink0);
  const obs::ProfileReport rep1 = obs::profile(sink1);
  // Every sink received the run's kRunEnd, so both tiles' stall buckets
  // partition the SAME wall-clock horizon.
  ASSERT_GT(rep0.horizon, 0u);
  EXPECT_EQ(rep0.horizon, rep1.horizon);
  EXPECT_EQ(rep0.componentTotal(obs::Component::kCpu), rep0.horizon);
  EXPECT_EQ(rep1.componentTotal(obs::Component::kCpu), rep1.horizon);
}

TEST(MultiTile, FastForwardIsBitIdenticalOn4Tiles) {
  sim::Rng rng(0x4717);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.15);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 96);

  SystemConfig on = scaleConfig(4);
  on.sched_mode = SchedMode::Event;
  SystemConfig off = scaleConfig(4);
  off.sched_mode = SchedMode::Naive;
  const RunResult fast =
      runSpmvHhtSharded(on, 4, Partition::NnzBalanced, m, v, true);
  const RunResult naive =
      runSpmvHhtSharded(off, 4, Partition::NnzBalanced, m, v, true);
  EXPECT_EQ(fast.cycles, naive.cycles);
  EXPECT_EQ(fast.retired, naive.retired);
  EXPECT_EQ(fast.cpu_wait_cycles, naive.cpu_wait_cycles);
  EXPECT_EQ(fast.hht_wait_cycles, naive.hht_wait_cycles);
  EXPECT_EQ(fast.stats.all(), naive.stats.all());
  expectSameY(fast.y, naive.y);
}

/// Machine variants the event-loop coverage sweeps: the flat shared SRAM,
/// the hierarchical topology, the chunk queue, and the flat SRAM with
/// per-tile response drop/delay injection and the patrol scrubber on.
enum class Variant { kFlat, kHier, kChunkQueue, kFaultsScrub };

/// One sharded (or chunk-queue) SpMV machine, ready to run.
struct Machine {
  std::unique_ptr<MultiTileSystem> sys;
  kernels::SpmvLayout layout;
  std::vector<isa::Program> programs;
};

Machine buildMachine(std::uint32_t tiles, Variant variant, SchedMode mode,
                     const sparse::CsrMatrix& m, const sparse::DenseVector& v) {
  SystemConfig cfg =
      variant == Variant::kHier ? hierConfig(tiles) : scaleConfig(tiles);
  cfg.memory.work_queue_enabled = variant == Variant::kChunkQueue;
  if (variant == Variant::kFaultsScrub) {
    // Drops and delays are recovered inside the memory system, so the run
    // completes; each tile draws its own fault stream.
    cfg.faults.enabled = true;
    cfg.faults.seed = 0x4743;
    cfg.faults.drop_rate = 0.02;
    cfg.faults.drop_penalty_cycles = 32;
    cfg.faults.delay_rate = 0.02;
    cfg.faults.delay_cycles = 16;
    cfg.memory.scrub_enabled = true;
    cfg.memory.scrub_period = 16;
  }
  cfg.sched_mode = mode;
  Machine mc;
  mc.sys = std::make_unique<MultiTileSystem>(cfg);
  MultiTileSystem& sys = *mc.sys;
  mc.layout = loadSpmv(sys.arena(), sys.memory().sram(), m, v);
  if (variant == Variant::kChunkQueue) {
    sys.workQueue()->seed(dealRowChunks(mc.layout.num_rows, tiles, 8));
  }
  const auto shards = workload::partitionRowsNnzBalanced(m, tiles);
  for (std::uint32_t t = 0; t < tiles; ++t) {
    mc.programs.push_back(
        variant == Variant::kChunkQueue
            ? kernels::spmvVectorHhtChunkQueue(mc.layout, sys.mmioBaseOf(t),
                                               sys.workQueueBase() + 4 * t)
            : kernels::spmvVectorHhtShard(mc.layout, shards[t],
                                          sys.mmioBaseOf(t)));
  }
  return mc;
}

TEST(MultiTile, EventLoopMatchesNaiveAcrossTilesAndTopologies) {
  // The whole-machine jump must reproduce the naive loop's output bits,
  // merged stats and snapshot bytes — at the end of the run and mid-run,
  // where every skipped component must have been credited exactly — for
  // every tile count on the flat, hierarchical and chunk-queue machines,
  // and on 4 tiles with fault injection and scrubbing.
  sim::Rng rng(0x4740);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.2);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
  std::vector<std::pair<std::uint32_t, Variant>> cases;
  for (const std::uint32_t tiles : {1u, 2u, 4u, 8u}) {
    for (const Variant variant :
         {Variant::kFlat, Variant::kHier, Variant::kChunkQueue}) {
      cases.emplace_back(tiles, variant);
    }
  }
  cases.emplace_back(4u, Variant::kFaultsScrub);
  for (const auto& [tiles, variant] : cases) {
    const std::string label = "tiles=" + std::to_string(tiles) + " variant=" +
                              std::to_string(static_cast<int>(variant));
    Machine naive = buildMachine(tiles, variant, SchedMode::Naive, m, v);
    Machine event = buildMachine(tiles, variant, SchedMode::Event, m, v);
    const RunResult a =
        naive.sys->run(naive.programs, naive.layout.y, naive.layout.num_rows);
    const RunResult b =
        event.sys->run(event.programs, event.layout.y, event.layout.num_rows);
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.stats.all(), b.stats.all()) << label;
    expectSameY(a.y, b.y);
    expectSameY(sparse::spmvCsr(m, v), b.y);
    if (variant == Variant::kFaultsScrub) {
      // The variant only covers something if both mechanisms fired and
      // the event run still jumped.
      EXPECT_GT(a.stats.value("faults.total_injected"), 0u) << label;
      EXPECT_GT(a.stats.value("mem.scrub.reads"), 0u) << label;
      EXPECT_GT(event.sys->hostSkippedCycles(), 0u) << label;
    }
    EXPECT_EQ(naive.sys->checkpoint(naive.programs, a.cycles),
              event.sys->checkpoint(event.programs, b.cycles))
        << label;

    // Mid-run: stop both loops at the same cycle via max_cycles and
    // compare the complete machine state there.
    const Cycle cut = a.cycles / 2;
    Machine naive_cut = buildMachine(tiles, variant, SchedMode::Naive, m, v);
    Machine event_cut = buildMachine(tiles, variant, SchedMode::Event, m, v);
    for (Machine* mc : {&naive_cut, &event_cut}) {
      try {
        mc->sys->run(mc->programs, mc->layout.y, mc->layout.num_rows, cut);
        ADD_FAILURE() << label << ": run finished before the cut";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::Watchdog) << label;
      }
    }
    EXPECT_EQ(naive_cut.sys->checkpoint(naive_cut.programs, cut),
              event_cut.sys->checkpoint(event_cut.programs, cut))
        << label;
  }
}

TEST(MultiTile, EventLoopSkipsAcrossTilesOnASlowSram) {
  // A 2048-cycle SRAM with every tile running the scalar baseline on its
  // own operand copy: all four cores sit in long load stalls with their
  // devices idle, and the event loop must jump those stretches across the
  // whole machine.
  sim::Rng rng(0x4741);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 8, 8, 0.3);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 8);
  SystemConfig cfg = scaleConfig(4);
  cfg.memory.sram_latency = 2048;
  MultiTileSystem sys(cfg);
  std::vector<kernels::SpmvLayout> layouts;
  std::vector<isa::Program> programs;
  for (std::uint32_t t = 0; t < 4; ++t) {
    layouts.push_back(loadSpmv(sys.arena(), sys.memory().sram(), m, v));
    programs.push_back(kernels::spmvScalarBaseline(layouts.back()));
  }
  const RunResult r = sys.run(programs, layouts[0].y, layouts[0].num_rows);
  EXPECT_GT(sys.hostSkippedCycles(), r.cycles / 2);
  const sparse::DenseVector ref = sparse::spmvCsr(m, v);
  for (const kernels::SpmvLayout& layout : layouts) {
    expectSameY(ref, sparse::DenseVector(sys.memory().sram().peekArray<float>(
                         layout.y, layout.num_rows)));
  }
}

TEST(MultiTile, TracedShardedRunProfilesTileZeroOverTheWholeHorizon) {
  // config.trace_sink is the memory system's sink and tile 0's default
  // core/HHT sink, so a traced sharded run attributes tile 0's cycles
  // instead of reporting its core as drained for the whole run.
  sim::Rng rng(0x4742);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 64, 64, 0.2);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 64);
  obs::TraceSink sink;
  SystemConfig cfg = scaleConfig(4);
  cfg.trace_sink = &sink;
  const RunResult r =
      runSpmvHhtSharded(cfg, 4, Partition::NnzBalanced, m, v, true);
  expectSameY(sparse::spmvCsr(m, v), r.y);
  ASSERT_EQ(sink.dropped(), 0u);
  const obs::ProfileReport rep = obs::profile(sink);
  ASSERT_GT(rep.horizon, 0u);
  EXPECT_GT(rep.bucketCycles(obs::Component::kCpu, obs::kBucketCompute), 0u);
  for (const obs::Component c :
       {obs::Component::kCpu, obs::Component::kMem, obs::Component::kHhtFe,
        obs::Component::kHhtBe}) {
    EXPECT_EQ(rep.componentTotal(c), rep.horizon)
        << "component " << static_cast<int>(c);
  }
}

TEST(MultiTile, HierarchicalTopologyIsOutputIdenticalToFlatEveryEngine) {
  // Differential hierarchy-vs-flat check across every sharded engine mode
  // (SpMV scalar + vector, SpMSpV v1 + v2) and both partitioners: the
  // tile L1s, interleaved channels, link latency and prefetcher may change
  // the schedule but never a single output bit.
  sim::Rng rng(0x71F0);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 96, 96, 0.3);
  const sparse::DenseVector dv = workload::randomDenseVector(rng, 96);
  const sparse::SparseVector sv = workload::randomSparseVector(rng, 96, 0.4);

  std::uint64_t l1_hits = 0;
  for (const std::uint32_t tiles : {2u, 4u}) {
    for (const Partition part : {Partition::Block, Partition::NnzBalanced}) {
      for (const bool vectorized : {false, true}) {
        const RunResult flat =
            runSpmvHhtSharded(scaleConfig(tiles), tiles, part, m, dv,
                              vectorized);
        const RunResult hier =
            runSpmvHhtSharded(hierConfig(tiles), tiles, part, m, dv,
                              vectorized);
        expectSameY(flat.y, hier.y);
        l1_hits += hier.stats.value("mem.l1.hits");
      }
      for (const int variant : {1, 2}) {
        const RunResult flat = runSpmspvHhtSharded(scaleConfig(tiles), tiles,
                                                   part, m, sv, variant);
        const RunResult hier = runSpmspvHhtSharded(hierConfig(tiles), tiles,
                                                   part, m, sv, variant);
        expectSameY(flat.y, hier.y);
        l1_hits += hier.stats.value("mem.l1.hits");
      }
    }
  }
  // The comparison only means something if the hierarchy actually engaged.
  EXPECT_GT(l1_hits, 0u);
}

TEST(MultiTile, HierarchicalRunStaysCleanUnderDifferentialOracle) {
  // The per-tile co-simulation oracle taps the HHT streams, which sit
  // upstream of the memory topology — a hierarchical run must deliver the
  // exact same functional stream to every tap.
  const SystemConfig cfg = hierConfig(2);
  MultiTileSystem sys(cfg);
  sim::Rng rng(0x71F1);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.35);
  const sparse::SparseVector v = workload::randomSparseVector(rng, 48, 0.5);
  const kernels::SpmspvLayout layout =
      loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
  const auto shards = workload::partitionRowsNnzBalanced(m, 2);

  std::vector<std::vector<verify::StreamEvent>> expected;
  std::vector<isa::Program> programs;
  for (std::uint32_t t = 0; t < 2; ++t) {
    expected.push_back(verify::expectedMergeV1StreamShard(m, v, shards[t]));
    programs.push_back(
        kernels::spmspvHhtV1Shard(layout, shards[t], sys.mmioBaseOf(t)));
  }

  verify::MultiTileOracle oracle(std::move(expected));
  oracle.attach(sys);
  const RunResult r =
      sys.run(programs, layout.y, layout.num_rows, 500'000'000, &oracle);
  oracle.detach(sys);
  oracle.checkFinal(r.y, sparse::spmspvMerge(m, v));
  EXPECT_FALSE(oracle.diverged()) << oracle.describe();
  EXPECT_GT(oracle.tileOracle(0).delivered(), 0u);
  EXPECT_GT(oracle.tileOracle(1).delivered(), 0u);
  // The run really went through the hierarchy: local hits happened and the
  // shared level spread across more than one channel.
  EXPECT_GT(r.stats.value("mem.l1.hits"), 0u);
  EXPECT_GT(r.stats.value("mem.ch1.grants") + r.stats.value("mem.ch2.grants") +
                r.stats.value("mem.ch3.grants"),
            0u);
}

TEST(MultiTile, HierarchicalCheckpointRestoreResumeIsBitIdentical) {
  // Snapshot-v6 round trip with the full topology state in flight: channel
  // queues, tile lanes, L1 contents, prefetch queue and stride predictors
  // all restore mid-run and the continuation is bit-identical.
  const SystemConfig cfg = hierConfig(4);

  MultiTileSystem uninterrupted(cfg);
  const ShardedWorkload w = prepare(uninterrupted, 0x4719);
  const RunResult base =
      uninterrupted.run(w.programs, w.layout.y, w.layout.num_rows);
  ASSERT_GT(base.cycles, 200u);

  MultiTileSystem observed(cfg);
  const ShardedWorkload w2 = prepare(observed, 0x4719);
  CheckpointAt observer(w2.programs, base.cycles / 2);
  observed.run(w2.programs, w2.layout.y, w2.layout.num_rows, 500'000'000,
               &observer);
  ASSERT_FALSE(observer.snapshot().empty());

  MultiTileSystem resumed_sys(cfg);
  const Cycle start = resumed_sys.restore(observer.snapshot(), w2.programs);
  const RunResult resumed = resumed_sys.resume(w2.programs, w2.layout.y,
                                               w2.layout.num_rows, start);
  EXPECT_EQ(base.cycles, resumed.cycles);
  EXPECT_EQ(base.retired, resumed.retired);
  EXPECT_EQ(base.stats.all(), resumed.stats.all());
  expectSameY(base.y, resumed.y);
  expectSameY(sparse::spmvCsr(w.m, w.v), resumed.y);
}

TEST(MultiTile, StatsKeepTilePrefixedNamespaces) {
  const SystemConfig cfg = scaleConfig(2);
  MultiTileSystem sys(cfg);
  const ShardedWorkload w = prepare(sys, 0x4718);
  const RunResult r = sys.run(w.programs, w.layout.y, w.layout.num_rows);
  // Tile 0 keeps the historic names; tile 1 is prefixed — both CPU-side
  // (absorbed here) and memory-side (registered by the arbiter).
  EXPECT_GT(r.stats.value("cpu.cycles"), 0u);
  EXPECT_GT(r.stats.value("t1.cpu.cycles"), 0u);
  EXPECT_GT(r.stats.value("mem.cpu.grants"), 0u);
  EXPECT_GT(r.stats.value("mem.t1.cpu.grants"), 0u);
  EXPECT_GT(r.stats.value("mem.t1.hht.grants"), 0u);
}

}  // namespace
}  // namespace hht::harness
