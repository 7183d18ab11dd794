#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/device.h"
#include "core/hht.h"
#include "core/micro_hht.h"
#include "cpu/core.h"
#include "cpu/timing.h"
#include "kernels/kernels.h"
#include "mem/layout.h"
#include "mem/memory_system.h"
#include "mem/work_queue.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/bitvector.h"
#include "sparse/hier_bitmap.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/state_io.h"
#include "sparse/sparse_vector.h"

namespace hht::harness {

using sim::Addr;
using sim::Cycle;

/// Host scheduling strategy for the run loop (DESIGN.md §16). Both modes
/// produce bit-identical simulated results — they differ only in how much
/// host work each simulated cycle costs. Host-only tooling, excluded from
/// writeSystemConfig/readSystemConfig and the snapshot fingerprint.
enum class SchedMode : std::uint8_t {
  /// Tick every component every cycle. The reference schedule; forced
  /// whenever an observer or trace sink must see each executed cycle.
  Naive,
  /// The same lock-step loop plus a whole-machine jump (DESIGN.md §16):
  /// when no component has work before some later cycle, every component
  /// is credited for the idle stretch and the loop lands on that cycle.
  Event,
};

/// Full simulated-machine configuration (Table 1 defaults).
struct SystemConfig {
  cpu::TimingConfig timing;
  mem::MemorySystemConfig memory;
  core::HhtConfig hht;
  int vlmax = 8;  ///< Table 1: VL = 8 elements (Fig. 8 sweeps 1/4/8)
  /// Instantiate the §7 programmable HHT (core::MicroHht) instead of the
  /// ASIC engines. Single-tile only; firmware must then be installed via
  /// System::microHht().
  bool programmable_hht = false;
  cpu::TimingConfig micro_timing;  ///< the micro-core's own latencies
  /// Fault-injection knobs (disabled by default: zero cost, identical
  /// cycle-for-cycle behaviour to a build without the fault layer).
  sim::FaultConfig faults;
  /// Forward-progress watchdog period: a tile with this many consecutive
  /// cycles of no retired instruction, no SRAM grant and no FIFO pop is
  /// declared wedged (SimError(Watchdog) with a diagnostic dump). 0
  /// disables the watchdog; the max_cycles ceiling still applies.
  Cycle watchdog_cycles = 100'000;
  /// Host run-loop strategy. Host-only: two configs differing only here
  /// describe the same simulated machine, so it is excluded from
  /// writeSystemConfig/readSystemConfig and the snapshot fingerprint.
  /// Observers and trace sinks force SchedMode::Naive regardless; the
  /// benches' --no-fastforward selects Naive for A/B verification.
  SchedMode sched_mode = SchedMode::Event;
  /// Optional cycle-accurate trace sink (src/obs, DESIGN.md §12): the
  /// memory system's and work queue's sink, and tile 0's default core/HHT
  /// sink (MultiTileSystem::setTileTraceSink overrides it per tile).
  /// Host-only like sched_mode: a traced machine and an untraced machine
  /// are the same simulated machine. Attaching a sink forces per-cycle
  /// mode but never changes results, stats or snapshot bytes. The sink
  /// must outlive the machine.
  obs::TraceSink* trace_sink = nullptr;

  /// Reject broken configurations with SimError(Config); called by the
  /// machine constructor before any component is built.
  void validate() const {
    memory.validate();
    hht.validate();
    faults.validate();
    if (vlmax < 1) {
      throw sim::SimError(sim::ErrorKind::Config, "system",
                          "vlmax must be >= 1");
    }
    if (programmable_hht && memory.num_tiles != 1) {
      throw sim::SimError(sim::ErrorKind::Config, "system",
                          "programmable_hht is single-tile; memory.num_tiles=" +
                              std::to_string(memory.num_tiles) +
                              " requires the ASIC HHT");
    }
  }
};

/// Canonical binary serialization of a SystemConfig: the byte stream the
/// snapshot fingerprint hashes, and the representation replay bundles embed
/// so a failure reproduces under the exact machine configuration.
void writeSystemConfig(sim::StateWriter& w, const SystemConfig& cfg);
SystemConfig readSystemConfig(sim::StateReader& r);

/// Snapshot format version written after the "HHTS" magic (bytes 4..8).
/// v2: StatSet gained interval histograms. v3: multi-tile scale-out —
/// MemAccess records carry a tile byte, the arbiter serializes its
/// rotation pointers + CPU streak, writeSystemConfig covers
/// num_tiles/cpu_starvation_limit. v4: degraded-mode continuation state
/// and per-tile fault-injector sections. v5: data-integrity subsystem —
/// buffer/emission slots carry the poison bit and e2e check tag, the BE/FE
/// running stream CRCs, the SRAM's latent-flip registry, the patrol
/// scrubber's cursor and the injector's silent-flip ordinal. v6:
/// per-requester request-id streams. v7: writeSystemConfig appends
/// mem.work_queue_enabled and snapshots append the ChunkQueueDevice
/// section.
/// v8: one machine, one layout — the single-tile and multi-tile writers
/// merged: header (magic, version, fingerprint), tile count, each tile's
/// program identity, the resume cycle, the degraded-continuation state,
/// the memory system, the chunk queue (when enabled), then one
/// injector+HHT+core section per tile.
/// restore() fails with SimError(Checkpoint) on any other version — and
/// with a distinct "newer than this binary" error when the snapshot is
/// from the future (no best-effort field skipping).
inline constexpr std::uint32_t kSnapshotVersion = 8;

/// FNV-1a fingerprint of writeSystemConfig(cfg)'s bytes — the identity
/// restore() checks before touching any component state.
std::uint64_t configFingerprint(const SystemConfig& cfg);

/// FNV-1a hash of a program's name + encoded instructions (snapshots record
/// programs by identity, never by contents).
std::uint64_t programHash(const isa::Program& program);

/// Outcome of simulating one kernel to completion.
struct RunResult {
  std::uint64_t cycles = 0;           ///< CPU cycles to ECALL (slowest tile)
  std::uint64_t retired = 0;          ///< dynamic instruction count
  std::uint64_t cpu_wait_cycles = 0;  ///< CPU stalled on the HHT FE (Fig. 6/7)
  std::uint64_t hht_wait_cycles = 0;  ///< BE throttled on full buffers
  bool hht_residual_busy = false;     ///< HHT still busy after ECALL (kernel bug)
  /// The HHT faulted mid-run and the result was recomputed on the scalar
  /// software baseline: `y` is correct, the timing fields cover both runs.
  bool degraded = false;
  sim::FaultCause fault_cause = sim::FaultCause::None;  ///< when degraded
  std::string fault_detail;                             ///< when degraded
  sparse::DenseVector y;              ///< output vector read back from SRAM
  sim::StatSet stats;                 ///< merged cpu/mem/hht counters

  double cpuWaitFraction() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(cpu_wait_cycles) /
                             static_cast<double>(cycles);
  }
};

class MultiTileSystem;

/// Per-cycle observer of a running machine. The differential oracles use
/// it for their periodic FIFO-occupancy invariants; tests use it to
/// trigger mid-run checkpoints. Called after the component ticks and the
/// fault poll of each cycle, before halt detection — so the observer sees
/// every cycle the machine actually executed. Attaching one forces
/// SchedMode::Naive.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void onCycle(MultiTileSystem& sys, Cycle now) = 0;
};

/// The simulated machine: N tiles of {cpu::Core + core::HhtDevice} over one
/// shared MemorySystem (DESIGN.md §13), plus the optional shared
/// chunk-queue device. The tile count comes from config.memory.num_tiles;
/// the paper's machine is the N = 1 case (see System). Each tile's BE and
/// core tag their memory traffic with the tile id (arbiter ports tile*2
/// and tile*2+1) and the tile's HHT sits behind its own MMIO window at
/// mmioBaseOf(tile), so kernels for tile t must be built against that
/// base.
///
/// Per cycle, in fixed order: every tile's HHT ticks, then every tile's
/// core, then the shared memory system arbitrates the whole cycle's
/// requests. One lock-step loop implements that schedule; config.sched_mode
/// decides whether it may jump across cycles in which no component has
/// work. Both modes are bit-identical in results, stats and snapshot
/// bytes.
///
/// Fault injection (config.faults) is per tile: each tile draws from its
/// own seeded FaultInjector (tile 0 keeps config.faults.seed; other tiles
/// mix the tile index into the seed), so one tile's fault history never
/// perturbs another's. A detected HHT fault either degrades to a software
/// fallback (single-tile only, System::run's `fallback`) or surfaces as a
/// SimError(DeviceFault); each tile is also watched by its own
/// forward-progress watchdog. Errors are attributed to the faulting tile
/// when there is more than one.
class MultiTileSystem {
 public:
  explicit MultiTileSystem(const SystemConfig& config);

  std::uint32_t numTiles() const {
    return static_cast<std::uint32_t>(tiles_.size());
  }
  mem::MemorySystem& memory() { return *mem_; }
  mem::Arena& arena() { return arena_; }
  const SystemConfig& config() const { return config_; }
  cpu::Core& cpu(std::uint32_t tile) { return *tiles_.at(tile).cpu; }
  core::HhtDevice& hht(std::uint32_t tile) { return *tiles_.at(tile).hht; }
  /// The ASIC device of tile `tile` (the oracle's tap/invariant hooks live
  /// on the concrete core::Hht); null when configured with
  /// programmable_hht.
  core::Hht* asicHht(std::uint32_t tile) { return tiles_.at(tile).asic; }
  /// The programmable device; non-null only with programmable_hht.
  core::MicroHht* microHht(std::uint32_t tile) { return tiles_.at(tile).micro; }
  /// Tile `tile`'s fault injector; null unless config().faults.enabled.
  sim::FaultInjector* faultInjector(std::uint32_t tile) {
    return tiles_.at(tile).injector.get();
  }
  /// Tile t's MMIO window base — the mmio_base to build tile t's kernel
  /// against.
  Addr mmioBaseOf(std::uint32_t tile) const { return mem_->mmioBaseOf(tile); }

  /// Shared chunk-queue device (config.memory.work_queue_enabled), nullptr
  /// otherwise. The harness seeds chunks before run(); the per-row oracle
  /// mode drains its claim log.
  mem::ChunkQueueDevice* workQueue() { return wq_.get(); }
  const mem::ChunkQueueDevice* workQueue() const { return wq_.get(); }
  /// Base of the shared work-queue MMIO window (window index num_tiles);
  /// tile t's claim register is workQueueBase() + 4*t.
  Addr workQueueBase() const { return mem_->mmioBaseOf(numTiles()); }

  /// Attach a structured trace sink to tile `tile`'s core + HHT (host-only),
  /// replacing the default (config.trace_sink for tile 0, none for the
  /// others). One sink per tile keeps per-tile stall profiles separable:
  /// each tile's stream folds into an obs::ProfileReport whose buckets
  /// partition the SAME horizon, because every sink receives the run's
  /// kRunEnd. Any attached sink forces SchedMode::Naive.
  void setTileTraceSink(std::uint32_t tile, obs::TraceSink* sink);

  /// Run one program per tile (programs.size() == numTiles()) until every
  /// core has halted and the memory system has drained, then read back
  /// `y_len` floats at `y_addr`. RunResult::cycles is the wall-clock (max
  /// per-tile core cycles); per-tile counters land in RunResult::stats
  /// under the tile-0-unprefixed / "t<N>."-prefixed naming the memory
  /// system's stats already use. The programs must outlive the run.
  ///
  /// Failure handling: an HHT fault becomes SimError(DeviceFault) with a
  /// diagnostic dump (System::run can instead degrade to a fallback); no
  /// forward progress on a tile for config().watchdog_cycles, or
  /// `max_cycles` elapsed, is SimError(Watchdog) — a deadlocked kernel is
  /// always a bug, never a valid result.
  RunResult run(std::span<const isa::Program> programs, Addr y_addr,
                std::uint32_t y_len, Cycle max_cycles = 500'000'000,
                RunObserver* observer = nullptr);

  /// Continue a restore()d run from `start_cycle` (programs installed
  /// without reset; all state came from the snapshot).
  RunResult resume(std::span<const isa::Program> programs, Addr y_addr,
                   std::uint32_t y_len, Cycle start_cycle,
                   Cycle max_cycles = 500'000'000,
                   RunObserver* observer = nullptr);

  /// Serialize the complete simulator state (SRAM, caches, queues, every
  /// HHT pipeline and core, injector RNGs, the chunk queue) to a versioned
  /// snapshot (kSnapshotVersion). `next_cycle` is the cycle at which a
  /// resume() should continue — from a RunObserver at cycle `now`, pass
  /// `now + 1`. Programs are recorded by identity (name + code hash).
  std::vector<std::uint8_t> checkpoint(std::span<const isa::Program> programs,
                                       Cycle next_cycle) const;

  /// Restore a checkpoint() snapshot. Config fingerprint, tile count and
  /// every tile's program identity must match; any mismatch, version skew
  /// (including newer-than-supported) or corruption throws
  /// SimError(Checkpoint). Returns the cycle to pass to resume().
  Cycle restore(const std::vector<std::uint8_t>& snapshot,
                std::span<const isa::Program> programs);

  /// Multi-line per-tile snapshot of every component (watchdog / fault
  /// dumps).
  std::string dumpDiagnostics(Cycle now) const;

  /// True while the machine is executing (or restored into) the
  /// graceful-degradation fallback rerun. Observers use this to tell
  /// degraded-loop cycles (which restart at 0) from primary-run cycles.
  bool degradedActive() const { return degraded_active_; }

  /// Cycles the run loop jumped over during the most recent run() /
  /// resume() (host diagnostic, not a simulated statistic — it never
  /// appears in RunResult::stats).
  std::uint64_t hostSkippedCycles() const { return host_skipped_cycles_; }

  /// Persistent observer registry: observers registered here are invoked
  /// every executed cycle, after the per-run observer passed to run() /
  /// resume() (registration order). This is the single attach point that
  /// lets a differential-oracle tap and a trace sink ride the same run.
  /// Observers are borrowed; remove before destroying.
  void addObserver(RunObserver* observer) {
    if (observer == nullptr) return;
    for (RunObserver* o : observers_) {
      if (o == observer) return;
    }
    observers_.push_back(observer);
  }
  void removeObserver(RunObserver* observer) {
    std::erase(observers_, observer);
  }

 protected:
  /// The one run driver behind run()/resume() and System's overloads:
  /// `fresh` loads the programs with a reset (run) or installs them as
  /// restored (resume). `fallback` (single-tile only) enables graceful
  /// degradation on an HHT fault.
  RunResult execute(std::span<const isa::Program> programs, Addr y_addr,
                    std::uint32_t y_len, Cycle start_cycle, Cycle max_cycles,
                    const isa::Program* fallback, RunObserver* observer,
                    bool fresh);

 private:
  struct Tile {
    std::unique_ptr<sim::FaultInjector> injector;  ///< null when disabled
    std::unique_ptr<core::HhtDevice> hht;
    /// Typed aliases into `hht` (exactly one is set): both concrete device
    /// types are final, so ticking through them devirtualises the per-cycle
    /// dispatch.
    core::Hht* asic = nullptr;
    core::MicroHht* micro = nullptr;
    std::unique_ptr<cpu::Core> cpu;
    obs::TraceSink* sink = nullptr;  ///< core/HHT sink; may be null

    void tickDevice(Cycle now) {
      if (asic != nullptr) {
        asic->tick(now);
      } else {
        micro->tick(now);
      }
    }
    Cycle deviceNextEvent(Cycle now) const {
      return asic != nullptr ? asic->nextEventCycle(now)
                             : micro->nextEventCycle(now);
    }
  };
  /// Where a run loop stopped: every tile halted with memory drained, or
  /// an HHT fault (the lowest faulting tile) at cycle `now`; or, with
  /// fault_tile < 0 and `now` at the loop's end cycle, the end was reached.
  struct Stop {
    Cycle now = 0;
    int fault_tile = -1;
  };
  class Schedule;

  /// One pass over [start_cycle, max_cycles) in the configured schedule;
  /// observers and sinks turn the jump off. Every component has been
  /// ticked or credited for every executed cycle on return.
  Stop pass(Cycle start_cycle, Cycle max_cycles, RunObserver* observer);
  /// The run loop over [from, to): every component of every tile, every
  /// executed cycle; with `jump`, whole-machine idle stretches are
  /// credited in bulk and skipped.
  template <bool kOneTile>
  Stop loop(Schedule& s, Cycle from, Cycle to, RunObserver* observer,
            bool jump);
  /// Graceful degradation: quiesce the device and memory, then run
  /// `fallback` on tile 0 from cycle `start_cycle` with injection detached.
  void degrade(const isa::Program& fallback, Cycle start_cycle,
               Cycle max_cycles, RunObserver* observer);
  void checkProgramCount(std::span<const isa::Program> programs) const;
  /// Tile attribution for errors: the tile index, or kNoTile on a
  /// single-tile machine (where "tile 0" adds nothing).
  int tileTag(std::uint32_t tile) const;
  void attachInjectors(bool attach);
  /// Read back y + merge stats (the common run tail).
  void finishResult(RunResult& result, Addr y_addr, std::uint32_t y_len);

  SystemConfig config_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::vector<Tile> tiles_;
  /// Shared work-queue device behind MMIO window num_tiles (null unless
  /// config.memory.work_queue_enabled).
  std::unique_ptr<mem::ChunkQueueDevice> wq_;
  mem::Arena arena_;
  std::vector<RunObserver*> observers_;  ///< borrowed; see addObserver
  std::uint64_t host_skipped_cycles_ = 0;
  /// Degraded-mode continuation state (serialized): while true the machine
  /// is inside the fallback rerun — injection is detached and a resume()
  /// continues the degraded loop instead of the primary one.
  bool degraded_active_ = false;
  sim::FaultCause degraded_cause_ = sim::FaultCause::None;
  std::string degraded_detail_;
};

/// The paper's single-tile machine: a MultiTileSystem with exactly one
/// tile, plus the single-program run surface and tile-0 accessors. It adds
/// no state, loop or serializer of its own.
class System : public MultiTileSystem {
 public:
  /// Rejects config.memory.num_tiles != 1 with SimError(Config).
  explicit System(const SystemConfig& config);

  using MultiTileSystem::asicHht;
  using MultiTileSystem::checkpoint;
  using MultiTileSystem::cpu;
  using MultiTileSystem::faultInjector;
  using MultiTileSystem::hht;
  using MultiTileSystem::microHht;
  using MultiTileSystem::restore;
  using MultiTileSystem::resume;
  using MultiTileSystem::run;

  cpu::Core& cpu() { return cpu(0); }
  core::HhtDevice& hht() { return hht(0); }
  /// Non-null when configured with programmable_hht.
  core::MicroHht* microHht() { return microHht(0); }
  /// Non-null for the default (ASIC) device.
  core::Hht* asicHht() { return asicHht(0); }
  /// Non-null when config().faults.enabled.
  sim::FaultInjector* faultInjector() { return faultInjector(0); }

  /// Run `program` to ECALL (plus memory drain); read back `y_len` floats
  /// from `y_addr`. On an HHT fault with a non-null `fallback` the machine
  /// gracefully degrades — injection is disabled, the device and memory
  /// system are quiesced, and `fallback` (the scalar software baseline,
  /// which must fully overwrite y) re-runs to completion; the result has
  /// degraded=true with the fault recorded. Otherwise failures behave as
  /// in MultiTileSystem::run.
  RunResult run(const isa::Program& program, Addr y_addr, std::uint32_t y_len,
                Cycle max_cycles = 500'000'000,
                const isa::Program* fallback = nullptr,
                RunObserver* observer = nullptr) {
    return execute({&program, 1}, y_addr, y_len, 0, max_cycles, fallback,
                   observer, /*fresh=*/true);
  }

  /// Continue a run previously restore()d from a snapshot (a snapshot
  /// taken mid-degraded-fallback records, and resumes, the fallback).
  RunResult resume(const isa::Program& program, Addr y_addr,
                   std::uint32_t y_len, Cycle start_cycle,
                   Cycle max_cycles = 500'000'000,
                   const isa::Program* fallback = nullptr,
                   RunObserver* observer = nullptr) {
    return execute({&program, 1}, y_addr, y_len, start_cycle, max_cycles,
                   fallback, observer, /*fresh=*/false);
  }

  std::vector<std::uint8_t> checkpoint(const isa::Program& program,
                                       Cycle next_cycle) const {
    return checkpoint(std::span<const isa::Program>(&program, 1), next_cycle);
  }

  Cycle restore(const std::vector<std::uint8_t>& snapshot,
                const isa::Program& program) {
    return restore(snapshot, std::span<const isa::Program>(&program, 1));
  }
};

// --- workload loaders: place operands into simulated SRAM ---
//
// The Arena&/Sram& overloads are the primitive form (multi-tile drivers
// load shared operands once into the single memory system); the System&
// overloads delegate.

kernels::SpmvLayout loadSpmv(mem::Arena& arena, mem::Sram& sram,
                             const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v);
kernels::SpmvLayout loadSpmv(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v);

kernels::SpmspvLayout loadSpmspv(mem::Arena& arena, mem::Sram& sram,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v);
kernels::SpmspvLayout loadSpmspv(System& sys, const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v);

kernels::HierLayout loadHier(System& sys, const sparse::HierBitmapMatrix& m,
                             const sparse::DenseVector& v);

/// SpMM operands: B and Y stored column-major in simulated SRAM.
kernels::SpmmLayout loadSpmm(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseMatrix& b);

/// Flat bit-vector layout (Fig. 1): the occupancy bitmap goes where the
/// hier layout's leaves live; l1 is unused.
kernels::HierLayout loadFlatBitmap(System& sys, const sparse::BitVectorMatrix& m,
                                   const sparse::DenseVector& v);

}  // namespace hht::harness
