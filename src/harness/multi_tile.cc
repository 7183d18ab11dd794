// The simulated machine (MultiTileSystem): construction, the lock-step run
// loop and its whole-machine jump, the fault / degraded-fallback path,
// snapshots and diagnostics. System (system.h) is its 1-tile facade.
#include <algorithm>
#include <sstream>

#include "harness/system.h"
#include "sim/watchdog.h"

namespace hht::harness {

namespace {
constexpr Addr kArenaBase = 0x1000;  // keep address 0 unmapped-looking

/// Pre-construction validation hook: members are built from `config`, so
/// the checks must run before the initializer list touches it.
const SystemConfig& validated(const SystemConfig& config) {
  config.validate();
  return config;
}

/// Tile t's fault configuration: tile 0 keeps the base seed; other tiles
/// mix the tile index in with a golden-ratio stride so per-tile fault
/// streams are independent but reproducible.
sim::FaultConfig tileFaultConfig(const sim::FaultConfig& base,
                                 std::uint32_t tile) {
  sim::FaultConfig f = base;
  f.seed = base.seed + 0x9E3779B97F4A7C15ull * tile;
  return f;
}
}  // namespace

/// Per-pass loop state: one forward-progress watchdog per tile.
class MultiTileSystem::Schedule {
 public:
  /// `watch` = false disables the watchdogs: the degraded fallback rerun
  /// is bounded by max_cycles alone.
  Schedule(MultiTileSystem& sys, bool watch) : sys_(sys), tiles_(sys.tiles_) {
    // One watchdog per tile over that tile's own progress sum (its core's
    // retirement, its HHT's FIFO/BE activity, its two arbiter ports'
    // grants): a single wedged tile fires even while the others keep the
    // global sum moving.
    const auto n = static_cast<std::uint32_t>(tiles_.size());
    watchdogs_.reserve(n);
    for (std::uint32_t t = 0; t < n; ++t) {
      watchdogs_.emplace_back(watch ? sys.config_.watchdog_cycles : 0,
                              sys.tileTag(t));
      progress_.push_back(
          {&tiles_[t].cpu->stats().counter("cpu.retired"),
           &sys.mem_->stats().counter("mem." + mem::requesterLabel(2 * t) +
                                      ".grants"),
           &sys.mem_->stats().counter(
               "mem." + mem::requesterLabel(2 * t + 1) + ".grants")});
    }
  }

  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// A copy of tile 0's watchdog for its due() gate alone: every tile's
  /// watchdog samples on the same grid, and a local copy keeps the
  /// per-cycle test in registers.
  sim::Watchdog sampler() const { return watchdogs_[0]; }

  /// Watchdog sampling point (call when sampler().due(now)). Halted tiles
  /// are excluded — a tile that finished early makes no progress by design.
  void watch(Cycle now) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      if (tiles_[t].cpu->halted()) continue;
      watchdogs_[t].observe(now, progress(t),
                            [&] { return sys_.dumpDiagnostics(now); });
    }
  }

  /// Skip horizon: the earliest cycle at which some live tile's watchdog
  /// would fire, after performing the observation the naive loop would
  /// have made at the first sampling point after `now` (Watchdog::
  /// observeSkip). A jump never passes it, so a wedged run fires at the
  /// exact cycle, with the exact diagnostics, of the naive loop.
  Cycle watchdogHorizon(Cycle now) {
    Cycle horizon = sim::kNeverCycle;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      if (tiles_[t].cpu->halted()) continue;
      horizon = std::min(horizon, watchdogs_[t].observeSkip(now, progress(t)));
    }
    return horizon;
  }

 private:
  /// Counters behind one tile's watchdog progress sum.
  struct Progress {
    const std::uint64_t* retired;
    const std::uint64_t* cpu_grants;
    const std::uint64_t* hht_grants;
  };

  std::uint64_t progress(std::size_t t) const {
    const Progress& p = progress_[t];
    return *p.retired + tiles_[t].hht->progressSignal() + *p.cpu_grants +
           *p.hht_grants;
  }

  MultiTileSystem& sys_;
  std::span<Tile> tiles_;  ///< the tile vector never resizes
  std::vector<sim::Watchdog> watchdogs_;
  std::vector<Progress> progress_;
};

MultiTileSystem::MultiTileSystem(const SystemConfig& config)
    : config_(validated(config)),
      mem_(std::make_unique<mem::MemorySystem>(config.memory)),
      tiles_(config.memory.num_tiles),
      arena_(kArenaBase, config.memory.sram_bytes - kArenaBase) {
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    Tile& tile = tiles_[t];
    if (config.programmable_hht) {
      auto micro = std::make_unique<core::MicroHht>(config.hht, *mem_,
                                                    config.micro_timing);
      tile.micro = micro.get();
      tile.hht = std::move(micro);
    } else {
      auto asic = std::make_unique<core::Hht>(config.hht, *mem_, t);
      tile.asic = asic.get();
      tile.hht = std::move(asic);
    }
    mem_->attachMmioDevice(tile.hht.get(), t);
    tile.cpu = std::make_unique<cpu::Core>(config.timing, *mem_, config.vlmax,
                                           mem::Requester::Cpu, t);
    if (config.faults.enabled) {
      tile.injector = std::make_unique<sim::FaultInjector>(
          tileFaultConfig(config.faults, t));
    }
  }
  attachInjectors(true);
  if (config.memory.work_queue_enabled) {
    wq_ = std::make_unique<mem::ChunkQueueDevice>(numTiles());
    mem_->attachMmioDevice(wq_.get(), numTiles());
  }
  if (config.trace_sink != nullptr) {
    mem_->setTraceSink(config.trace_sink);
    if (wq_) wq_->setTraceSink(config.trace_sink);
    setTileTraceSink(0, config.trace_sink);
  }
}

void MultiTileSystem::setTileTraceSink(std::uint32_t tile,
                                       obs::TraceSink* sink) {
  Tile& t = tiles_.at(tile);
  t.sink = sink;
  t.cpu->setTraceSink(sink, obs::Component::kCpu);
  t.hht->setTraceSink(sink);
}

void MultiTileSystem::attachInjectors(bool attach) {
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    sim::FaultInjector* injector =
        attach ? tiles_[t].injector.get() : nullptr;
    mem_->setTileFaultInjector(t, injector);
    tiles_[t].hht->setFaultInjector(injector);
  }
}

int MultiTileSystem::tileTag(std::uint32_t tile) const {
  return numTiles() > 1 ? static_cast<int>(tile) : sim::SimError::kNoTile;
}

void MultiTileSystem::checkProgramCount(
    std::span<const isa::Program> programs) const {
  if (programs.size() != numTiles()) {
    throw sim::SimError(sim::ErrorKind::Config, "system",
                        "expected " + std::to_string(numTiles()) +
                            " programs (one per tile), got " +
                            std::to_string(programs.size()));
  }
}

RunResult MultiTileSystem::run(std::span<const isa::Program> programs,
                               Addr y_addr, std::uint32_t y_len,
                               Cycle max_cycles, RunObserver* observer) {
  return execute(programs, y_addr, y_len, 0, max_cycles, nullptr, observer,
                 /*fresh=*/true);
}

RunResult MultiTileSystem::resume(std::span<const isa::Program> programs,
                                  Addr y_addr, std::uint32_t y_len,
                                  Cycle start_cycle, Cycle max_cycles,
                                  RunObserver* observer) {
  return execute(programs, y_addr, y_len, start_cycle, max_cycles, nullptr,
                 observer, /*fresh=*/false);
}

RunResult MultiTileSystem::execute(std::span<const isa::Program> programs,
                                   Addr y_addr, std::uint32_t y_len,
                                   Cycle start_cycle, Cycle max_cycles,
                                   const isa::Program* fallback,
                                   RunObserver* observer, bool fresh) {
  checkProgramCount(programs);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    if (fresh) {
      tiles_[t].cpu->loadProgram(programs[t]);
    } else {
      tiles_[t].cpu->installProgram(programs[t]);
    }
  }
  host_skipped_cycles_ = 0;
  RunResult result;
  if (degraded_active_) {
    // Restored from a snapshot taken mid-degraded-fallback: the program is
    // the fallback the machine was re-running. Finish that loop, exactly
    // as the uninterrupted degraded rerun would have.
    degrade(programs[0], start_cycle, max_cycles, observer);
    result.degraded = true;
    result.fault_cause = degraded_cause_;
    result.fault_detail = degraded_detail_;
    finishResult(result, y_addr, y_len);
    return result;
  }

  const Stop stop = pass(start_cycle, max_cycles, observer);
  if (stop.fault_tile >= 0) {
    // Host-side poll of the FAULT MMR (zero simulated cost): the run can
    // never complete with silently wrong data past this point.
    const core::HhtDevice& dev = *tiles_[stop.fault_tile].hht;
    result.fault_cause = dev.faultCause();
    result.fault_detail = dev.faultDetail();
    if (fallback == nullptr) {
      throw sim::SimError(
          sim::ErrorKind::DeviceFault, "hht",
          std::string("HHT raised fault [") +
              sim::faultCauseName(result.fault_cause) +
              "] with no degradation fallback installed: " +
              result.fault_detail,
          dumpDiagnostics(stop.now),
          tileTag(static_cast<std::uint32_t>(stop.fault_tile)));
    }
    degraded_cause_ = result.fault_cause;
    degraded_detail_ = result.fault_detail;
    // Quiesce: stop injecting (the recovery run must succeed), drop every
    // in-flight access (stale responses must not leak into the rerun) and
    // return the device to its reset state.
    attachInjectors(false);
    mem_->cancelAll();
    tiles_[0].hht->reset();
    tiles_[0].cpu->loadProgram(*fallback);
    degrade(*fallback, 0, max_cycles, observer);
    result.degraded = true;
  } else if (stop.now >= max_cycles) {
    std::string names;
    for (const isa::Program& p : programs) {
      names += (names.empty() ? "" : ", ") + p.name();
    }
    throw sim::SimError(sim::ErrorKind::Watchdog, "system",
                        "simulation exceeded max_cycles running " + names,
                        dumpDiagnostics(stop.now));
  }

  // Horizon marker to every attached sink: the run executed cycles
  // [start_cycle, stop.now], so the profiler's total-cycle denominator is
  // stop.now + 1, shared by every tile's profile.
  std::vector<obs::TraceSink*> sinks{config_.trace_sink};
  for (const Tile& tile : tiles_) sinks.push_back(tile.sink);
  std::sort(sinks.begin(), sinks.end());
  sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
  for (obs::TraceSink* sink : sinks) {
    if (sink != nullptr && sink->enabled(obs::Category::kSystem)) {
      sink->emit(stop.now, obs::Category::kSystem, obs::Component::kSystem,
                 obs::EventKind::kRunEnd, stop.now + 1);
    }
  }
  finishResult(result, y_addr, y_len);
  return result;
}

void MultiTileSystem::degrade(const isa::Program& fallback, Cycle start_cycle,
                              Cycle max_cycles, RunObserver* observer) {
  // The fallback loop restarts its cycle numbering at 0 and runs with
  // injection detached and no watchdog (the fallback is CPU-only).
  // Observers still see every executed cycle — that is what lets a
  // mid-degraded checkpoint fire at an exact degraded cycle — with
  // degradedActive() distinguishing these cycles from primary ones.
  degraded_active_ = true;
  attachInjectors(false);
  const Stop stop = pass(start_cycle, max_cycles, observer);
  if (stop.fault_tile >= 0 || stop.now >= max_cycles) {
    throw sim::SimError(sim::ErrorKind::Watchdog, "system",
                        "degraded fallback run " +
                            std::string(stop.fault_tile >= 0
                                            ? "raised an HHT fault"
                                            : "exceeded max_cycles") +
                            " running " + fallback.name(),
                        dumpDiagnostics(stop.now));
  }
  // Re-arm injection for any subsequent run on this machine.
  attachInjectors(true);
  degraded_active_ = false;
}

MultiTileSystem::Stop MultiTileSystem::pass(Cycle start_cycle,
                                            Cycle max_cycles,
                                            RunObserver* observer) {
  Schedule s(*this, /*watch=*/!degraded_active_);
  // An observer is entitled to see every executed cycle (the differential
  // oracle samples FIFO occupancy; checkpoint triggers fire at exact
  // cycles) and a trace must record every executed cycle's phase, so
  // either turns the jump off. The fault injector needs no hook: faults
  // only arise from component activity, and skipped cycles have none.
  bool jump = config_.sched_mode == SchedMode::Event && observer == nullptr &&
              observers_.empty() && config_.trace_sink == nullptr;
  for (const Tile& tile : tiles_) jump = jump && tile.sink == nullptr;
  if (numTiles() == 1) {
    return loop<true>(s, start_cycle, max_cycles, observer, jump);
  }
  return loop<false>(s, start_cycle, max_cycles, observer, jump);
}

template <bool kOneTile>
MultiTileSystem::Stop MultiTileSystem::loop(Schedule& s, Cycle from, Cycle to,
                                            RunObserver* observer, bool jump) {
  // Hoisted into locals: the component ticks are opaque calls, so member
  // loads would otherwise repeat every cycle of the hottest loop. The
  // kOneTile instantiation makes the tile loops straight-line code, which
  // keeps the single-tile busy loop at the cost of the pre-merge one.
  const std::span<Tile> tiles(tiles_);
  const std::size_t n = kOneTile ? 1 : tiles.size();
  mem::MemorySystem& mem = *mem_;
  mem::ChunkQueueDevice* const wq = wq_.get();
  const bool observed = observer != nullptr || !observers_.empty();
  const sim::Watchdog sampler = s.sampler();
  for (Cycle now = from; now < to; ++now) {
    // Fixed order keeps arbitration deterministic: all HHTs publish, then
    // all cores, then the shared memory system arbitrates the whole
    // cycle's requests. The chunk queue's per-cycle claim budget resets
    // just before the memory tick processes this cycle's MMIO.
    for (std::size_t t = 0; t < n; ++t) tiles[t].tickDevice(now);
    for (std::size_t t = 0; t < n; ++t) tiles[t].cpu->tick(now);
    if (wq != nullptr) wq->beginCycle(now);
    mem.tick(now);
    bool halted = true;
    for (std::size_t t = 0; t < n; ++t) {
      if (tiles[t].hht->faultRaised()) return {now, static_cast<int>(t)};
      halted = halted && tiles[t].cpu->halted();
    }
    if (observed) {
      // Observers read the machine; they never tick it, so `halted` holds.
      if (observer != nullptr) observer->onCycle(*this, now);
      for (RunObserver* o : observers_) o->onCycle(*this, now);
    }
    if (halted && mem.idle()) return {now, -1};
    if (sampler.due(now)) s.watch(now);
    if (!jump) continue;

    // Whole-machine jump (DESIGN.md §16). Every component has just ticked
    // at `now`, so each next-event hook is exact; the scan for the
    // earliest stops at the first `now + 1`. When the earliest lies later,
    // the cycles before it are pure stalls for every component: each is
    // credited for them in bulk, and the loop lands on that cycle, capped
    // at the run's end and at the watchdogs' next state-changing sample.
    // Each tile's device is asked before its core: a working HHT answers
    // `now + 1` at once, while a core waiting on a load scans every
    // in-flight access for its answer.
    const Cycle soon = now + 1;
    Cycle next = sim::kNeverCycle;
    for (std::size_t t = 0; t < n && next > soon; ++t) {
      next = std::min(next, tiles[t].deviceNextEvent(now));
      if (next > soon) next = std::min(next, tiles[t].cpu->nextEventCycle(now));
    }
    if (next > soon) next = std::min(next, mem.nextEventCycle(now));
    if (next <= soon) continue;
    const Cycle target = std::min({next, to, s.watchdogHorizon(now)});
    if (target <= soon) continue;
    const Cycle skipped = target - soon;
    for (std::size_t t = 0; t < n; ++t) {
      tiles[t].hht->skipCycles(skipped);
      tiles[t].cpu->skipCycles(skipped);
    }
    host_skipped_cycles_ += skipped;
    now = target - 1;
  }
  return {to, -1};
}

void MultiTileSystem::finishResult(RunResult& result, Addr y_addr,
                                   std::uint32_t y_len) {
  // Wall-clock = slowest tile; wait counters sum across tiles (total CPU
  // cycles burnt stalling on FIFOs, the Fig. 6/7 quantity).
  for (const Tile& tile : tiles_) {
    result.cycles =
        std::max(result.cycles, tile.cpu->stats().value("cpu.cycles"));
    result.retired += tile.cpu->stats().value("cpu.retired");
    result.cpu_wait_cycles += tile.hht->cpuWaitCycles();
    result.hht_wait_cycles += tile.hht->hhtWaitCycles();
    result.hht_residual_busy = result.hht_residual_busy || tile.hht->busy();
  }
  result.y = sparse::DenseVector(mem_->sram().peekArray<float>(y_addr, y_len));

  mem_->finalizeStats();
  result.stats.absorb(mem_->stats(), "");
  if (wq_) result.stats.absorb(wq_->stats(), "");
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    // Tile 0 keeps the historic unprefixed names; tiles 1.. get the same
    // "t<N>." prefix the memory system already uses for its per-requester
    // counters.
    const std::string prefix = t == 0 ? "" : "t" + std::to_string(t) + ".";
    result.stats.absorb(tiles_[t].cpu->stats(), prefix);
    result.stats.absorb(tiles_[t].hht->stats(), prefix);
    if (tiles_[t].injector) {
      result.stats.absorb(tiles_[t].injector->stats(), prefix);
    }
  }
}

std::vector<std::uint8_t> MultiTileSystem::checkpoint(
    std::span<const isa::Program> programs, Cycle next_cycle) const {
  checkProgramCount(programs);
  sim::StateWriter w;
  w.tag("HHTS");
  w.u32(kSnapshotVersion);
  w.u64(configFingerprint(config_));
  w.u32(numTiles());
  for (const isa::Program& p : programs) {
    w.str(p.name());
    w.u64(programHash(p));
  }
  w.u64(next_cycle);
  // Degraded-mode continuation: when taken mid-fallback-rerun the recorded
  // program IS the fallback, and restore()+resume() must land in the
  // degraded loop (injection detached) rather than the primary one.
  w.b(degraded_active_);
  if (degraded_active_) {
    w.u8(static_cast<std::uint8_t>(degraded_cause_));
    w.str(degraded_detail_);
  }
  mem_->serialize(w);
  // The chunk-queue section is config-implied (the fingerprint pins
  // work_queue_enabled), like the memory system's topology sections.
  if (wq_) wq_->serialize(w);
  for (const Tile& tile : tiles_) {
    // Each tile's fault-injector (RNG + stats) precedes its HHT/core
    // sections, so a restored campaign replays the same per-tile fault
    // stream it would have seen uninterrupted.
    w.b(tile.injector != nullptr);
    if (tile.injector) tile.injector->serialize(w);
    tile.hht->serialize(w);
    tile.cpu->serialize(w);
  }
  return w.data();
}

Cycle MultiTileSystem::restore(const std::vector<std::uint8_t>& snapshot,
                               std::span<const isa::Program> programs) {
  checkProgramCount(programs);
  const auto fail = [](const std::string& message,
                       int tile = sim::SimError::kNoTile) {
    return sim::SimError(sim::ErrorKind::Checkpoint, "system", message, {},
                         tile);
  };
  sim::StateReader r(snapshot);
  r.expectTag("HHTS");
  const std::uint32_t version = r.u32();
  if (version > kSnapshotVersion) {
    // Forward compatibility is explicitly NOT attempted: a newer writer may
    // have added fields this binary cannot even skip safely (sections are
    // length-free), so best-effort reading would deserialize garbage into
    // live component state. Fail structurally instead.
    throw fail("snapshot version " + std::to_string(version) +
               " is newer than this binary's supported version " +
               std::to_string(kSnapshotVersion) +
               "; refusing best-effort restore (upgrade the binary that "
               "restores, not the snapshot)");
  }
  if (version != kSnapshotVersion) {
    throw fail("snapshot version " + std::to_string(version) +
               " != supported version " + std::to_string(kSnapshotVersion));
  }
  if (r.u64() != configFingerprint(config_)) {
    throw fail("snapshot was taken under a different SystemConfig "
               "(fingerprint mismatch)");
  }
  const std::uint32_t tiles = r.u32();
  if (tiles != numTiles()) {
    throw fail("snapshot records " + std::to_string(tiles) +
               " tiles, this system has " + std::to_string(numTiles()));
  }
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    const std::string prog_name = r.str();
    const std::uint64_t prog_hash = r.u64();
    if (prog_name != programs[t].name() ||
        prog_hash != programHash(programs[t])) {
      throw fail("snapshot records program '" + prog_name + "', got '" +
                     programs[t].name() + "' (or the code differs)",
                 tileTag(t));
    }
  }
  const Cycle next_cycle = r.u64();
  degraded_active_ = r.b();
  degraded_cause_ = sim::FaultCause::None;
  degraded_detail_.clear();
  if (degraded_active_) {
    degraded_cause_ = static_cast<sim::FaultCause>(r.u8());
    degraded_detail_ = r.str();
  }
  mem_->deserialize(r);
  if (wq_) wq_->deserialize(r);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    // Attribute section-level corruption to the tile whose section was
    // being decoded — serving logs need to name the tile, and the reader's
    // own errors only know the byte offset.
    Tile& tile = tiles_[t];
    try {
      if (r.b() != (tile.injector != nullptr)) {
        throw fail("snapshot fault-injector presence does not match this "
                   "machine");
      }
      if (tile.injector) tile.injector->deserialize(r);
      tile.hht->deserialize(r);
      tile.cpu->deserialize(r);
    } catch (const sim::SimError& e) {
      throw e.tile() == sim::SimError::kNoTile ? e.withTile(tileTag(t)) : e;
    }
  }
  if (!r.atEnd()) {
    throw fail(std::to_string(r.remaining()) +
               " trailing bytes after snapshot payload");
  }
  // Mid-fallback snapshot: the rerun executes with injection detached;
  // resume() re-arms it once the degraded loop completes.
  attachInjectors(!degraded_active_);
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    tiles_[t].cpu->installProgram(programs[t]);
  }
  return next_cycle;
}

std::string MultiTileSystem::dumpDiagnostics(Cycle now) const {
  std::ostringstream os;
  os << "diagnostic dump at cycle " << now << " (" << numTiles()
     << (numTiles() == 1 ? " tile" : " tiles") << ")\n";
  for (std::uint32_t t = 0; t < numTiles(); ++t) {
    const cpu::Core& core = *tiles_[t].cpu;
    os << "tile " << t << " cpu: halted=" << core.halted()
       << " pc=" << core.pc()
       << " retired=" << core.stats().value("cpu.retired")
       << " load_stalls=" << core.stats().value("cpu.load_stall_cycles")
       << "\n";
    os << "tile " << t << " " << tiles_[t].hht->describeState() << "\n";
  }
  os << mem_->describeState();
  return os.str();
}

}  // namespace hht::harness
