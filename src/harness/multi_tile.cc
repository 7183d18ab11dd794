// The simulated machine (MultiTileSystem): construction, the two run loops
// (naive reference and event calendar), the fault / degraded-fallback
// path, snapshots and diagnostics. System (system.h) is its 1-tile facade.
#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>

#include "harness/system.h"
#include "sim/calendar.h"
#include "sim/watchdog.h"

namespace hht::harness {

namespace {
constexpr Addr kArenaBase = 0x1000;  // keep address 0 unmapped-looking

/// Persistent worker pool for the threaded tile phase (DESIGN.md §16).
///
/// Epoch protocol: the main thread publishes a cycle number; every worker
/// ticks its statically-assigned tiles (all devices first, then all cores,
/// in increasing tile order — the same phase order as the serial loop) with
/// memory submissions parked in per-requester staging lanes; the main
/// thread waits for all workers, drains the staged submissions in the
/// canonical serial arrival order and runs the serial phase (shared memory
/// tick, fault polls, halt detection, watchdog, calendar). Tiles never
/// share mutable state during the parallel phase — every cross-tile
/// interaction flows through the staged memory system — so the schedule is
/// bit-identical to serial by construction (proven in tests/test_multi_tile
/// and race-checked under the tsan preset).
class TilePool {
 public:
  TilePool(std::uint32_t workers,
           std::function<void(std::uint32_t, Cycle)> work)
      : work_(std::move(work)), errors_(workers) {
    threads_.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { runWorker(w); });
    }
  }

  TilePool(const TilePool&) = delete;
  TilePool& operator=(const TilePool&) = delete;

  ~TilePool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Run one parallel phase at cycle `now`; blocks until every worker is
  /// done. A worker exception aborts the run: rethrown here, lowest worker
  /// index first (workers own contiguous tile ranges, so this is the
  /// lowest faulting tile — matching the serial loop's throw order).
  void runEpoch(Cycle now) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      now_ = now;
      pending_ = static_cast<std::uint32_t>(threads_.size());
      ++epoch_;
    }
    start_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
    }
    for (std::exception_ptr& e : errors_) {
      if (e != nullptr) {
        std::exception_ptr thrown = e;
        e = nullptr;
        std::rethrow_exception(thrown);
      }
    }
  }

 private:
  void runWorker(std::uint32_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      Cycle now;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        now = now_;
      }
      try {
        work_(w, now);
      } catch (...) {
        errors_[w] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::function<void(std::uint32_t, Cycle)> work_;
  std::vector<std::exception_ptr> errors_;  ///< one slot per worker
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  Cycle now_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint32_t pending_ = 0;
  bool stop_ = false;
};

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

// Due bits of one tile in a tick phase.
constexpr std::uint8_t kDeviceDue = 1;
constexpr std::uint8_t kCoreDue = 2;
constexpr std::uint8_t kBothDue = kDeviceDue | kCoreDue;

/// Run-loop state of one tile.
struct Lane {
  /// Lazy-credit cursors: the first cycle the device / core has NOT yet
  /// been ticked or credited for.
  Cycle dev_from = 0;
  Cycle cpu_from = 0;
  /// Event loop: the device's hook is consulted again from this cycle on.
  Cycle dev_hook_due = 0;
  std::uint8_t due = kBothDue;  ///< components to tick this phase
};
}  // namespace

/// Per-pass loop state shared by both run loops: the per-tile lanes and
/// watchdogs, the tick phase — serial, or on a worker pool with staged
/// memory submissions — and the crediting of lazily-skipped cycles.
class MultiTileSystem::Schedule {
 public:
  /// `watch` = false disables the watchdogs: the degraded fallback rerun
  /// is bounded by max_cycles alone.
  Schedule(MultiTileSystem& sys, Cycle start_cycle, bool watch)
      : sys_(sys),
        tiles_(sys.tiles_),
        lanes_(tiles_.size(), Lane{start_cycle, start_cycle, start_cycle}) {
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
    // Threaded tile phase: with tile_workers > 1 the per-tile components
    // tick on a persistent worker pool while every memory submission parks
    // in its requester's staging lane; the serial phase drains the lanes
    // in canonical order, so results are bit-identical to the serial loop.
    const std::uint32_t workers =
        std::min(std::max(sys.config_.tile_workers, 1u), n);
    if (workers > 1) {
      sys.mem_->beginStagedSubmission();
      pool_ = std::make_unique<TilePool>(
          workers, [this, n, workers](std::uint32_t w, Cycle now) {
            const std::uint32_t per = n / workers;
            const std::uint32_t rem = n % workers;
            const std::uint32_t begin = w * per + std::min(w, rem);
            tickDue(tiles_.data(), lanes_.data(), begin,
                    begin + per + (w < rem ? 1 : 0), now);
          });
    }
  }

  ~Schedule() {
    // Restore immediate-submission mode on every exit path, including
    // thrown faults.
    if (pool_) {
      pool_.reset();
      sys_.mem_->endStagedSubmission();
    }
  }

  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  Lane* lanes() { return lanes_.data(); }
  bool threaded() const { return pool_ != nullptr; }

  /// Tick the due components of tiles [begin, end), each credited first
  /// for the cycles it skipped: all devices in tile order, then all cores —
  /// the naive phase order restricted to the due set.
  static void tickDue(Tile* tiles, Lane* lanes, std::uint32_t begin,
                      std::uint32_t end, Cycle now) {
    for (std::uint32_t t = begin; t < end; ++t) {
      Lane& lane = lanes[t];
      if (!(lane.due & kDeviceDue)) continue;
      if (now > lane.dev_from) tiles[t].hht->skipCycles(now - lane.dev_from);
      tiles[t].tickDevice(now);
      lane.dev_from = now + 1;
    }
    for (std::uint32_t t = begin; t < end; ++t) {
      Lane& lane = lanes[t];
      if (!(lane.due & kCoreDue)) continue;
      cpu::Core& core = *tiles[t].cpu;
      if (now > lane.cpu_from) core.skipCycles(now - lane.cpu_from);
      core.tick(now);
      lane.cpu_from = now + 1;
    }
  }

  /// Threaded tick phase: every worker runs tickDue over its tile range,
  /// then the staged submissions drain in canonical order.
  void tickOnPool(Cycle now) {
    pool_->runEpoch(now);
    sys_.mem_->drainStagedSubmissions();
  }

  /// Make every component due (the naive tick set).
  void allDue() {
    for (Lane& lane : lanes_) lane.due = kBothDue;
  }

  /// Mark every component ticked through cycle `upto - 1`.
  void syncTo(Cycle upto) {
    for (Lane& lane : lanes_) lane.dev_from = lane.cpu_from = upto;
  }

  /// Credit every device through cycle `upto - 1` (MMIO settle).
  void creditDevices(Cycle upto) {
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      Lane& lane = lanes_[t];
      if (upto > lane.dev_from) {
        tiles_[t].hht->skipCycles(upto - lane.dev_from);
        lane.dev_from = upto;
      }
    }
  }

  /// Credit every lazily-skipped component through cycle `upto - 1`: the
  /// synchronization point before anything reads whole-machine state.
  void creditTo(Cycle upto) {
    creditDevices(upto);
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      Lane& lane = lanes_[t];
      if (upto > lane.cpu_from) {
        tiles_[t].cpu->skipCycles(upto - lane.cpu_from);
        lane.cpu_from = upto;
      }
    }
  }

  /// A copy of tile 0's watchdog for its due() gate alone: every tile's
  /// watchdog samples on the same grid, and a local copy keeps the
  /// per-cycle test in registers.
  sim::Watchdog sampler() const { return watchdogs_[0]; }

  /// Watchdog sampling point (call when sampler().due(now)). Halted tiles
  /// are excluded — a tile that finished early makes no progress by design.
  /// `settle` runs before the dump is built.
  template <typename Settle>
  void watch(Cycle now, Settle&& settle) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      if (tiles_[t].cpu->halted()) continue;
      watchdogs_[t].observe(now, progress(t), [&] {
        settle();
        return sys_.dumpDiagnostics(now);
      });
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
  std::vector<Lane> lanes_;
  std::vector<sim::Watchdog> watchdogs_;
  std::vector<Progress> progress_;
  std::unique_ptr<TilePool> pool_;
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
  Schedule s(*this, start_cycle, /*watch=*/!degraded_active_);
  // An observer is entitled to see every executed cycle (the differential
  // oracle samples FIFO occupancy; checkpoint triggers fire at exact
  // cycles) and a trace must record every executed cycle's phase, so
  // either forces the naive loop. The fault injector needs no hook: faults
  // only arise from component activity, and skipped cycles have none.
  bool naive = config_.sched_mode == SchedMode::Naive || observer != nullptr ||
               !observers_.empty() || config_.trace_sink != nullptr;
  for (const Tile& tile : tiles_) naive = naive || tile.sink != nullptr;
  if (numTiles() == 1) {
    return naive ? naiveLoop<true>(s, start_cycle, max_cycles, observer)
                 : eventLoop<true>(s, start_cycle, max_cycles);
  }
  return naive ? naiveLoop<false>(s, start_cycle, max_cycles, observer)
               : eventLoop<false>(s, start_cycle, max_cycles);
}

template <bool kOneTile>
MultiTileSystem::Stop MultiTileSystem::naiveLoop(Schedule& s, Cycle from,
                                                 Cycle to,
                                                 RunObserver* observer) {
  // Hoisted into locals: the component ticks are opaque calls, so member
  // loads would otherwise repeat every cycle of the hottest loop. The
  // kOneTile instantiation makes the tile loops straight-line code, which
  // keeps the single-tile busy loop at the cost of the pre-merge one.
  const std::span<Tile> tiles(tiles_);
  const std::size_t n = kOneTile ? 1 : tiles.size();
  const bool threaded = s.threaded();
  mem::MemorySystem& mem = *mem_;
  mem::ChunkQueueDevice* const wq = wq_.get();
  const bool observed = observer != nullptr || !observers_.empty();
  const sim::Watchdog sampler = s.sampler();
  // The naive loop keeps nothing skipped, so it leaves the lazy-credit
  // cursors alone (the event loop re-syncs them after a burst).
  if (threaded) s.allDue();
  for (Cycle now = from; now < to; ++now) {
    // Fixed order keeps arbitration deterministic: all HHTs publish, then
    // all cores, then the shared memory system arbitrates the whole
    // cycle's requests. The chunk queue's per-cycle claim budget resets
    // just before the memory tick processes this cycle's MMIO.
    if (threaded) {
      s.tickOnPool(now);
    } else {
      for (std::size_t t = 0; t < n; ++t) tiles[t].tickDevice(now);
      for (std::size_t t = 0; t < n; ++t) tiles[t].cpu->tick(now);
    }
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
    if (sampler.due(now)) s.watch(now, [] {});
  }
  return {to, -1};
}

template <bool kOneTile>
MultiTileSystem::Stop MultiTileSystem::eventLoop(Schedule& s,
                                                 Cycle start_cycle,
                                                 Cycle max_cycles) {
  // Event-scheduled loop (DESIGN.md §16). Each component is ticked only on
  // cycles it declared work for; the cycles in between — where its
  // nextEventCycle() contract guarantees a tick would have been a pure
  // no-op plus bookkeeping — are bulk-credited via skipCycles() just
  // before its next real tick (or at a synchronization point: watchdog
  // dump, fault, loop exit). The loop itself jumps straight to the
  // earliest posted event. Results, stats and snapshot bytes are
  // bit-identical to the naive loop; the A/B proof lives in
  // tests/test_fastforward.cc and tests/test_multi_tile.cc.
  //
  // Calendar slots: tile t's device is 2t, its core 2t+1, memory 2N.
  // Per-tile state is hoisted into locals: the component ticks are opaque
  // calls, so member loads would otherwise repeat every iteration. The
  // kOneTile instantiation fixes N = 1 at compile time (straight-line tile
  // loops, a 3-slot calendar whose min-rescan unrolls): on the short-stall
  // regime, where nearly every iteration is a calendar iteration, that is
  // worth ~15% host time.
  const std::span<Tile> tiles(tiles_);
  Lane* const lanes = s.lanes();
  const std::uint32_t n =
      kOneTile ? 1 : static_cast<std::uint32_t>(tiles.size());
  const bool threaded = s.threaded();
  mem::MemorySystem& mem = *mem_;
  mem::ChunkQueueDevice* const wq = wq_.get();
  const sim::Watchdog sampler = s.sampler();
  const std::size_t mem_slot = 2 * n;
  // Slots past 2N+1 are never posted, so they stay idle (kNeverCycle).
  constexpr std::size_t kSlots =
      kOneTile ? 3 : 2 * mem::MemorySystemConfig::kMaxTiles + 1;
  sim::EventCalendar<kSlots> cal;
  for (std::size_t slot = 0; slot <= mem_slot; ++slot) {
    cal.post(slot, start_cycle);
  }
  // Hook thinning: while a component keeps answering "tick me next cycle",
  // consulting its nextEventCycle() hook every tick buys nothing — post
  // now+1 blindly for a stride of ticks before asking again. Extra ticks
  // are exactly the naive schedule, so this is always safe, and any hook
  // answer greater than now+1 ends the blind window at once, so multi-cycle
  // skips (load stalls, drained devices) are preserved. Only the device and
  // memory hooks are thinned: both answer now+1 for as long as any memory
  // traffic exists, so their blind windows cost nothing. The core hook is
  // consulted every tick — its answer encodes per-stall skips (LoadWait,
  // vector-gather startup) that fire even while memory is busy.
  constexpr Cycle kHookThinStride = 16;
  Cycle mem_hook_due = start_cycle;
  // Busy-streak burst: when some component keeps answering now+1, the
  // calendar machinery (due checks, hooks, posts, min-scan) is pure
  // overhead over the naive loop. After kBurstStreak consecutive
  // iterations with no jump, fall back to naive ticking for a burst that
  // doubles up to kBurstCap, re-consulting the calendar between bursts. A
  // burst ticks every component every cycle — exactly the naive schedule —
  // so it can never change results; the cost is a bounded delay (one
  // burst) before a newly-skippable stretch is noticed.
  constexpr Cycle kBurstStreak = 8;
  constexpr Cycle kMinBurst = 16;
  constexpr Cycle kBurstCap = 256;
  Cycle burst_until = start_cycle;  // exclusive end of the current burst
  Cycle burst_len = kMinBurst;
  Cycle busy_streak = 0;

  Cycle now = start_cycle;
  while (now < max_cycles) {
    if (now < burst_until) {
      // Naive burst: tick everything in the reference order with no
      // calendar traffic. It starts from fully-credited state, so a stop
      // inside it leaves nothing to credit.
      const Cycle end = std::min(burst_until, max_cycles);
      const Stop stop = naiveLoop<kOneTile>(s, now, end, nullptr);
      if (stop.now < end) return stop;
      s.syncTo(end);
      now = end;
      continue;
    }
    bool any_due = false;
    for (std::uint32_t t = 0; t < n; ++t) {
      lanes[t].due = static_cast<std::uint8_t>(
          (cal.due(2 * t, now) ? kDeviceDue : 0) |
          (cal.due(2 * t + 1, now) ? kCoreDue : 0));
      any_due = any_due || lanes[t].due != 0;
    }
    if (any_due) {
      if (threaded) {
        s.tickOnPool(now);
      } else {
        Schedule::tickDue(tiles.data(), lanes, 0, n, now);
      }
    }
    const bool mmio_was_pending = mem.mmioPending();
    if (mmio_was_pending) {
      // Settle every device's lazy credit BEFORE the memory tick delivers
      // MMIO: a delivered write can create or start an engine, and credits
      // applied after that would advance the new engine's phase for cycles
      // the naive schedule ticked against the old state. Crediting through
      // `now` is sound: a device not due this cycle is covered by its
      // contract up to and including now.
      s.creditDevices(now + 1);
    }
    if (cal.due(mem_slot, now) || mem.pendingArbitration()) {
      // pendingArbitration covers submits made by this cycle's device/core
      // ticks: arbitration for them runs this same cycle, which a posting
      // taken before those ticks cannot know.
      if (wq != nullptr) wq->beginCycle(now);
      mem.tick(now);
      if (now >= mem_hook_due) {
        const Cycle next = mem.nextEventCycle(now);
        cal.post(mem_slot, next);
        if (next == now + 1) mem_hook_due = now + kHookThinStride;
      } else {
        cal.post(mem_slot, now + 1);
      }
      if (mmio_was_pending) {
        // The memory system processed MMIO traffic this cycle; an MMIO
        // start write is the one path that hands an otherwise-idle device
        // new work, so refresh the postings of devices that did not tick.
        for (std::uint32_t t = 0; t < n; ++t) {
          if (lanes[t].due & kDeviceDue) continue;
          cal.post(2 * t,
                   std::min(cal.at(2 * t), tiles[t].deviceNextEvent(now)));
        }
      }
    }
    // Both refreshes run after the memory tick: a device's next event
    // consults memory drain state, and a core load waits on a response
    // whose ready cycle the memory system only knows once granted. A core
    // is never woken externally — every wait phase it enters carries its
    // own wake cycle — so its posting refreshes only when it ticks.
    bool halted = true;
    for (std::uint32_t t = 0; t < n; ++t) {
      Lane& lane = lanes[t];
      if (lane.due & kDeviceDue) {
        if (now >= lane.dev_hook_due) {
          const Cycle next = tiles[t].deviceNextEvent(now);
          cal.post(2 * t, next);
          if (next == now + 1) lane.dev_hook_due = now + kHookThinStride;
        } else {
          cal.post(2 * t, now + 1);
        }
      }
      if (lane.due & kCoreDue) {
        cal.post(2 * t + 1, tiles[t].cpu->nextEventCycle(now));
      }
      if (tiles[t].hht->faultRaised()) {
        s.creditTo(now + 1);
        return {now, static_cast<int>(t)};
      }
      halted = halted && tiles[t].cpu->halted();
    }
    if (halted && mem.idle()) {
      s.creditTo(now + 1);
      return {now, -1};
    }
    if (sampler.due(now)) s.watch(now, [&] { s.creditTo(now + 1); });

    const Cycle ev = cal.next();
    if (ev > now + 1) {
      busy_streak = 0;
      burst_len = kMinBurst;
      // Jump to the earliest cycle any component has work, capped at
      // max_cycles (timeout path unchanged) and at the watchdogs' next
      // state-changing sample.
      const Cycle target = std::min({ev, max_cycles, s.watchdogHorizon(now)});
      if (target > now + 1) {
        host_skipped_cycles_ += target - (now + 1);
        now = target;
        continue;
      }
    } else if (++busy_streak >= kBurstStreak) {
      // ev == now+1 only means the EARLIEST component is due next cycle;
      // others may still carry uncredited lazily-skipped cycles. Settle
      // every cursor now — the burst ticks every component every cycle, so
      // it must start from fully-credited state, exactly like the
      // fault/halt exits.
      s.creditTo(now + 1);
      busy_streak = 0;
      burst_until = now + 1 + burst_len;
      burst_len = std::min(burst_len * 2, kBurstCap);
      // A burst ticks without posting, so work created inside it (a
      // grant's retirement cycle, a stall wake) would leave the pre-burst
      // entries stale-HIGH and get missed. Force every slot due on the
      // first post-burst cycle: each component ticks once and reposts from
      // a fresh hook.
      for (std::size_t slot = 0; slot <= mem_slot; ++slot) {
        cal.post(slot, burst_until);
      }
    }
    ++now;
  }
  // now == max_cycles: credit the lazily-skipped tail through the last
  // simulated cycle.
  s.creditTo(now);
  return {now, -1};
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
