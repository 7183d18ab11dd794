#include "harness/system.h"

#include <bit>
#include <stdexcept>

#include "sim/state_io.h"

namespace hht::harness {

namespace {
// --- snapshot identity ---
//
// A snapshot only replays correctly on a System built from an *identical*
// SystemConfig running the *identical* program (same name and encoded
// instructions). Rather than serialize and diff whole configs, both sides
// are reduced to FNV-1a fingerprints over a canonical byte serialization;
// restore() rejects any mismatch with SimError(Checkpoint).

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

void writeTiming(sim::StateWriter& w, const cpu::TimingConfig& t) {
  w.u64(t.int_alu).u64(t.int_mul).u64(t.int_div);
  w.u64(t.branch_not_taken).u64(t.branch_taken).u64(t.jump);
  w.u64(t.fp_alu).u64(t.fp_mul).u64(t.fp_madd).u64(t.fp_div).u64(t.fp_move);
  w.u64(t.load_issue).u64(t.store_issue);
  w.u64(t.vec_cfg).u64(t.vec_alu).u64(t.vec_fp).u64(t.vec_red).u64(t.vec_move);
  w.u64(t.vec_mem_issue).u64(t.gather_startup);
  w.u32(t.vec_bus_bytes).u32(t.gather_issue_per_cycle);
  w.u64(std::bit_cast<std::uint64_t>(t.clock_hz));
}

cpu::TimingConfig readTiming(sim::StateReader& r) {
  cpu::TimingConfig t;
  t.int_alu = r.u64();
  t.int_mul = r.u64();
  t.int_div = r.u64();
  t.branch_not_taken = r.u64();
  t.branch_taken = r.u64();
  t.jump = r.u64();
  t.fp_alu = r.u64();
  t.fp_mul = r.u64();
  t.fp_madd = r.u64();
  t.fp_div = r.u64();
  t.fp_move = r.u64();
  t.load_issue = r.u64();
  t.store_issue = r.u64();
  t.vec_cfg = r.u64();
  t.vec_alu = r.u64();
  t.vec_fp = r.u64();
  t.vec_red = r.u64();
  t.vec_move = r.u64();
  t.vec_mem_issue = r.u64();
  t.gather_startup = r.u64();
  t.vec_bus_bytes = r.u32();
  t.gather_issue_per_cycle = r.u32();
  t.clock_hz = std::bit_cast<double>(r.u64());
  return t;
}
}  // namespace

std::uint64_t configFingerprint(const SystemConfig& cfg) {
  sim::StateWriter w;
  writeSystemConfig(w, cfg);
  return fnv1a(w.data().data(), w.size());
}

std::uint64_t programHash(const isa::Program& program) {
  sim::StateWriter w;
  w.str(program.name());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const isa::Instr& instr = program.at(i);
    w.u8(static_cast<std::uint8_t>(instr.op));
    w.u8(instr.rd).u8(instr.rs1).u8(instr.rs2).u8(instr.rs3);
    w.u32(static_cast<std::uint32_t>(instr.imm));
  }
  return fnv1a(w.data().data(), w.size());
}

void writeSystemConfig(sim::StateWriter& w, const SystemConfig& cfg) {
  writeTiming(w, cfg.timing);
  const mem::MemorySystemConfig& m = cfg.memory;
  w.u64(m.sram_bytes).u64(m.sram_latency).u32(m.grants_per_cycle);
  w.u8(static_cast<std::uint8_t>(m.policy));
  w.u32(m.num_tiles).u32(m.cpu_starvation_limit);
  w.b(m.cpu_cache_enabled).b(m.hht_cache_enabled);
  w.u32(m.cache.size_bytes).u32(m.cache.line_bytes).u32(m.cache.ways);
  w.u64(m.cache.hit_latency).u64(m.cache.miss_penalty);
  w.u64(m.cache.writeback_penalty);
  w.b(m.prefetch_enabled).u32(m.prefetch_degree);
  w.u32(m.mmio_base).u32(m.mmio_size);
  w.b(m.work_queue_enabled);
  const mem::TopologyConfig& topo = m.topology;
  w.u32(topo.channels).u32(topo.interleave_bytes);
  w.u64(topo.link_latency).u32(topo.link_bandwidth);
  w.b(topo.tile_l1_enabled);
  w.u32(topo.tile_l1.size_bytes).u32(topo.tile_l1.line_bytes);
  w.u32(topo.tile_l1.ways);
  w.u64(topo.tile_l1.hit_latency).u64(topo.tile_l1.miss_penalty);
  w.u64(topo.tile_l1.writeback_penalty);
  w.b(topo.hht_prefetch_enabled);
  w.u32(topo.hht_prefetch_degree).u32(topo.hht_prefetch_queue);
  w.u32(static_cast<std::uint32_t>(topo.nodes.size()));
  for (const mem::TopologyNodeConfig& node : topo.nodes) {
    w.u32(node.grants_per_cycle).u64(node.extra_latency);
  }
  const core::HhtConfig& h = cfg.hht;
  w.u32(h.num_buffers).u32(h.buffer_len).u32(h.be_issue_per_cycle);
  w.u32(h.cmp_per_cycle).u32(h.cmp_recurrence).u32(h.emit_per_cycle);
  w.u32(h.prefetch_queue).u32(h.emission_queue);
  w.u64(h.test_flip_element);
  w.u32(static_cast<std::uint32_t>(cfg.vlmax));
  w.b(cfg.programmable_hht);
  writeTiming(w, cfg.micro_timing);
  const sim::FaultConfig& f = cfg.faults;
  w.b(f.enabled).u64(f.seed);
  w.u64(std::bit_cast<std::uint64_t>(f.sram_read_flip_rate));
  w.u64(std::bit_cast<std::uint64_t>(f.drop_rate));
  w.u64(std::bit_cast<std::uint64_t>(f.delay_rate));
  w.u64(f.delay_cycles);
  w.u64(std::bit_cast<std::uint64_t>(f.mmr_glitch_rate));
  w.u64(std::bit_cast<std::uint64_t>(f.fifo_corrupt_rate));
  w.u32(f.ecc_retry_limit).u64(f.drop_penalty_cycles);
  w.u64(cfg.watchdog_cycles);
}

SystemConfig readSystemConfig(sim::StateReader& r) {
  SystemConfig cfg;
  cfg.timing = readTiming(r);
  mem::MemorySystemConfig& m = cfg.memory;
  m.sram_bytes = static_cast<std::size_t>(r.u64());
  m.sram_latency = r.u64();
  m.grants_per_cycle = r.u32();
  m.policy = static_cast<mem::ArbiterPolicy>(r.u8());
  m.num_tiles = r.u32();
  m.cpu_starvation_limit = r.u32();
  m.cpu_cache_enabled = r.b();
  m.hht_cache_enabled = r.b();
  m.cache.size_bytes = r.u32();
  m.cache.line_bytes = r.u32();
  m.cache.ways = r.u32();
  m.cache.hit_latency = r.u64();
  m.cache.miss_penalty = r.u64();
  m.cache.writeback_penalty = r.u64();
  m.prefetch_enabled = r.b();
  m.prefetch_degree = r.u32();
  m.mmio_base = r.u32();
  m.mmio_size = r.u32();
  m.work_queue_enabled = r.b();
  mem::TopologyConfig& topo = m.topology;
  topo.channels = r.u32();
  topo.interleave_bytes = r.u32();
  topo.link_latency = r.u64();
  topo.link_bandwidth = r.u32();
  topo.tile_l1_enabled = r.b();
  topo.tile_l1.size_bytes = r.u32();
  topo.tile_l1.line_bytes = r.u32();
  topo.tile_l1.ways = r.u32();
  topo.tile_l1.hit_latency = r.u64();
  topo.tile_l1.miss_penalty = r.u64();
  topo.tile_l1.writeback_penalty = r.u64();
  topo.hht_prefetch_enabled = r.b();
  topo.hht_prefetch_degree = r.u32();
  topo.hht_prefetch_queue = r.u32();
  const std::uint32_t num_nodes = r.u32();
  r.checkCount(num_nodes, 12, "topology node");  // u32 grants + u64 latency
  topo.nodes.resize(num_nodes);
  for (mem::TopologyNodeConfig& node : topo.nodes) {
    node.grants_per_cycle = r.u32();
    node.extra_latency = r.u64();
  }
  core::HhtConfig& h = cfg.hht;
  h.num_buffers = r.u32();
  h.buffer_len = r.u32();
  h.be_issue_per_cycle = r.u32();
  h.cmp_per_cycle = r.u32();
  h.cmp_recurrence = r.u32();
  h.emit_per_cycle = r.u32();
  h.prefetch_queue = r.u32();
  h.emission_queue = r.u32();
  h.test_flip_element = r.u64();
  cfg.vlmax = static_cast<int>(r.u32());
  cfg.programmable_hht = r.b();
  cfg.micro_timing = readTiming(r);
  sim::FaultConfig& f = cfg.faults;
  f.enabled = r.b();
  f.seed = r.u64();
  f.sram_read_flip_rate = std::bit_cast<double>(r.u64());
  f.drop_rate = std::bit_cast<double>(r.u64());
  f.delay_rate = std::bit_cast<double>(r.u64());
  f.delay_cycles = r.u64();
  f.mmr_glitch_rate = std::bit_cast<double>(r.u64());
  f.fifo_corrupt_rate = std::bit_cast<double>(r.u64());
  f.ecc_retry_limit = r.u32();
  f.drop_penalty_cycles = r.u64();
  cfg.watchdog_cycles = r.u64();
  return cfg;
}

namespace {
/// System is the paper's single-tile machine; wider configurations are
/// built as a MultiTileSystem.
const SystemConfig& singleTileOnly(const SystemConfig& config) {
  if (config.memory.num_tiles != 1) {
    throw sim::SimError(sim::ErrorKind::Config, "system",
                        "System is single-tile; memory.num_tiles=" +
                            std::to_string(config.memory.num_tiles) +
                            " requires harness::MultiTileSystem");
  }
  return config;
}
}  // namespace

System::System(const SystemConfig& config)
    : MultiTileSystem(singleTileOnly(config)) {}

kernels::SpmvLayout loadSpmv(mem::Arena& arena, mem::Sram& sram,
                             const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadSpmv: vector length != matrix columns");
  }
  kernels::SpmvLayout layout;
  layout.num_rows = m.numRows();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmvLayout loadSpmv(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v) {
  return loadSpmv(sys.arena(), sys.memory().sram(), m, v);
}

kernels::SpmspvLayout loadSpmspv(mem::Arena& arena, mem::Sram& sram,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadSpmspv: vector length != matrix columns");
  }
  kernels::SpmspvLayout layout;
  layout.num_rows = m.numRows();
  layout.v_nnz = v.nnz();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  layout.vidx = arena.place<sim::Index>(sram, v.indices());
  layout.vvals = arena.place<float>(sram, v.vals());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmspvLayout loadSpmspv(System& sys, const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v) {
  return loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
}

kernels::HierLayout loadHier(System& sys, const sparse::HierBitmapMatrix& m,
                             const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadHier: vector length != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::HierLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  // uint64 words laid out little-endian: the engine's 32-bit reads see
  // bits [i*32, i*32+32) at word offset i, as it expects.
  layout.l1 = arena.place<std::uint64_t>(sram, m.level1(), 8);
  layout.leaves = arena.place<std::uint64_t>(sram, m.leaves(), 8);
  layout.packed_vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmmLayout loadSpmm(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseMatrix& b) {
  if (b.numRows() != m.numCols()) {
    throw std::invalid_argument("loadSpmm: B rows != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::SpmmLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  layout.k = b.numCols();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  // Column-major copy of B.
  std::vector<float> colmajor(static_cast<std::size_t>(b.numRows()) * b.numCols());
  for (sim::Index j = 0; j < b.numCols(); ++j) {
    for (sim::Index i = 0; i < b.numRows(); ++i) {
      colmajor[static_cast<std::size_t>(j) * b.numRows() + i] = b.at(i, j);
    }
  }
  layout.b = arena.place<float>(sram, colmajor);
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * b.numCols() * 4);
  return layout;
}

kernels::HierLayout loadFlatBitmap(System& sys, const sparse::BitVectorMatrix& m,
                                   const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadFlatBitmap: vector length != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::HierLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  layout.l1 = 0;  // unused in flat mode
  layout.leaves = arena.place<std::uint64_t>(sram, m.words(), 8);
  layout.packed_vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

}  // namespace hht::harness
