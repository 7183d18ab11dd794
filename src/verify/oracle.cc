#include "verify/oracle.h"

#include <sstream>

#include "sparse/reference.h"

namespace hht::verify {

namespace {
std::uint32_t bitsOf(float v) { return std::bit_cast<std::uint32_t>(v); }
}  // namespace

std::string Divergence::describe() const {
  std::ostringstream os;
  os << "divergence at element " << element_index << " (cycle window ["
     << prev_cycle << ", " << cycle << "]): " << detail;
  if (expected_row_end != actual_row_end) {
    os << " expected " << (expected_row_end ? "row-end" : "data")
       << ", device delivered " << (actual_row_end ? "row-end" : "data");
  }
  if (!expected_row_end && !actual_row_end &&
      expected_bits != actual_bits) {
    os << " expected bits 0x" << std::hex << expected_bits
       << ", device delivered 0x" << actual_bits << std::dec;
  }
  return os.str();
}

namespace {
kernels::RowShard fullShard(const sparse::CsrMatrix& m) {
  return {0, m.numRows(), 0};
}
}  // namespace

std::vector<StreamEvent> expectedGatherStream(const sparse::CsrMatrix& m,
                                              const sparse::DenseVector& v) {
  return expectedGatherStreamShard(m, v, fullShard(m));
}

std::vector<StreamEvent> expectedMergeV1Stream(const sparse::CsrMatrix& m,
                                               const sparse::SparseVector& v) {
  return expectedMergeV1StreamShard(m, v, fullShard(m));
}

std::vector<StreamEvent> expectedStreamV2Stream(const sparse::CsrMatrix& m,
                                                const sparse::SparseVector& v) {
  return expectedStreamV2StreamShard(m, v, fullShard(m));
}

std::vector<StreamEvent> expectedGatherStreamShard(
    const sparse::CsrMatrix& m, const sparse::DenseVector& v,
    const kernels::RowShard& shard) {
  std::vector<StreamEvent> out;
  const auto& row_ptr = m.rowPtr();
  const sim::Index nnz_begin = row_ptr[shard.row_begin];
  const sim::Index nnz_end = row_ptr[shard.row_end];
  out.reserve(nnz_end - nnz_begin);
  for (sim::Index k = nnz_begin; k < nnz_end; ++k) {
    out.push_back({false, bitsOf(v[m.cols()[k]])});
  }
  return out;
}

std::vector<StreamEvent> expectedMergeV1StreamShard(
    const sparse::CsrMatrix& m, const sparse::SparseVector& v,
    const kernels::RowShard& shard) {
  std::vector<StreamEvent> out;
  for (sim::Index r = shard.row_begin; r < shard.row_end; ++r) {
    for (const sparse::AlignedPair& pair : sparse::intersectRow(m, r, v)) {
      out.push_back({false, bitsOf(pair.m_val)});
      out.push_back({false, bitsOf(pair.v_val)});
    }
    out.push_back({true, 0});
  }
  return out;
}

std::vector<StreamEvent> expectedStreamV2StreamShard(
    const sparse::CsrMatrix& m, const sparse::SparseVector& v,
    const kernels::RowShard& shard) {
  std::vector<StreamEvent> out;
  for (sim::Index r = shard.row_begin; r < shard.row_end; ++r) {
    for (sparse::Value val : sparse::valueStreamRow(m, r, v)) {
      out.push_back({false, bitsOf(val)});
    }
  }
  return out;
}

namespace {
/// Shared walk for both bitmap formats: enumerate (position, value) pairs
/// in row-major position order, emit the gathered v[col] per set position
/// and close each row with a marker as the walk crosses its boundary.
std::vector<StreamEvent> bitmapStream(
    const std::vector<std::pair<std::size_t, sparse::Value>>& nonzeros,
    sim::Index num_rows, sim::Index num_cols, const sparse::DenseVector& v) {
  std::vector<StreamEvent> out;
  out.reserve(nonzeros.size() + num_rows);
  sim::Index cur_row = 0;
  for (const auto& [pos, val] : nonzeros) {
    (void)val;  // the device streams gathered v values; vals come via CPU
    const sim::Index row = static_cast<sim::Index>(pos / num_cols);
    const sim::Index col = static_cast<sim::Index>(pos % num_cols);
    while (cur_row < row) {
      out.push_back({true, 0});
      ++cur_row;
    }
    out.push_back({false, bitsOf(v[col])});
  }
  while (cur_row < num_rows) {
    out.push_back({true, 0});
    ++cur_row;
  }
  return out;
}
}  // namespace

std::vector<StreamEvent> expectedHierStream(const sparse::HierBitmapMatrix& m,
                                            const sparse::DenseVector& v) {
  return bitmapStream(m.enumerate(), m.numRows(), m.numCols(), v);
}

std::vector<StreamEvent> expectedFlatStream(const sparse::BitVectorMatrix& m,
                                            const sparse::DenseVector& v) {
  std::vector<std::pair<std::size_t, sparse::Value>> nonzeros;
  nonzeros.reserve(m.nnz());
  const std::size_t positions =
      static_cast<std::size_t>(m.numRows()) * m.numCols();
  std::size_t vi = 0;
  for (std::size_t pos = 0; pos < positions; ++pos) {
    if ((m.words()[pos >> 6] >> (pos & 63)) & 1u) {
      nonzeros.emplace_back(pos, m.vals()[vi++]);
    }
  }
  return bitmapStream(nonzeros, m.numRows(), m.numCols(), v);
}

void DifferentialOracle::onDelivered(sim::Cycle now, bool is_row_end,
                                     std::uint32_t bits) {
  const sim::Cycle prev = last_cycle_;
  last_cycle_ = now;
  const std::uint64_t index = delivered_++;
  if (divergence_) return;  // first divergence already latched; keep counting

  if (index >= expected_.size()) {
    latch({index, false, is_row_end, 0, bits, prev, now,
           "device delivered more elements than the functional model "
           "expects (" +
               std::to_string(expected_.size()) + ")"});
    return;
  }
  const StreamEvent& want = expected_[index];
  if (want.row_end != is_row_end) {
    latch({index, want.row_end, is_row_end, want.bits, bits, prev, now,
           "element kind mismatch"});
    return;
  }
  if (!want.row_end && want.bits != bits) {
    latch({index, want.row_end, is_row_end, want.bits, bits, prev, now,
           "payload mismatch"});
  }
}

void DifferentialOracle::onCycle(harness::MultiTileSystem& sys,
                                 sim::Cycle now) {
  if (!occupancyCheckDue(now)) return;
  const core::Hht* hht = sys.asicHht(0);
  if (hht == nullptr) return;
  checkOccupancy(*hht, now);
}

void DifferentialOracle::checkOccupancy(const core::Hht& hht, sim::Cycle now) {
  if (divergence_) return;
  const core::HhtConfig& cfg = hht.config();
  const core::BufferPool& pool = hht.bufferPool();
  if (pool.stagedSlots() > cfg.buffer_len) {
    latch({delivered_, false, false, 0, 0, last_cycle_, now,
           "FIFO invariant violated: staging holds " +
               std::to_string(pool.stagedSlots()) + " slots > BLEN " +
               std::to_string(cfg.buffer_len)});
    return;
  }
  if (pool.publishedBuffers() > cfg.num_buffers) {
    latch({delivered_, false, false, 0, 0, last_cycle_, now,
           "FIFO invariant violated: " +
               std::to_string(pool.publishedBuffers()) +
               " published buffers > N " + std::to_string(cfg.num_buffers)});
    return;
  }
  if (hht.emissionQueue().size() > cfg.emission_queue) {
    latch({delivered_, false, false, 0, 0, last_cycle_, now,
           "FIFO invariant violated: emission queue holds " +
               std::to_string(hht.emissionQueue().size()) +
               " entries > depth " + std::to_string(cfg.emission_queue)});
  }
}

void DifferentialOracle::checkStreamComplete() {
  if (divergence_) return;
  if (delivered_ != expected_.size()) {
    latch({delivered_, false, false, 0, 0, last_cycle_, last_cycle_,
           "stream ended after " + std::to_string(delivered_) +
               " elements; the functional model expects " +
               std::to_string(expected_.size())});
  }
}

void DifferentialOracle::checkFinal(const sparse::DenseVector& actual_y,
                                    const sparse::DenseVector& expected_y) {
  checkStreamComplete();
  if (divergence_) return;
  if (actual_y.size() != expected_y.size()) {
    latch({delivered_, false, false, 0, 0, last_cycle_, last_cycle_,
           "output vector length " + std::to_string(actual_y.size()) +
               " != reference length " + std::to_string(expected_y.size())});
    return;
  }
  for (sim::Index i = 0; i < expected_y.size(); ++i) {
    if (bitsOf(actual_y[i]) != bitsOf(expected_y[i])) {
      latch({delivered_, false, false, bitsOf(expected_y[i]),
             bitsOf(actual_y[i]), last_cycle_, last_cycle_,
             "output y[" + std::to_string(i) +
                 "] differs from the reference kernel"});
      return;
    }
  }
}

MultiTileOracle::MultiTileOracle(
    std::vector<std::vector<StreamEvent>> expected_per_tile,
    sim::Cycle check_interval) {
  tiles_.reserve(expected_per_tile.size());
  for (auto& expected : expected_per_tile) {
    tiles_.emplace_back(std::move(expected), check_interval);
  }
}

MultiTileOracle::MultiTileOracle(std::uint32_t num_tiles,
                                 RowStreamFn row_stream,
                                 sim::Cycle check_interval)
    : row_stream_(std::move(row_stream)) {
  tiles_.reserve(num_tiles);
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    tiles_.emplace_back(std::vector<StreamEvent>{}, check_interval);
  }
}

void MultiTileOracle::attach(harness::MultiTileSystem& sys) {
  if (sys.numTiles() != tiles_.size()) {
    throw sim::SimError(sim::ErrorKind::Config, "oracle",
                        "MultiTileOracle holds " +
                            std::to_string(tiles_.size()) +
                            " expected streams, system has " +
                            std::to_string(sys.numTiles()) + " tiles");
  }
  if (sys.asicHht(0) == nullptr) {
    throw sim::SimError(sim::ErrorKind::Config, "oracle",
                        "MultiTileOracle taps the ASIC HHT; this machine "
                        "runs the programmable device");
  }
  for (std::uint32_t t = 0; t < sys.numTiles(); ++t) {
    sys.asicHht(t)->addStreamTap(&tiles_[t]);
  }
}

void MultiTileOracle::detach(harness::MultiTileSystem& sys) {
  for (std::uint32_t t = 0; t < sys.numTiles() && t < tiles_.size(); ++t) {
    sys.asicHht(t)->removeStreamTap(&tiles_[t]);
  }
}

void MultiTileOracle::onCycle(harness::MultiTileSystem& sys, sim::Cycle now) {
  // Dynamic mode: fold newly granted claims into the claiming tiles'
  // expected streams. The observer runs after the memory tick that granted
  // them, and the first delivery of a claimed chunk is at least one cycle
  // later (the CPU reprograms the HHT first), so the append always lands
  // before the deliveries it predicts.
  if (row_stream_) {
    if (const mem::ChunkQueueDevice* wq = sys.workQueue()) {
      const auto& log = wq->claimLog();
      for (; next_claim_ < log.size(); ++next_claim_) {
        const mem::ChunkQueueDevice::Claim& c = log[next_claim_];
        tiles_.at(c.tile).appendExpected(row_stream_(c.row_begin, c.row_count));
      }
    }
  }
  for (std::uint32_t t = 0; t < sys.numTiles() && t < tiles_.size(); ++t) {
    if (tiles_[t].occupancyCheckDue(now)) {
      tiles_[t].checkOccupancy(*sys.asicHht(t), now);
    }
  }
}

void MultiTileOracle::checkFinal(const sparse::DenseVector& actual_y,
                                 const sparse::DenseVector& expected_y) {
  for (DifferentialOracle& tile : tiles_) tile.checkStreamComplete();
  if (y_divergence_) return;
  if (actual_y.size() != expected_y.size()) {
    y_divergence_ = {0,     false, false,
                     0,     0,     0,
                     0,     "output vector length " +
                                std::to_string(actual_y.size()) +
                                " != reference length " +
                                std::to_string(expected_y.size())};
    return;
  }
  for (sim::Index i = 0; i < expected_y.size(); ++i) {
    if (bitsOf(actual_y[i]) != bitsOf(expected_y[i])) {
      y_divergence_ = {0,
                       false,
                       false,
                       bitsOf(expected_y[i]),
                       bitsOf(actual_y[i]),
                       0,
                       0,
                       "output y[" + std::to_string(i) +
                           "] differs from the reference kernel"};
      return;
    }
  }
}

bool MultiTileOracle::diverged() const {
  if (y_divergence_) return true;
  for (const DifferentialOracle& tile : tiles_) {
    if (tile.diverged()) return true;
  }
  return false;
}

std::string MultiTileOracle::describe() const {
  std::ostringstream os;
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (tiles_[t].diverged()) {
      os << "tile " << t << ": " << tiles_[t].divergence()->describe() << "\n";
    }
  }
  if (y_divergence_) {
    os << "shared output: " << y_divergence_->describe() << "\n";
  }
  return os.str();
}

}  // namespace hht::verify
