#pragma once

#include <bit>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/system.h"
#include "sim/probe.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/hier_bitmap.h"
#include "sparse/bitvector.h"
#include "sparse/sparse_vector.h"

namespace hht::verify {

/// One element the HHT front-end is expected to deliver to the CPU, in
/// stream order: either a data element (the 32 bits a BUF_DATA pop must
/// return) or a row-end marker (a VALID=0 pop).
struct StreamEvent {
  bool row_end = false;
  std::uint32_t bits = 0;

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

/// First point where the simulated device's behaviour departed from the
/// functional model, with enough context to aim a waveform-level debug
/// session: the ordinal of the divergent element and the cycle window
/// [prev_cycle, cycle] between the previous delivery and the divergent one.
struct Divergence {
  std::uint64_t element_index = 0;  ///< 0-based ordinal in the delivery stream
  bool expected_row_end = false;
  bool actual_row_end = false;
  std::uint32_t expected_bits = 0;
  std::uint32_t actual_bits = 0;
  sim::Cycle prev_cycle = 0;  ///< cycle of the previous delivered element
  sim::Cycle cycle = 0;       ///< cycle of the divergent element (or check)
  std::string detail;         ///< human-readable classification

  std::string describe() const;
};

// --- expected-stream builders (the functional model of each engine) ---

/// SpmvGather: one data element per stored non-zero, row-major —
/// bit_cast(v[cols[k]]). The gather engine emits no row-end markers (the
/// consumer walks rowPtr itself).
std::vector<StreamEvent> expectedGatherStream(const sparse::CsrMatrix& m,
                                              const sparse::DenseVector& v);

/// SpmspvV1: per index match of row r with the sparse vector, the matrix
/// value then the vector value; after every row (including empty ones)
/// exactly one row-end marker.
std::vector<StreamEvent> expectedMergeV1Stream(const sparse::CsrMatrix& m,
                                               const sparse::SparseVector& v);

/// SpmspvV2: one data element per stored matrix non-zero — the matching
/// vector value, or literal 0.0f bits when the column is absent from the
/// sparse vector. No markers.
std::vector<StreamEvent> expectedStreamV2Stream(const sparse::CsrMatrix& m,
                                                const sparse::SparseVector& v);

// Shard-restricted variants: the expected stream of one tile of a
// MultiTileSystem running the corresponding *Shard kernel — exactly the
// full-matrix stream with the row loop clamped to the shard (the tile
// streams of a run concatenate, in tile order, into the full stream).
std::vector<StreamEvent> expectedGatherStreamShard(
    const sparse::CsrMatrix& m, const sparse::DenseVector& v,
    const kernels::RowShard& shard);
std::vector<StreamEvent> expectedMergeV1StreamShard(
    const sparse::CsrMatrix& m, const sparse::SparseVector& v,
    const kernels::RowShard& shard);
std::vector<StreamEvent> expectedStreamV2StreamShard(
    const sparse::CsrMatrix& m, const sparse::SparseVector& v,
    const kernels::RowShard& shard);

/// HierBitmap: gathered v[col] per set position in row-major position
/// order, plus one row-end marker per row (trailing empty rows close at
/// the end of the walk).
std::vector<StreamEvent> expectedHierStream(const sparse::HierBitmapMatrix& m,
                                            const sparse::DenseVector& v);

/// FlatBitmap: same contract as the hierarchical walk over the one-level
/// bit-vector format.
std::vector<StreamEvent> expectedFlatStream(const sparse::BitVectorMatrix& m,
                                            const sparse::DenseVector& v);

/// Differential co-simulation oracle.
///
/// Runs in lockstep with a single-tile harness::System via two hooks:
///  - sim::StreamTap (install with Hht::addStreamTap): every element the FE
///    delivers to the CPU is compared against the expected stream; the
///    first mismatch is latched as a Divergence with its cycle window.
///  - harness::RunObserver (pass to System::run): every `check_interval`
///    cycles the FIFO occupancy invariants of tile 0's device are checked
///    against the configured hardware sizes (staging <= BLEN, published
///    buffers <= N, emission queue <= its depth).
///
/// After the run, checkFinal() verifies the delivered-element count and the
/// bit-exact output vector. The oracle never throws on divergence — it
/// latches the first one and keeps observing, so a campaign driver can
/// always collect the full report and decide what to do.
class DifferentialOracle : public sim::StreamTap, public harness::RunObserver {
 public:
  explicit DifferentialOracle(std::vector<StreamEvent> expected,
                              sim::Cycle check_interval = 64)
      : expected_(std::move(expected)), check_interval_(check_interval) {}

  void onDelivered(sim::Cycle now, bool is_row_end,
                   std::uint32_t bits) override;
  void onCycle(harness::MultiTileSystem& sys, sim::Cycle now) override;

  /// The FIFO-occupancy invariant check against `hht`'s own configured
  /// sizes, independent of where the device lives — onCycle delegates here
  /// for tile 0's device, and MultiTileOracle calls it per tile. Latches
  /// (never throws) like every other check.
  void checkOccupancy(const core::Hht& hht, sim::Cycle now);

  /// Whether `now` is an occupancy-sampling cycle (check_interval gating;
  /// interval 0 disables sampling entirely).
  bool occupancyCheckDue(sim::Cycle now) const {
    return check_interval_ != 0 && now % check_interval_ == 0;
  }

  /// Post-run checks: the whole expected stream was delivered and the
  /// output vector matches the reference bit-for-bit.
  void checkFinal(const sparse::DenseVector& actual_y,
                  const sparse::DenseVector& expected_y);

  /// Post-run stream-completeness check alone (no output comparison) — the
  /// per-tile half of a multi-tile checkFinal, where y is shared and
  /// compared once globally.
  void checkStreamComplete();

  /// Extend the expected stream mid-run — the per-row dynamic mode: a
  /// chunk-queue run's row->tile mapping is decided by the arbiter, so the
  /// MultiTileOracle appends each tile's expected events as the claim log
  /// reveals which rows it won. Safe because a claim's first delivery is
  /// always at least one cycle after the observer sees the claim (the CPU
  /// still has to reprogram and START the HHT).
  void appendExpected(std::vector<StreamEvent> more) {
    expected_.insert(expected_.end(), more.begin(), more.end());
  }

  bool diverged() const { return divergence_.has_value(); }
  const std::optional<Divergence>& divergence() const { return divergence_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  void latch(Divergence d) {
    if (!divergence_) divergence_ = std::move(d);
  }

  std::vector<StreamEvent> expected_;
  sim::Cycle check_interval_;
  std::uint64_t delivered_ = 0;
  sim::Cycle last_cycle_ = 0;
  std::optional<Divergence> divergence_;
};

/// Multi-tile differential oracle: one DifferentialOracle (and so one
/// stream tap) per tile, each holding that tile's shard-restricted expected
/// stream, plus the per-cycle occupancy sweep over every tile's device.
/// Divergences latch per tile; the shared output vector is checked once
/// globally in checkFinal. Like the single-tile oracle it never throws —
/// campaign drivers collect the report.
class MultiTileOracle : public harness::RunObserver {
 public:
  /// Builds the expected events of one claimed row window [row_begin,
  /// row_begin + row_count) — wrap the matching expected*StreamShard
  /// builder (e.g. expectedGatherStreamShard with a {begin, end, 0} shard).
  using RowStreamFn = std::function<std::vector<StreamEvent>(
      std::uint32_t row_begin, std::uint32_t row_count)>;

  /// `expected_per_tile.size()` must equal the system's tile count at
  /// attach(). check_interval gates the occupancy sweep (0 disables).
  explicit MultiTileOracle(
      std::vector<std::vector<StreamEvent>> expected_per_tile,
      sim::Cycle check_interval = 64);

  /// Per-row dynamic mode for chunk-queue runs: every tile starts with an
  /// empty expected stream, and onCycle drains the work-queue claim log,
  /// appending `row_stream(row_begin, row_count)` to the claiming tile's
  /// oracle — so the expectation follows whatever row->tile mapping the
  /// arbiter produced. Requires the system to have a work queue and a
  /// fresh (not restored mid-run) claim log.
  MultiTileOracle(std::uint32_t num_tiles, RowStreamFn row_stream,
                  sim::Cycle check_interval = 64);

  /// Install tile t's oracle as a stream tap on sys.asicHht(t) (the ASIC
  /// device; a programmable machine is rejected with SimError(Config)).
  /// Pair with detach() before the system (or this oracle) is destroyed.
  void attach(harness::MultiTileSystem& sys);
  void detach(harness::MultiTileSystem& sys);

  void onCycle(harness::MultiTileSystem& sys, sim::Cycle now) override;

  /// Post-run: every tile's stream completed, and the shared output vector
  /// matches the reference bit-for-bit.
  void checkFinal(const sparse::DenseVector& actual_y,
                  const sparse::DenseVector& expected_y);

  bool diverged() const;
  /// All latched divergences, one line per tile, for a campaign report.
  std::string describe() const;
  std::uint32_t numTiles() const {
    return static_cast<std::uint32_t>(tiles_.size());
  }
  DifferentialOracle& tileOracle(std::uint32_t tile) {
    return tiles_.at(tile);
  }

 private:
  std::vector<DifferentialOracle> tiles_;  ///< stable: sized once in the ctor
  std::optional<Divergence> y_divergence_;
  RowStreamFn row_stream_;        ///< set = per-row dynamic mode
  std::size_t next_claim_ = 0;    ///< claim-log drain cursor (dynamic mode)
};

}  // namespace hht::verify
