// Shared pieces of the repository benchmark: options, host timing, the span
// recorder, failure accounting, the benchmark's own reference kernels and
// the stat folds. Everything here is independent of the simulator's
// internals: the reference kernels re-derive every expected output from the
// CSR arrays, so a fault in src/sparse cannot hide a fault in the machine.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/sparse_vector.h"

namespace perfbench {

namespace sparse = hht::sparse;
using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Input sizes: `kFull` is the measured benchmark, `kTiny` the self-test.
enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Self-test hook: check a copy of the first result with one bit flipped,
  /// which must be reported as a failed operation.
  bool corrupt = false;
  std::string spans_path;  ///< where a traced run writes its spans
};

/// Metric name -> value; the printer attaches the units.
using Metrics = std::map<std::string, double>;

/// Operations attempted and failed over the whole run. An operation is one
/// simulation (a kernel run or a multi-tile run) or one served request.
class Tally {
 public:
  void record(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  void merge(const Tally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& m : other.messages_) {
      if (messages_.size() < 8) messages_.push_back(m);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ---- spans -----------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;   ///< serve request id, 0 = none
};

/// In-memory span recorder; written out once at the end of a traced run.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  std::int32_t open(std::string name, std::uint64_t request) {
    Span s;
    s.name = std::move(name);
    s.start_ns = nowNs();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = nowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time covered by child spans
  };
  /// Per-name count, total time and self time.
  std::map<std::string, Totals> totals() const;
  /// Self time of every span called `name`, summed.
  double selfSeconds(const std::string& name) const;

  /// Write every span as JSON; false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one layer call; a null recorder records nothing, so
/// untraced runs pay one branch.
class Scope {
 public:
  Scope(Spans* spans, const char* name, std::uint64_t request = 0)
      : spans_(spans), id_(spans ? spans->open(name, request) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::int32_t id_;
};

// ---- the benchmark's own reference -----------------------------------------

/// y = M v by exact integer accumulation over the CSR arrays. Operands must
/// be small integers (workload::ValueDist::kSmallIntegers) and every sum
/// below 2^24, so the float result is exact whatever the machine's
/// accumulation order; throws std::runtime_error otherwise.
sparse::DenseVector exactSpmv(const sparse::CsrMatrix& m,
                              const sparse::DenseVector& v);
/// y = M v for a sparse v, same exactness contract as exactSpmv.
sparse::DenseVector exactSpmspv(const sparse::CsrMatrix& m,
                                const sparse::SparseVector& v);

/// Bit-for-bit equality of two vectors.
bool sameBits(const sparse::DenseVector& a, const sparse::DenseVector& b);

/// FNV-1a over the little-endian bytes of each float's bit pattern — the
/// result fingerprint serve::Completion::y_hash is defined to carry.
std::uint64_t fnv1a(const sparse::DenseVector& y);

// ---- stats -----------------------------------------------------------------

/// Sum a multi-tile run's per-tile counters under their tile-0 names
/// ("t3.cpu.retired" -> "cpu.retired", "mem.t3.hht.grants" ->
/// "mem.hht.grants"). Single-tile stats pass through unchanged.
std::map<std::string, std::uint64_t> foldTiles(const hht::sim::StatSet& s);

/// The grant-accounting property: every shared-level grant went to a CPU
/// or an HHT port. Returns a message when it does not hold.
std::optional<std::string> checkGrants(
    const std::map<std::string, std::uint64_t>& folded);

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
std::uint64_t percentile(std::vector<std::uint64_t> v, double q);

double median(std::vector<double> v);

/// Peak resident set of this process in MB.
double peakRssMb();

}  // namespace perfbench
