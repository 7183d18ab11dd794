#include "verify/replay.h"

#include <fstream>

#include "sparse/coo.h"

namespace hht::verify {

namespace {
// v2: the embedded SystemConfig stream gained mem.work_queue_enabled
// (snapshot v7); v1 bundles would misparse, so the version gate rejects
// them with a structured error instead.
constexpr std::uint32_t kBundleVersion = 2;

void writeCase(sim::StateWriter& w, const CosimCase& c) {
  w.u32(static_cast<std::uint32_t>(c.kind));
  harness::writeSystemConfig(w, c.cfg);
  w.tag("CSRM");
  w.u32(c.m.numRows()).u32(c.m.numCols()).u64(c.m.nnz());
  const sparse::CooMatrix coo = c.m.toCoo();  // keep alive across the loop
  for (const sparse::Triplet& t : coo.entries()) {
    w.u32(t.row).u32(t.col).f32(t.value);
  }
  w.tag("DVEC");
  w.u32(c.v.size());
  for (sparse::Value val : c.v.values()) w.f32(val);
  w.tag("SVEC");
  w.u32(c.sv.size()).u32(c.sv.nnz());
  for (sim::Index i : c.sv.indices()) w.u32(i);
  for (sparse::Value val : c.sv.vals()) w.f32(val);
}

CosimCase readCase(sim::StateReader& r) {
  CosimCase c;
  const std::uint32_t kind = r.u32();
  if (kind > static_cast<std::uint32_t>(EngineKind::Flat)) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "replay",
                        "bundle names engine kind " + std::to_string(kind) +
                            ", which this build does not know (offset " +
                            std::to_string(r.offset()) + ")");
  }
  c.kind = static_cast<EngineKind>(kind);
  c.cfg = harness::readSystemConfig(r);
  r.expectTag("CSRM");
  const sim::Index num_rows = r.u32();
  const sim::Index num_cols = r.u32();
  const std::uint64_t nnz = r.u64();
  r.checkCount(nnz, 12, "CSRM triplet");  // row + col + value
  sparse::CooMatrix coo(num_rows, num_cols);
  for (std::uint64_t i = 0; i < nnz; ++i) {
    const std::size_t at = r.offset();
    const sim::Index row = r.u32();
    const sim::Index col = r.u32();
    if (row >= num_rows || col >= num_cols) {
      throw sim::SimError(
          sim::ErrorKind::Checkpoint, "replay",
          "corrupt bundle: triplet " + std::to_string(i) + " at offset " +
              std::to_string(at) + " names (" + std::to_string(row) + ", " +
              std::to_string(col) + ") outside the declared " +
              std::to_string(num_rows) + "x" + std::to_string(num_cols) +
              " matrix");
    }
    coo.add(row, col, r.f32());
  }
  c.m = sparse::CsrMatrix::fromCoo(std::move(coo));
  r.expectTag("DVEC");
  const std::uint32_t dv_len = r.u32();
  r.checkCount(dv_len, 4, "DVEC element");
  std::vector<sparse::Value> dv(dv_len);
  for (auto& val : dv) val = r.f32();
  c.v = sparse::DenseVector(std::move(dv));
  r.expectTag("SVEC");
  const sim::Index sv_size = r.u32();
  const std::uint32_t sv_nnz = r.u32();
  r.checkCount(sv_nnz, 8, "SVEC entry");  // index + value
  std::vector<sim::Index> idx(sv_nnz);
  for (auto& i : idx) {
    const std::size_t at = r.offset();
    i = r.u32();
    if (i >= sv_size) {
      throw sim::SimError(sim::ErrorKind::Checkpoint, "replay",
                          "corrupt bundle: SVEC index " + std::to_string(i) +
                              " at offset " + std::to_string(at) +
                              " >= declared vector size " +
                              std::to_string(sv_size));
    }
  }
  std::vector<sparse::Value> vals(idx.size());
  for (auto& val : vals) val = r.f32();
  c.sv = sparse::SparseVector(sv_size, std::move(idx), std::move(vals));
  return c;
}
}  // namespace

void saveBundle(const std::string& path, const ReplayBundle& bundle) {
  sim::StateWriter w;
  w.tag("HHTR");
  w.u32(kBundleVersion);
  writeCase(w, bundle.c);
  w.u64(bundle.seed).u64(bundle.run_index);
  w.u64(bundle.failing_element).u64(bundle.failing_cycle);
  w.str(bundle.detail);
  w.bytes(bundle.cycle0_snapshot.data(), bundle.cycle0_snapshot.size());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw sim::SimError(sim::ErrorKind::Verify, "replay",
                        "cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  if (!out) {
    throw sim::SimError(sim::ErrorKind::Verify, "replay",
                        "short write to '" + path + "'");
  }
}

ReplayBundle loadBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw sim::SimError(sim::ErrorKind::Verify, "replay",
                        "cannot open '" + path + "'");
  }
  std::vector<std::uint8_t> buf(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  sim::StateReader r(buf);
  r.expectTag("HHTR");
  const std::uint32_t version = r.u32();
  if (version != kBundleVersion) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "replay",
                        "bundle version " + std::to_string(version) +
                            " != supported version " +
                            std::to_string(kBundleVersion));
  }
  ReplayBundle bundle;
  bundle.c = readCase(r);
  bundle.seed = r.u64();
  bundle.run_index = r.u64();
  bundle.failing_element = r.u64();
  bundle.failing_cycle = r.u64();
  bundle.detail = r.str();
  bundle.cycle0_snapshot = r.bytes();
  if (!r.atEnd()) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "replay",
                        "trailing bytes after bundle payload");
  }
  return bundle;
}

}  // namespace hht::verify
