// Verification-layer tests: the differential co-simulation oracle, the
// expected-stream builders (the functional model of each engine), greedy
// shrinking of failing cases, and replay-bundle round-trips. The injected
// off-by-one (HhtConfig::test_flip_element) is the planted bug every layer
// must catch end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>

#include "harness/experiment.h"
#include "sparse/coo.h"
#include "verify/cosim.h"
#include "verify/fuzz.h"
#include "verify/replay.h"
#include "verify/shrink.h"

namespace hht::verify {
namespace {

using sparse::CooMatrix;
using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::SparseVector;

std::uint32_t bitsOf(float v) { return std::bit_cast<std::uint32_t>(v); }

/// A fuzz-style case for `kind` with at least `min_elements` expected
/// deliveries (so tests that flip element N have something to flip).
CosimCase caseWithElements(EngineKind kind, std::uint64_t min_elements) {
  for (std::uint64_t seed = 1;; ++seed) {
    sim::Rng rng(0xCA5E'0000 + seed);
    CosimCase c = randomCase(rng, kind);
    const CosimReport rep = runCosim(c);
    EXPECT_TRUE(rep.ok) << rep.describe();
    if (rep.elements >= min_elements) return c;
  }
}

// ---------------------------------------------------------------------------
// Expected-stream builders: hand-checked functional model
// ---------------------------------------------------------------------------

TEST(ExpectedStream, HandExample) {
  // 2x3 matrix, row 0 = {col1: 2, col2: 7}, row 1 empty.
  CooMatrix coo(2, 3);
  coo.add(0, 1, 2.0f);
  coo.add(0, 2, 7.0f);
  const CsrMatrix m = CsrMatrix::fromCoo(std::move(coo));
  const DenseVector v(std::vector<sparse::Value>{1.0f, 3.0f, 5.0f});
  const SparseVector sv(3, {1}, {4.0f});

  // Gather: v gathered at each stored column, no markers.
  const std::vector<StreamEvent> gather = expectedGatherStream(m, v);
  ASSERT_EQ(gather.size(), 2u);
  EXPECT_EQ(gather[0], (StreamEvent{false, bitsOf(3.0f)}));
  EXPECT_EQ(gather[1], (StreamEvent{false, bitsOf(5.0f)}));

  // Variant-1: per index match m_val then v_val; one RowEnd per row,
  // including the empty row 1.
  const std::vector<StreamEvent> v1 = expectedMergeV1Stream(m, sv);
  ASSERT_EQ(v1.size(), 4u);
  EXPECT_EQ(v1[0], (StreamEvent{false, bitsOf(2.0f)}));
  EXPECT_EQ(v1[1], (StreamEvent{false, bitsOf(4.0f)}));
  EXPECT_EQ(v1[2], (StreamEvent{true, 0}));
  EXPECT_EQ(v1[3], (StreamEvent{true, 0}));

  // Variant-2: matched vector value or literal zero per stored non-zero.
  const std::vector<StreamEvent> v2 = expectedStreamV2Stream(m, sv);
  ASSERT_EQ(v2.size(), 2u);
  EXPECT_EQ(v2[0], (StreamEvent{false, bitsOf(4.0f)}));
  EXPECT_EQ(v2[1], (StreamEvent{false, bitsOf(0.0f)}));
}

// ---------------------------------------------------------------------------
// Clean co-simulation: every engine matches its functional model
// ---------------------------------------------------------------------------

TEST(Cosim, AllEnginesMatchTheOracle) {
  const EngineKind kinds[] = {EngineKind::Gather, EngineKind::MergeV1,
                              EngineKind::StreamV2, EngineKind::Hier,
                              EngineKind::Flat};
  for (const EngineKind kind : kinds) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      sim::Rng rng(0xC0'51'00 + 16 * static_cast<std::uint64_t>(kind) + seed);
      const CosimCase c = randomCase(rng, kind);
      const CosimReport rep = runCosim(c);
      EXPECT_TRUE(rep.ok) << engineKindName(kind) << " seed " << seed << ": "
                          << rep.describe();
    }
  }
}

TEST(Cosim, RandomCaseIsDeterministic) {
  sim::Rng a(0xD17E);
  sim::Rng b(0xD17E);
  const CosimCase ca = randomCase(a, EngineKind::MergeV1);
  const CosimCase cb = randomCase(b, EngineKind::MergeV1);
  EXPECT_EQ(ca.m, cb.m);
  EXPECT_EQ(ca.cfg.hht.buffer_len, cb.cfg.hht.buffer_len);
  EXPECT_EQ(ca.cfg.hht.emission_queue, cb.cfg.hht.emission_queue);
  EXPECT_EQ(ca.cfg.memory.sram_latency, cb.cfg.memory.sram_latency);
}

TEST(Cosim, FuzzedEmissionQueueIsAlwaysConstructible) {
  // A 1-deep emission queue deadlocks variant-1 (aligned pairs are reserved
  // atomically); HhtConfig::validate() rejects it and the fuzzer must never
  // draw it.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::Rng rng(seed);
    harness::SystemConfig cfg = harness::defaultConfig();
    randomizeHardware(rng, cfg);
    EXPECT_GE(cfg.hht.emission_queue, 2u);
    EXPECT_NO_THROW(cfg.validate());
  }
  harness::SystemConfig cfg = harness::defaultConfig();
  cfg.hht.emission_queue = 1;
  EXPECT_THROW(cfg.validate(), sim::SimError);
}

// ---------------------------------------------------------------------------
// The planted bug: test_flip_element must be caught, shrunk and replayed
// ---------------------------------------------------------------------------

TEST(Oracle, InjectedFlipIsCaughtAtTheExactElement) {
  CosimCase c = caseWithElements(EngineKind::Gather, 3);
  c.cfg.hht.test_flip_element = 1;
  const CosimReport rep = runCosim(c);
  ASSERT_FALSE(rep.ok);
  ASSERT_TRUE(rep.divergence.has_value()) << rep.describe();
  EXPECT_EQ(rep.divergence->element_index, 1u);
  EXPECT_EQ(rep.divergence->expected_bits ^ rep.divergence->actual_bits, 1u);
  EXPECT_NE(rep.divergence->detail.find("payload"), std::string::npos);
  // The cycle window brackets the divergent delivery.
  EXPECT_LE(rep.divergence->prev_cycle, rep.divergence->cycle);
}

TEST(Oracle, FinalOutputMismatchIsADivergence) {
  DifferentialOracle oracle({});
  const DenseVector actual(std::vector<sparse::Value>{1.0f, 2.0f});
  const DenseVector expected(std::vector<sparse::Value>{1.0f, 3.0f});
  oracle.checkFinal(actual, expected);
  ASSERT_TRUE(oracle.diverged());
  EXPECT_NE(oracle.divergence()->detail.find("y["), std::string::npos);
}

TEST(Shrink, FailingCaseShrinksAndStillFails) {
  CosimCase c = caseWithElements(EngineKind::Gather, 4);
  c.cfg.hht.test_flip_element = 0;  // first delivery is corrupted
  ASSERT_FALSE(runCosim(c).ok);

  const ShrinkResult shrunk = shrinkCase(c);
  EXPECT_GT(shrunk.evals, 0);
  EXPECT_LE(shrunk.final_nnz, shrunk.initial_nnz);
  EXPECT_LE(shrunk.final_rows, shrunk.initial_rows);
  // The contract: whatever the shrink walked to, it never returns a
  // passing case.
  const CosimReport rep = runCosim(shrunk.c);
  EXPECT_FALSE(rep.ok) << rep.describe();
}

TEST(Replay, SnapshotReplayReproducesTheDivergence) {
  CosimCase c = caseWithElements(EngineKind::Gather, 3);
  c.cfg.hht.test_flip_element = 2;

  CosimOptions capture;
  capture.capture_snapshot = true;
  const CosimReport first = runCosim(c, capture);
  ASSERT_FALSE(first.ok);
  ASSERT_TRUE(first.divergence.has_value());
  ASSERT_FALSE(first.cycle0_snapshot.empty());

  CosimOptions restore;
  restore.restore_snapshot = &first.cycle0_snapshot;
  const CosimReport second = runCosim(c, restore);
  ASSERT_FALSE(second.ok);
  ASSERT_TRUE(second.divergence.has_value()) << second.describe();
  EXPECT_EQ(second.divergence->element_index, first.divergence->element_index);
  EXPECT_EQ(second.divergence->cycle, first.divergence->cycle);
}

// ---------------------------------------------------------------------------
// Replay bundles: round-trip and rejection of corrupt files
// ---------------------------------------------------------------------------

TEST(ReplayBundle, RoundTripsThroughDisk) {
  sim::Rng rng(0xB0B0);
  ReplayBundle bundle;
  bundle.c = randomCase(rng, EngineKind::StreamV2);
  bundle.seed = 0x5EED;
  bundle.run_index = 42;
  bundle.failing_element = 7;
  bundle.failing_cycle = 1234;
  bundle.detail = "payload mismatch (test)";
  bundle.cycle0_snapshot = {1, 2, 3, 4};

  const std::string path = ::testing::TempDir() + "/hht_bundle_test.hhtr";
  saveBundle(path, bundle);
  const ReplayBundle loaded = loadBundle(path);
  EXPECT_EQ(loaded.c.kind, bundle.c.kind);
  EXPECT_EQ(loaded.c.m, bundle.c.m);
  EXPECT_EQ(loaded.c.v.size(), bundle.c.v.size());
  EXPECT_EQ(loaded.c.sv.nnz(), bundle.c.sv.nnz());
  EXPECT_EQ(loaded.seed, bundle.seed);
  EXPECT_EQ(loaded.run_index, bundle.run_index);
  EXPECT_EQ(loaded.failing_element, bundle.failing_element);
  EXPECT_EQ(loaded.failing_cycle, bundle.failing_cycle);
  EXPECT_EQ(loaded.detail, bundle.detail);
  EXPECT_EQ(loaded.cycle0_snapshot, bundle.cycle0_snapshot);
  // The loaded case runs under the same configuration fingerprint: a clean
  // case must still pass after the round-trip.
  EXPECT_TRUE(runCosim(loaded.c).ok);
}

TEST(ReplayBundle, CorruptFilesAreRejected) {
  const std::string dir = ::testing::TempDir();
  const auto expectCheckpointError = [](const std::string& path) {
    try {
      loadBundle(path);
      ADD_FAILURE() << path << " loaded";
    } catch (const sim::SimError& e) {
      EXPECT_TRUE(e.kind() == sim::ErrorKind::Checkpoint ||
                  e.kind() == sim::ErrorKind::Verify)
          << e.what();
    }
  };
  EXPECT_THROW(loadBundle(dir + "/does_not_exist.hhtr"), sim::SimError);

  const std::string garbage = dir + "/hht_garbage.hhtr";
  std::ofstream(garbage, std::ios::binary) << "not a bundle at all";
  expectCheckpointError(garbage);

  // A real bundle, truncated and with trailing bytes appended.
  sim::Rng rng(0xBAD);
  ReplayBundle bundle;
  bundle.c = randomCase(rng, EngineKind::Gather);
  const std::string good = dir + "/hht_good.hhtr";
  saveBundle(good, bundle);
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string truncated = dir + "/hht_truncated.hhtr";
  std::ofstream(truncated, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  expectCheckpointError(truncated);
  const std::string trailing = dir + "/hht_trailing.hhtr";
  {
    std::ofstream out(trailing, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "junk";
  }
  expectCheckpointError(trailing);
}

TEST(ReplayBundle, HugeTopologyNodeCountIsRejectedBeforeAllocating) {
  // The embedded SystemConfig's topology-node count sizes a vector on
  // load; a corrupt count must fail as SimError(Checkpoint) before that.
  sim::Rng rng(0xB16);
  ReplayBundle bundle;
  bundle.c = randomCase(rng, EngineKind::Gather);
  bundle.c.cfg.memory.topology.nodes.clear();
  const std::string path = ::testing::TempDir() + "/hht_huge_nodes.hhtr";
  saveBundle(path, bundle);
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());

  // Locate the node count: the config bytes sit verbatim in the bundle,
  // and the count is the first byte that differs once a node is added.
  const auto configBytes = [](const harness::SystemConfig& cfg) {
    sim::StateWriter w;
    harness::writeSystemConfig(w, cfg);
    return w.data();
  };
  const std::vector<std::uint8_t> plain = configBytes(bundle.c.cfg);
  harness::SystemConfig one_node = bundle.c.cfg;
  one_node.memory.topology.nodes.resize(1);
  const std::vector<std::uint8_t> with_node = configBytes(one_node);
  const auto field =
      std::mismatch(plain.begin(), plain.end(), with_node.begin()).first -
      plain.begin();
  const auto at =
      std::search(bytes.begin(), bytes.end(), plain.begin(), plain.end()) -
      bytes.begin();
  ASSERT_LT(static_cast<std::size_t>(at), bytes.size());
  for (int i = 0; i < 4; ++i) bytes[at + field + i] = 0xFF;

  const std::string corrupt = ::testing::TempDir() + "/hht_huge_nodes_bad.hhtr";
  std::ofstream(corrupt, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  try {
    loadBundle(corrupt);
    ADD_FAILURE() << "a bundle with a huge topology-node count loaded";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::ErrorKind::Checkpoint) << e.what();
    EXPECT_NE(std::string(e.what()).find("topology node count"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hht::verify
