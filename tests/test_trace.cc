// Golden-trace regression suite for the observability layer (DESIGN.md
// §12): the event stream of one small fixed-seed workload per engine is
// checked byte-for-byte against a checked-in golden CSV, must be identical
// across reruns, --jobs values and a checkpoint/restore resume, and the
// Perfetto export must be schema-valid JSON. Regenerate goldens with
//   HHT_REGEN_GOLDEN=1 ./test_trace
// after an intentional schema or timing change (and review the diff!).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "kernels/kernels.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sparse/hier_bitmap.h"
#include "verify/oracle.h"
#include "workload/synthetic.h"

#ifndef HHT_GOLDEN_DIR
#error "HHT_GOLDEN_DIR must point at the checked-in golden trace directory"
#endif

namespace hht {
namespace {

using harness::RunResult;
using harness::System;
using harness::SystemConfig;
using sim::Cycle;

// ---- traced-run scaffolding ----

struct TraceRun {
  RunResult result;
  std::vector<obs::TraceEvent> events;
  std::string csv;
  std::uint64_t dropped = 0;
};

/// Run `body(cfg_with_sink)` against a fresh sink and capture everything a
/// test might compare.
template <typename Body>
TraceRun traced(SystemConfig cfg, Body&& body,
                std::uint32_t mask = obs::kAllCategories) {
  obs::TraceSink sink(obs::TraceSink::kDefaultCapacity, mask);
  cfg.trace_sink = &sink;
  TraceRun out;
  out.result = body(cfg);
  out.events = sink.events();
  out.dropped = sink.dropped();
  std::ostringstream os;
  obs::writeCsvTrace(os, sink);
  out.csv = os.str();
  return out;
}

/// The five engine workloads, small enough that the golden CSVs stay
/// reviewable. All derive from one fixed seed; goldens encode the exact
/// cycle-level schedule, so any timing change shows up as a diff.
struct Workloads {
  sparse::CsrMatrix m;
  sparse::DenseVector v;
  sparse::SparseVector sv;
  sparse::HierBitmapMatrix hm;
};

Workloads workloads() {
  sim::Rng rng(0x7ACE'5EED);
  Workloads w;
  w.m = workload::randomCsr(rng, 8, 8, 0.4);
  w.v = workload::randomDenseVector(rng, 8);
  w.sv = workload::randomSparseVector(rng, 8, 0.5);
  w.hm = sparse::HierBitmapMatrix::fromDense(w.m.toDense());
  return w;
}

RunResult runEngine(const std::string& name, const SystemConfig& cfg,
                    const Workloads& w) {
  if (name == "gather") return harness::runSpmvHht(cfg, w.m, w.v, false);
  if (name == "merge_v1") return harness::runSpmspvHht(cfg, w.m, w.sv, 1);
  if (name == "stream_v2") return harness::runSpmspvHht(cfg, w.m, w.sv, 2);
  if (name == "hier") return harness::runHierHht(cfg, w.hm, w.v);
  if (name == "micro") return harness::runSpmvProgHht(cfg, w.m, w.v, false);
  throw std::logic_error("unknown engine " + name);
}

const char* const kEngines[] = {"gather", "merge_v1", "stream_v2", "hier",
                                "micro"};

void checkGolden(const std::string& name, const std::string& csv) {
  const std::string path = std::string(HHT_GOLDEN_DIR) + "/" + name + ".csv";
  if (std::getenv("HHT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << csv;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — regenerate with HHT_REGEN_GOLDEN=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), csv)
      << name << " trace diverged from its golden; if the timing change is "
      << "intentional, regenerate with HHT_REGEN_GOLDEN=1 and review";
}

TEST(GoldenTrace, EveryEngineMatchesItsGoldenAndIsRerunStable) {
  const Workloads w = workloads();
  for (const char* engine : kEngines) {
    const SystemConfig cfg = harness::defaultConfig();
    const TraceRun a =
        traced(cfg, [&](const SystemConfig& c) { return runEngine(engine, c, w); });
    const TraceRun b =
        traced(cfg, [&](const SystemConfig& c) { return runEngine(engine, c, w); });
    EXPECT_EQ(a.csv, b.csv) << engine << ": trace not rerun-deterministic";
    EXPECT_EQ(a.dropped, 0u) << engine << ": golden workload overflowed sink";
    EXPECT_FALSE(a.events.empty()) << engine;
    checkGolden(engine, a.csv);
  }
}

TEST(GoldenTrace, TracesAreJobsInvariant) {
  // Each sweep task produces a full traced run; the CSV bytes must not
  // depend on how many host threads executed the sweep.
  const Workloads w = workloads();
  const auto task = [&](std::size_t i) {
    const SystemConfig cfg = harness::defaultConfig();
    return traced(cfg, [&](const SystemConfig& c) {
             return runEngine(kEngines[i], c, w);
           }).csv;
  };
  const auto serial = harness::SweepRunner(1).run(std::size(kEngines), task);
  const auto pooled = harness::SweepRunner(3).run(std::size(kEngines), task);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << kEngines[i];
  }
}

// ---- checkpoint/restore: the resumed trace is a suffix of the full one ----

/// Observer that checkpoints the running System once, at cycle `at`.
class CheckpointAt : public harness::RunObserver {
 public:
  CheckpointAt(const isa::Program& program, Cycle at)
      : program_(&program), at_(at) {}
  void onCycle(harness::MultiTileSystem& sys, Cycle now) override {
    if (now == at_ && snapshot_.empty()) {
      snapshot_ = static_cast<System&>(sys).checkpoint(*program_, now + 1);
    }
  }
  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }

 private:
  const isa::Program* program_;
  Cycle at_;
  std::vector<std::uint8_t> snapshot_;
};

/// Expand the transition-coalesced kPhase events of `events` into the
/// per-cycle bucket each component occupied over [start, horizon). kPhase
/// is the only *stateful* event kind — a resumed run re-announces its
/// first bucket rather than replaying the pre-checkpoint transition — so
/// resume comparisons normalize it to per-cycle values; every other kind
/// is a pure function of that tick's actions and must match byte-for-byte.
std::map<int, std::vector<std::uint8_t>> expandPhases(
    const std::vector<obs::TraceEvent>& events, Cycle start, Cycle horizon) {
  std::map<int, std::vector<std::pair<Cycle, std::uint8_t>>> transitions;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind != obs::EventKind::kPhase) continue;
    transitions[static_cast<int>(ev.component)].emplace_back(
        ev.cycle, static_cast<std::uint8_t>(ev.a));
  }
  std::map<int, std::vector<std::uint8_t>> per_cycle;
  for (const auto& [comp, trans] : transitions) {
    std::vector<std::uint8_t>& row = per_cycle[comp];
    row.reserve(horizon - start);
    std::size_t next = 0;
    std::uint8_t cur = obs::kNoBucket;
    for (Cycle c = 0; c < horizon; ++c) {
      while (next < trans.size() && trans[next].first <= c) {
        cur = trans[next++].second;
      }
      if (c >= start) row.push_back(cur);
    }
  }
  return per_cycle;
}

std::vector<obs::TraceEvent> statelessSince(
    const std::vector<obs::TraceEvent>& events, Cycle start) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind != obs::EventKind::kPhase && ev.cycle >= start) {
      out.push_back(ev);
    }
  }
  return out;
}

bool sameEvent(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.cycle == b.cycle && a.category == b.category &&
         a.component == b.component && a.kind == b.kind && a.a == b.a &&
         a.b == b.b;
}

TEST(GoldenTrace, ResumedRunTraceMatchesTheFullRunSuffix) {
  // Stall-heavy scalar SpMV (long enough to checkpoint mid-run).
  SystemConfig cfg = harness::defaultConfig();
  cfg.memory.sram_latency = 16;
  sim::Rng rng(0x7ACE'0002);
  const sparse::CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.4);
  const sparse::DenseVector v = workload::randomDenseVector(rng, 16);

  // Full traced run, checkpointing half-way through.
  obs::TraceSink full_sink;
  SystemConfig full_cfg = cfg;
  full_cfg.trace_sink = &full_sink;
  System full_sys(full_cfg);
  const kernels::SpmvLayout layout = harness::loadSpmv(full_sys, m, v);
  const isa::Program program =
      kernels::spmvScalarHht(layout, cfg.memory.mmio_base);

  // Probe run to learn the total length, then the real run with a
  // mid-point checkpoint observer.
  const RunResult probe = traced(cfg, [&](const SystemConfig& c) {
                            return harness::runSpmvHht(c, m, v, false);
                          }).result;
  ASSERT_GT(probe.cycles, 100u);
  CheckpointAt observer(program, probe.cycles / 2);
  const RunResult full = full_sys.run(program, layout.y, layout.num_rows,
                                      500'000'000, nullptr, &observer);
  ASSERT_FALSE(observer.snapshot().empty());
  const Cycle horizon = full.cycles;

  // Fresh System + fresh sink, restored from the snapshot.
  obs::TraceSink res_sink;
  SystemConfig res_cfg = cfg;
  res_cfg.trace_sink = &res_sink;
  System res_sys(res_cfg);
  const Cycle start = res_sys.restore(observer.snapshot(), program);
  const RunResult resumed =
      res_sys.resume(program, layout.y, layout.num_rows, start);
  EXPECT_EQ(resumed.cycles, full.cycles);
  ASSERT_EQ(resumed.y.size(), full.y.size());
  for (sim::Index i = 0; i < full.y.size(); ++i) {
    EXPECT_EQ(resumed.y.at(i), full.y.at(i)) << "y[" << i << "]";
  }

  // Stateless kinds: exact byte-suffix.
  const auto full_tail = statelessSince(full_sink.events(), start);
  const auto res_tail = statelessSince(res_sink.events(), start);
  ASSERT_EQ(full_tail.size(), res_tail.size());
  for (std::size_t i = 0; i < full_tail.size(); ++i) {
    EXPECT_TRUE(sameEvent(full_tail[i], res_tail[i])) << "event " << i;
  }

  // kPhase: identical per-cycle expansion over the resumed region.
  const auto full_phases = expandPhases(full_sink.events(), start, horizon);
  const auto res_phases = expandPhases(res_sink.events(), start, horizon);
  ASSERT_EQ(full_phases.size(), res_phases.size());
  for (const auto& [comp, row] : full_phases) {
    const auto it = res_phases.find(comp);
    ASSERT_NE(it, res_phases.end()) << "component " << comp;
    EXPECT_EQ(it->second, row) << "component " << comp;
  }
}

// ---- Perfetto JSON schema validation (hand-rolled parser, no deps) ----

struct JValue {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::map<std::string, JValue> obj;

  bool has(const std::string& key) const { return obj.count(key) != 0; }
  const JValue& at(const std::string& key) const { return obj.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JValue parse() {
    JValue v = value();
    ws();
    if (i_ != s_.size()) fail("trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(i_) + ": " + why);
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        const char esc = s_[i_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': i_ += 4; out += '?'; break;  // escaped, not decoded
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    ++i_;  // closing quote
    return out;
  }
  JValue value() {
    ws();
    JValue v;
    const char c = peek();
    if (c == '{') {
      v.kind = JValue::Obj;
      ++i_;
      ws();
      if (!consume('}')) {
        do {
          ws();
          const std::string key = string();
          ws();
          expect(':');
          v.obj[key] = value();
          ws();
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      v.kind = JValue::Arr;
      ++i_;
      ws();
      if (!consume(']')) {
        do {
          v.arr.push_back(value());
          ws();
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = JValue::Str;
      v.str = string();
    } else if (c == 't' || c == 'f') {
      v.kind = JValue::Bool;
      v.boolean = c == 't';
      i_ += v.boolean ? 4 : 5;
    } else if (c == 'n') {
      v.kind = JValue::Null;
      i_ += 4;
    } else {
      v.kind = JValue::Num;
      std::size_t end = i_;
      while (end < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[end])) ||
              s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
              s_[end] == 'e' || s_[end] == 'E')) {
        ++end;
      }
      if (end == i_) fail("expected a number");
      v.num = std::strtod(s_.substr(i_, end - i_).c_str(), nullptr);
      i_ = end;
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(GoldenTrace, PerfettoExportIsSchemaValidJson) {
  const Workloads w = workloads();
  obs::TraceSink sink;
  SystemConfig cfg = harness::defaultConfig();
  cfg.trace_sink = &sink;
  harness::runSpmvHht(cfg, w.m, w.v, true);
  std::ostringstream os;
  obs::writePerfettoTrace(os, sink);

  const JValue root = JsonParser(os.str()).parse();
  ASSERT_EQ(root.kind, JValue::Obj);
  ASSERT_TRUE(root.has("traceEvents"));
  ASSERT_TRUE(root.has("displayTimeUnit"));
  ASSERT_TRUE(root.has("otherData"));
  EXPECT_TRUE(root.at("otherData").has("dropped_events"));

  const JValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JValue::Arr);
  ASSERT_FALSE(events.arr.empty());
  std::size_t metadata = 0, spans = 0, instants = 0;
  for (const JValue& ev : events.arr) {
    ASSERT_EQ(ev.kind, JValue::Obj);
    ASSERT_TRUE(ev.has("ph"));
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("tid"));
    ASSERT_TRUE(ev.has("name"));
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").str, "thread_name");
      EXPECT_TRUE(ev.at("args").has("name"));
    } else if (ph == "X") {
      ++spans;
      ASSERT_TRUE(ev.has("ts"));
      ASSERT_TRUE(ev.has("dur"));
      EXPECT_GE(ev.at("dur").num, 1.0);
      EXPECT_EQ(ev.at("cat").str, "phase");
    } else if (ph == "i") {
      ++instants;
      ASSERT_TRUE(ev.has("ts"));
      ASSERT_TRUE(ev.has("args"));
      EXPECT_TRUE(ev.at("args").has("a"));
      EXPECT_TRUE(ev.at("args").has("b"));
    } else {
      FAIL() << "unexpected phase '" << ph << "'";
    }
  }
  EXPECT_EQ(metadata, static_cast<std::size_t>(obs::kNumComponents));
  EXPECT_GT(spans, 0u);
  EXPECT_GT(instants, 0u);
}

// ---- observer unification: oracle tap + trace sink on one run ----

TEST(GoldenTrace, OracleTapAndTraceSinkCoexist) {
  const Workloads w = workloads();
  obs::TraceSink sink;
  SystemConfig cfg = harness::defaultConfig();
  cfg.trace_sink = &sink;
  System sys(cfg);
  const kernels::SpmvLayout layout = harness::loadSpmv(sys, w.m, w.v);
  const isa::Program program =
      kernels::spmvScalarHht(layout, cfg.memory.mmio_base);

  verify::DifferentialOracle oracle(verify::expectedGatherStream(w.m, w.v));
  ASSERT_NE(sys.asicHht(), nullptr);
  sys.asicHht()->addStreamTap(&oracle);
  sys.addObserver(&oracle);
  const RunResult res = sys.run(program, layout.y, layout.num_rows);
  sys.removeObserver(&oracle);
  sys.asicHht()->removeStreamTap(&oracle);

  EXPECT_FALSE(oracle.diverged());
  EXPECT_EQ(sys.hostSkippedCycles(), 0u);

  // Every FE delivery was seen once by the tap AND once by the sink; no
  // double-counting from carrying both observers.
  std::uint64_t fifo_pops = 0;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.kind == obs::EventKind::kFifoPop) ++fifo_pops;
  }
  EXPECT_EQ(fifo_pops, oracle.delivered());
  EXPECT_EQ(fifo_pops, res.stats.value("hht.fifo_pops"));

  // The untraced, untapped run is unchanged by having carried observers.
  const RunResult plain = harness::runSpmvHht(harness::defaultConfig(), w.m,
                                              w.v, false);
  EXPECT_EQ(plain.cycles, res.cycles);
  EXPECT_EQ(plain.stats.all(), res.stats.all());
}

// ---- sink mechanics ----

TEST(GoldenTrace, CategoryMaskFiltersEmission) {
  const Workloads w = workloads();
  const TraceRun cpu_only = traced(
      harness::defaultConfig(),
      [&](const SystemConfig& c) { return harness::runSpmvHht(c, w.m, w.v, false); },
      obs::bit(obs::Category::kCpu));
  ASSERT_FALSE(cpu_only.events.empty());
  for (const obs::TraceEvent& ev : cpu_only.events) {
    EXPECT_EQ(ev.category, obs::bit(obs::Category::kCpu))
        << obs::kindName(ev.kind);
  }

  obs::TraceSink sink(1024, obs::bit(obs::Category::kMem));
  EXPECT_TRUE(sink.enabled(obs::Category::kMem));
  EXPECT_FALSE(sink.enabled(obs::Category::kCpu));
  EXPECT_FALSE(sink.enabled(obs::Category::kFifo));
}

TEST(GoldenTrace, RingBufferKeepsNewestAndCountsDrops) {
  obs::TraceSink sink(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    sink.emit(i, obs::Category::kSystem, obs::Component::kSystem,
              obs::EventKind::kRetire, i);
  }
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.dropped(), 12u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i) << "oldest events must be evicted first";
  }
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

}  // namespace
}  // namespace hht
