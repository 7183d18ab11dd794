// serve_faults: serve::Server with 3 tiles and fault injection on, fed an
// open-loop stream of 28x28 SpMV/SpMSpV requests paced at one arrival
// every kGap simulated cycles. The admission queue holds the whole stream
// and requests carry no deadline, so every request must be served.
//
// Timed rounds serve a short stream on a fresh Server and time each
// drain(1) batch. Untimed, once per run: a long stream for the latency
// percentiles and the serve counters, and the knee search over offered
// rates on streams of the same shape (Sizes below).
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "serve/server.h"
#include "sparse/reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = hht::serve;
using hht::sim::Cycle;

constexpr std::uint32_t kTiles = 3;
constexpr std::uint32_t kSize = 28;
constexpr double kFaultRate = 2000e-6;  ///< 2000 ppm, shaped as serve_campaign
constexpr Cycle kGap = 30'000;          ///< 33.3 requests per Mcycle
/// Latency limit behind knee_rate, on Served::worst, in cycles.
constexpr Cycle kLatencyLimit = 1'000'000;
/// Knee-search grid: offered gaps kGap / kKneeStep^k, k = 0..knee_steps.
constexpr double kKneeStep = 1.06;
/// The knee is the median over this many independent streams: near
/// saturation one stream's p99 hangs on its worst fault cluster.
constexpr std::size_t kKneeStreams = 6;

struct Sizes {
  std::uint32_t timed_requests;    ///< one timed round
  std::uint32_t latency_requests;  ///< p50 / p99 at the nominal rate
  std::uint32_t knee_requests;     ///< each knee-search stream
  int knee_steps;
};

Sizes sizes(Scale scale) {
  if (scale == Scale::kTiny) return {6, 24, 24, 4};
  return {200, 4800, 2400, 32};
}

/// Host threads per drain. Timed rounds run a batch's attempts serially so
/// host time is one thread's; the nominal-rate stream uses one per tile;
/// the knee streams run kKneeThreads at a time, one thread each.
constexpr unsigned kTimedJobs = 1;
constexpr unsigned kLatencyJobs = kTiles;
constexpr unsigned kKneeJobs = 1;
constexpr unsigned kKneeThreads = kTiles;

serve::ServerConfig serverConfig(std::uint64_t seed, std::uint32_t queue,
                                 unsigned jobs) {
  serve::ServerConfig cfg;
  cfg.system = harness::defaultConfig();
  hht::sim::FaultConfig& f = cfg.system.faults;
  f.enabled = true;
  f.seed = inputSeed(seed, 3000);
  f.sram_read_flip_rate = kFaultRate;
  f.drop_rate = kFaultRate;
  f.delay_rate = kFaultRate;
  f.fifo_corrupt_rate = kFaultRate / 8.0;
  f.mmr_glitch_rate = kFaultRate / 64.0;
  cfg.num_tiles = kTiles;
  cfg.jobs = jobs;
  cfg.queue_capacity = queue;
  return cfg;
}

/// Pace `stream` at one arrival every `gap` cycles.
void pace(std::vector<serve::Request>& stream, Cycle gap) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].arrival_cycle = static_cast<Cycle>(i) * gap;
  }
}

/// Request stream `index` of a run: ids and operand seeds from the
/// workload generator, SpMV and SpMSpV alternating (so every stream has
/// the same mix), paced at one arrival every `gap` cycles. Stream 0 is the
/// timed and the nominal-rate stream (ids from 1); other indices get their
/// own operands and ids, hence their own fault draws.
std::vector<serve::Request> makeStream(std::uint64_t seed, std::uint64_t index,
                                       std::uint32_t count, Cycle gap,
                                       Spans* spans) {
  Scope s(spans, "workload.gen");
  serve::StreamConfig sc;
  sc.count = count;
  sc.size = kSize;
  sc.first_id = 1 + index * 1'000'000;
  std::vector<serve::Request> stream =
      serve::randomRequestStream(inputSeed(seed, 2000 + index), sc);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].kind = i % 2 == 0 ? serve::Kind::kSpmv : serve::Kind::kSpmspv;
  }
  pace(stream, gap);
  return stream;
}

sparse::DenseVector ownReference(const serve::Request& r,
                                 const serve::Operands& ops) {
  return r.kind == serve::Kind::kSpmv ? exactSpmv(ops.m, ops.v)
                                      : exactSpmspv(ops.m, ops.sv);
}

/// Expected y hash per request id, from the benchmark's own reference over
/// serve::materialize's operands.
std::unordered_map<std::uint64_t, std::uint64_t> expectedHashes(
    const std::vector<serve::Request>& stream, std::uint64_t* nnz,
    Spans* spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> out;
  for (const serve::Request& r : stream) {
    const serve::Operands ops = [&] {
      Scope s(spans, "workload.gen", r.id);
      return serve::materialize(r);
    }();
    if (nnz != nullptr) *nnz += ops.m.nnz();
    Scope s(spans, "bench.reference", r.id);
    out[r.id] = fnv1a(ownReference(r, ops));
  }
  return out;
}

/// Server built and fed with the whole stream; rejections are failures.
std::unique_ptr<serve::Server> submitAll(
    const serve::ServerConfig& cfg, const std::vector<serve::Request>& stream,
    Tally& tally, Spans* spans) {
  auto server = std::make_unique<serve::Server>(cfg);
  for (const serve::Request& r : stream) {
    Scope s(spans, "serve.submit", r.id);
    if (const auto rej = server->submit(r)) {
      tally.record(false, "request " + std::to_string(r.id) +
                              " rejected at submit: " + rej->reason);
    }
  }
  return server;
}

/// Per-request checks after a drain: exactly one terminal outcome, served
/// (neither shed, late nor failed), y hash equal to the own reference's.
/// One operation per submitted request.
void checkCompletions(const serve::Server& server,
                      const std::vector<serve::Request>& stream,
                      const std::unordered_map<std::uint64_t, std::uint64_t>&
                          expect,
                      bool corrupt, Tally& tally) {
  std::unordered_map<std::uint64_t, const serve::Completion*> seen;
  std::unordered_map<std::uint64_t, int> count;
  for (const serve::Completion& c : server.completions()) {
    ++count[c.id];
    seen[c.id] = &c;
  }
  bool corrupted = false;
  for (const serve::Request& r : stream) {
    const std::string who = "request " + std::to_string(r.id) + ": ";
    if (count[r.id] != 1) {
      tally.record(false, who + std::to_string(count[r.id]) +
                              " terminal outcomes");
      continue;
    }
    const serve::Completion& c = *seen[r.id];
    if (c.outcome != serve::Outcome::kOk &&
        c.outcome != serve::Outcome::kDegraded) {
      tally.record(false, who + "outcome " + serve::outcomeName(c.outcome) +
                              " " + c.error);
      continue;
    }
    std::uint64_t hash = c.y_hash;
    if (corrupt && !corrupted) {
      hash ^= 1u;  // a corrupted copy of the first result
      corrupted = true;
    }
    tally.record(hash == expect.at(r.id), who + "y hash differs from the "
                                                "reference");
  }
}

struct Served {
  Cycle final_cycle = 0;
  Cycle p50 = 0;
  Cycle p99 = 0;
  /// The statistic the latency limit applies to: the larger of p99 and
  /// the drain tail. A backlog that grows shows as a drain that outlasts
  /// the last arrival, even while the percentile still passes.
  Cycle worst = 0;
  serve::ServerStats stats;
  std::uint64_t attempts = 0;
};

/// Serve a whole stream untimed and summarise its latencies.
Served serveUntimed(std::uint64_t seed,
                    const std::vector<serve::Request>& stream,
                    const std::unordered_map<std::uint64_t, std::uint64_t>&
                        expect,
                    unsigned jobs, Tally& tally) {
  const auto cfg =
      serverConfig(seed, static_cast<std::uint32_t>(stream.size()), jobs);
  const auto server = submitAll(cfg, stream, tally, nullptr);
  server->drain();
  checkCompletions(*server, stream, expect, false, tally);
  Served out;
  std::vector<std::uint64_t> latency;
  for (const serve::Completion& c : server->completions()) {
    if (serve::served(c.outcome)) latency.push_back(c.latency_cycles);
    out.attempts += c.attempts;
  }
  out.stats = server->stats();
  out.final_cycle = server->now();
  out.p50 = percentile(latency, 0.50);
  out.p99 = percentile(latency, 0.99);
  out.worst = std::max(out.p99, out.final_cycle - stream.back().arrival_cycle);
  return out;
}

/// Highest offered rate (requests per Mcycle) at which `stream` meets the
/// latency limit. Bisection on the grid brackets the crossing between the
/// last gap that meets the limit and the first that misses it; the nominal
/// gap (k = 0, whose Served::worst the nominal-rate stream gave) is taken
/// to meet it. Log-linear interpolation of Served::worst between the two
/// then places the rate where it equals the limit.
double kneeRate(std::uint64_t seed, Cycle nominal_worst,
                std::vector<serve::Request> stream, int steps, Tally& tally) {
  const auto gapAt = [](int k) {
    return static_cast<Cycle>(
        std::llround(static_cast<double>(kGap) / std::pow(kKneeStep, k)));
  };
  const auto rate = [&](int k) { return 1e6 / static_cast<double>(gapAt(k)); };
  if (nominal_worst > kLatencyLimit) return 0.0;
  const auto expect = expectedHashes(stream, nullptr, nullptr);
  int lo = 0;
  Cycle lo_worst = nominal_worst;
  int hi = steps + 1;  // taken to miss the limit, never served
  Cycle hi_worst = 0;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    pace(stream, gapAt(mid));
    const Cycle worst = serveUntimed(seed, stream, expect, kKneeJobs, tally).worst;
    (worst <= kLatencyLimit ? lo : hi) = mid;
    (worst <= kLatencyLimit ? lo_worst : hi_worst) = worst;
  }
  if (hi_worst == 0) return rate(lo);  // the whole grid meets the limit
  const auto ln = [](Cycle c) { return std::log(static_cast<double>(c)); };
  const double f =
      (ln(kLatencyLimit) - ln(lo_worst)) / (ln(hi_worst) - ln(lo_worst));
  return rate(lo) + f * (rate(hi) - rate(lo));
}

}  // namespace

void runServeWorkload(const Options& opt, Tally& tally, Metrics& out,
                      Spans* spans) {
  const Sizes sz = sizes(opt.scale);
  std::vector<double> setup_s;
  std::vector<double> best;  // fastest host time per batch index
  std::vector<serve::Completion> first;
  std::vector<serve::Request> stream;
  Cycle final_cycle = 0;
  std::uint64_t nnz = 0;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    Scope round_span(spans, "bench.round");
    const auto t0 = Clock::now();
    std::unique_ptr<serve::Server> server;
    std::unordered_map<std::uint64_t, std::uint64_t> expect;
    {
      Scope s(spans, "bench.setup");
      stream = makeStream(opt.seed, 0, sz.timed_requests, kGap, spans);
      nnz = 0;
      expect = expectedHashes(stream, &nnz, spans);
      server = submitAll(serverConfig(opt.seed, sz.timed_requests, kTimedJobs),
                         stream, tally, spans);
    }
    setup_s.push_back(secondsSince(t0));
    std::vector<double> batch_s;
    while (!server->idle()) {
      const auto t = Clock::now();
      {
        Scope s(spans, "serve.drain");
        server->drain(1);
      }
      batch_s.push_back(secondsSince(t));
    }
    Scope check_span(spans, "bench.check");
    checkCompletions(*server, stream, expect, opt.corrupt && rounds == 0,
                     tally);
    if (rounds == 0) {
      first = server->completions();
      final_cycle = server->now();
      best = batch_s;
    } else {
      const auto& again = server->completions();
      bool same = again.size() == first.size() && batch_s.size() == best.size();
      for (std::size_t i = 0; same && i < first.size(); ++i) {
        same = again[i].id == first[i].id &&
               again[i].outcome == first[i].outcome &&
               again[i].attempts == first[i].attempts &&
               again[i].y_hash == first[i].y_hash &&
               again[i].latency_cycles == first[i].latency_cycles;
      }
      tally.record(same, "serve round not deterministic");
      for (std::size_t i = 0; same && i < best.size(); ++i) {
        best[i] = std::min(best[i], batch_s[i]);
      }
    }
    ++rounds;
  } while (secondsSince(start) < opt.seconds);

  out["peak_rss_mb"] = peakRssMb();
  double host_s = 0.0;
  for (const double b : best) host_s += b;
  out["sim_mcps"] = static_cast<double>(final_cycle) / host_s / 1e6;
  out["requests_per_s"] = static_cast<double>(sz.timed_requests) / host_s;
  out["setup_s"] = median(setup_s);

  // Latency at the nominal rate on the long stream.
  const std::vector<serve::Request> long_stream =
      makeStream(opt.seed, 0, sz.latency_requests, kGap, nullptr);
  const Served nominal =
      serveUntimed(opt.seed, long_stream,
                   expectedHashes(long_stream, nullptr, nullptr), kLatencyJobs,
                   tally);
  out["p50_cycles"] = static_cast<double>(nominal.p50);
  out["p99_cycles"] = static_cast<double>(nominal.p99);

  // The knee: the median over independent streams, searched side by side.
  struct Knee {
    double rate = 0.0;
    Tally tally;
  };
  const std::vector<Knee> knees = harness::SweepRunner(kKneeThreads)
      .run(kKneeStreams, [&](std::size_t i) {
        Knee k;
        k.rate = kneeRate(opt.seed, nominal.worst,
                          makeStream(opt.seed, 1 + i, sz.knee_requests, kGap,
                                     nullptr),
                          sz.knee_steps, k.tally);
        return k;
      });
  std::vector<double> rates;
  for (const Knee& k : knees) {
    rates.push_back(k.rate);
    tally.merge(k.tally);
  }
  out["knee_rate"] = median(rates);

  // Each timed request once more through the harness run functions on one
  // fault-free tile: its HHT kernel and the CPU baseline the degraded path
  // runs. Their cycles and stats are the per-path cost of the stream.
  harness::SystemConfig tile = harness::defaultConfig();
  double hht_cycles = 0.0, baseline_cycles = 0.0;
  Folded folded;
  RunFn rep_run;
  harness::RunResult rep_result;
  double rep_s = std::numeric_limits<double>::infinity();
  for (const serve::Request& r : stream) {
    const auto ops = std::make_shared<const serve::Operands>(serve::materialize(r));
    const sparse::DenseVector y = ownReference(r, *ops);
    const bool spmv = r.kind == serve::Kind::kSpmv;
    const RunFn hht_run = [ops, spmv](const harness::SystemConfig& c) {
      return spmv ? harness::runSpmvHht(c, ops->m, ops->v, false)
                  : harness::runSpmspvHht(c, ops->m, ops->sv, 2, false);
    };
    const RunFn base_run = [ops, spmv](const harness::SystemConfig& c) {
      return spmv ? harness::runSpmvBaseline(c, ops->m, ops->v, false)
                  : harness::runSpmspvBaseline(c, ops->m, ops->sv);
    };
    const auto t0 = Clock::now();
    const harness::RunResult h = hht_run(tile);
    const double h_s = secondsSince(t0);
    const harness::RunResult b = base_run(tile);
    for (const harness::RunResult* res : {&h, &b}) {
      const auto f = foldTiles(res->stats);
      const auto grants = checkGrants(f);
      tally.record(sameBits(res->y, y) && !grants,
                   "request " + std::to_string(r.id) + " harness run: " +
                       grants.value_or("y differs from the reference"));
      addStats(folded, f);
    }
    hht_cycles += static_cast<double>(h.cycles);
    baseline_cycles += static_cast<double>(b.cycles);
    if (!rep_run) {
      rep_run = hht_run;
      rep_result = h;
      rep_s = h_s;
    }
  }
  out["hht_cycles"] = hht_cycles;
  out["baseline_cycles"] = baseline_cycles;

  // Per-layer metrics.
  out["workload.nnz"] = static_cast<double>(nnz);
  statLayerMetrics(folded, out);
  const serve::ServerStats& st = nominal.stats;
  out["serve.attempts"] = static_cast<double>(nominal.attempts);
  out["serve.hht_faults"] = static_cast<double>(st.hht_faults);
  out["serve.retries"] = static_cast<double>(st.retries);
  out["serve.degraded"] = static_cast<double>(st.degraded);
  out["serve.probes"] = static_cast<double>(st.probes);
  out["serve.batches"] = static_cast<double>(st.batches);
  out["serve.useful_attempt_ratio"] =
      nominal.attempts == 0 ? 0.0
                            : static_cast<double>(st.served) /
                                  static_cast<double>(nominal.attempts);
  if (spans == nullptr) return;

  const auto per_round = [&](const char* name) {
    return spans->selfSeconds(name) / static_cast<double>(rounds);
  };
  std::vector<double> drain_s;
  for (const Span& s : spans->spans()) {
    if (s.name == "serve.drain") {
      drain_s.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  out["workload.gen_s"] = per_round("workload.gen");
  out["serve.batch_ms"] = median(drain_s) * 1e3;
  // The server's calls into the harness happen inside drain.
  out["harness.run_s"] = per_round("serve.drain");
  out["harness.ns_per_cycle"] =
      out["harness.run_s"] / static_cast<double>(final_cycle) * 1e9;

  // The per-attempt operand and acceptance-check work, timed apart: once
  // per attempt the timed stream's first round made.
  for (const serve::Completion& c : first) {
    const serve::Request& r = stream.at(static_cast<std::size_t>(c.id - 1));
    for (std::uint32_t a = 0; a < c.attempts; ++a) {
      const serve::Operands ops = [&] {
        Scope s(spans, "serve.materialize", r.id);
        return serve::materialize(r);
      }();
      Scope s(spans, "sparse.reference", r.id);
      const sparse::DenseVector y = r.kind == serve::Kind::kSpmv
                                        ? hht::sparse::spmvCsr(ops.m, ops.v)
                                        : hht::sparse::spmspvMerge(ops.m, ops.sv);
      tally.record(fnv1a(y) == c.y_hash, "sparse:: reference differs from the "
                                         "served y");
    }
  }
  out["serve.materialize_s"] = spans->selfSeconds("serve.materialize");
  out["sparse.reference_s"] = spans->selfSeconds("sparse.reference");

  // The floor of one attempt: a run function on a 1x1 input.
  {
    const auto m = std::make_shared<const sparse::CsrMatrix>(
        sparse::CsrMatrix(1, 1, {0, 1}, {0}, {1.0f}));
    const auto v = std::make_shared<const sparse::DenseVector>(
        sparse::DenseVector(1, 1.0f));
    fixedRunCost(tile,
                 [m, v](const harness::SystemConfig& c) {
                   return harness::runSpmvHht(c, *m, *v, true);
                 },
                 exactSpmv(*m, *v), opt.scale, tally, out);
  }
  // Its untraced host time: the fastest of its first call and a few more.
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    rep_run(tile);
    rep_s = std::min(rep_s, secondsSince(t0));
  }
  traceRepresentative(tile, rep_run, rep_result, rep_s, tally, out);
}

}  // namespace perfbench
