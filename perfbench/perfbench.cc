// perfbench — one measured run of the repository benchmark.
//
//   perfbench --workload build|read|update --seed N --seconds S
//                    --trace 0|1 --workdir DIR
//
// Workloads (one client thread, closed loop, global pool of one thread; data
// is the paper's Skewed family, uniform x and y^4, generated from --seed):
//
//   build  — repeated ELSI bulk builds of a ZM index. One operation is
//            ConcurrentIndex::Build over kBuildN points: a fresh base is
//            trained through the BuildProcessor, whose models rotate over the
//            five ELSI build methods (SP, CL, MR, RS, RL), and published.
//   read   — window reads through an 8-shard ShardedIndex (ShardedIndex ->
//            LocalShard -> ConcurrentIndex -> ZM) over 200k points, every
//            shard built by ELSI. Windows follow the paper's Fig. 12: centred
//            on data points, 0.01% of the data space. No updates.
//   update — the YCSB-B shape of bench_ycsb's read95 mix on DurableElsi over
//            a 50k-point ZM base: 95% point reads of loaded keys, 5% inserts
//            (Skewed, as the paper's Fig. 15 insertions), every insert logged
//            to the WAL with a group commit (fsync) every 32 records, then
//            published in the lock-free delta. Each round reopens the same
//            snapshot and replays the same operations, so the delta a read
//            sees grows from 0 to about 1.6k inserts.
//
// Every answer is checked against an oracle this program keeps itself; an
// operation with a wrong answer counts as failed.
//
// A run sets the system up seven times; after each set-up it repeats one
// block of identical work (8 builds, 4096 windows, or one update round) for
// a seventh of --seconds, moving to the next CPU after every block.
// Consecutive blocks are pooled into statistics windows of at least
// kWindowOps operations, so a window's p98 has at least ten samples beyond
// it; each end-to-end figure is computed per window and the run reports the
// mean over its windows. The host's cores run at speeds that change from
// block to block, often in two clusters, so a median over windows would
// jump between clusters as their shares shift; the mean moves only in
// proportion. p98 rather than p99: a run of the build workload holds about
// a thousand builds, two windows. The sample and window counts, and
// whole-run percentiles per operation kind, are printed above the result
// line.
//
// With --trace 0 the result line holds the end-to-end metrics:
//   latency_p50_us, latency_p98_us  per-operation latency
//   throughput_ops_s                operations per busy second
//   setup_s                         median of the seven set-ups
// With --trace 1 it holds the per-layer split instead:
//   build.{select,ds,train,bounds}_ms  BuildProcessor stages per bulk build
//   build.other_ms                     rest of a bulk build (keys, sort,
//                                      layout; the snapshot when durable)
//   build.models, build.ds_share       models per build, |Ds| / n in %
//   query.base_us                      time in the base ZM index per read
//   query.stack_us                     time in the layers above it per read
//   query.results                      results per read
//   shard.fanout                       shards visited per window read
//                                      (counter shard.window.shards_visited)
//   delta.depth                        pending updates per read (gauge
//                                      concurrent.delta_depth)
//   slow.captured_per_1k, slow.threshold_us
//                                      slow-query trees captured per 1000
//                                      query-rooted reads, and the store's
//                                      adaptive threshold at the end
//   wal.bytes_per_update               WAL bytes appended per update
// The build.* split comes from the measured builds (build), from a replay
// of every shard's build (read), or from the durable set-up builds (update).
// The base/stack split times each read through the served stack and on the
// base alone, alternating which goes first so both see the same caches.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/geometry.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/concurrent_index.h"
#include "core/elsi.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "obs/metrics.h"
#include "persist/elsi.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "shard/local_shard.h"
#include "shard/sharded_index.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using elsi::Point;
using elsi::Rect;
using Clock = std::chrono::steady_clock;

// --- sizes ------------------------------------------------------------------

constexpr elsi::DatasetKind kData = elsi::DatasetKind::kSkewed;
constexpr int kSetups = 7;        // set-ups per run; setup_s is their median
constexpr size_t kWindowOps = 500;  // operations per statistics window

constexpr size_t kBuildN = 10000;      // points per bulk build
constexpr size_t kBuildLeaf = 2000;    // points per ZM leaf model
constexpr size_t kBuildDatasets = 4;   // data sets the builds cycle over
constexpr size_t kBuildBlock = 8;      // builds per block
constexpr size_t kBuildProbes = 64;    // point checks after each build
constexpr size_t kBuildWindows = 4;    // window checks after each build

constexpr size_t kReadN = 200000;      // points in the sharded index
constexpr size_t kReadShards = 8;
constexpr size_t kReadBlock = 4096;    // window reads per block
constexpr double kWindowArea = 1e-4;   // window area / data space (Fig. 12)

constexpr size_t kUpdateN = 50000;     // points in the durable base
constexpr size_t kRoundOps = 32768;    // operations per update round
constexpr double kReadShare = 0.95;    // YCSB-B; the rest are inserts
constexpr size_t kFsyncEvery = 32;

// --- small helpers ----------------------------------------------------------

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(double sum, size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return Mean(sum, v.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void PrintResult(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The repository's bench-scale ELSI settings, seeded from --seed.
elsi::BuildProcessorConfig ProcessorConfig(size_t n, uint64_t seed) {
  elsi::BuildProcessorConfig cfg = elsi::bench::BenchProcessorConfig(n);
  cfg.seed = seed;
  cfg.model.seed = seed;
  return cfg;
}

/// Exact window oracle: the points sorted by x, scanned over the x-slab.
class WindowOracle {
 public:
  explicit WindowOracle(const std::vector<Point>& data) : by_x_(data) {
    std::sort(by_x_.begin(), by_x_.end(),
              [](const Point& a, const Point& b) { return a.x < b.x; });
  }

  std::vector<Point> Query(const Rect& w) const {
    std::vector<Point> out;
    auto it = std::lower_bound(
        by_x_.begin(), by_x_.end(), w.lo_x,
        [](const Point& p, double x) { return p.x < x; });
    for (; it != by_x_.end() && it->x <= w.hi_x; ++it) {
      if (w.Contains(*it)) out.push_back(*it);
    }
    elsi::SortCanonical(&out);
    return out;
  }

 private:
  std::vector<Point> by_x_;
};

/// The program's own counters and gauges the per-layer split reads.
struct ProgramCounters {
  uint64_t window_reads = 0;    // shard.query.window
  uint64_t shards_visited = 0;  // shard.window.shards_visited
  uint64_t slow_captured = 0;   // slow_queries.captured

  static ProgramCounters Now() {
    return {elsi::obs::GetCounter("shard.query.window").Value(),
            elsi::obs::GetCounter("shard.window.shards_visited").Value(),
            elsi::obs::GetCounter("slow_queries.captured").Value()};
  }
};

int64_t DeltaDepth() {
  static elsi::obs::Gauge& g = elsi::obs::GetGauge("concurrent.delta_depth");
  return g.Value();
}

/// Times one read through the served stack and the same read on the base
/// alone, alternating which runs first. Returns {served_s, base_s}.
template <typename Served, typename Base>
std::pair<double, double> TimeSplit(bool base_first, Served served, Base base) {
  double served_s = 0.0, base_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool run_base = (pass == 0) == base_first;
    const auto t0 = Clock::now();
    if (run_base) {
      base();
    } else {
      served();
    }
    (run_base ? base_s : served_s) = Seconds(t0, Clock::now());
  }
  return {served_s, base_s};
}

/// Per-layer accumulators for --trace 1.
struct Layers {
  // One entry per bulk build.
  std::vector<double> select_ms, ds_ms, train_ms, bounds_ms, other_ms, models;
  double ds_keys = 0.0;
  double build_keys = 0.0;
  // Per read with a layer split.
  double base_us = 0.0;
  double stack_us = 0.0;
  double results = 0.0;
  double delta_depth = 0.0;
  size_t reads = 0;
  // Program counters over the measured phases.
  uint64_t window_reads = 0, shards_visited = 0, slow_captured = 0;
  uint64_t query_roots = 0;
  // Per durable update.
  double wal_bytes = 0.0;
  size_t updates = 0;

  void AddBuild(const std::vector<elsi::BuildCallRecord>& records,
                double wall_s) {
    double sel = 0, ds = 0, train = 0, bounds = 0;
    for (const elsi::BuildCallRecord& r : records) {
      sel += r.select_seconds;
      ds += r.extra_seconds;
      train += r.train_seconds;
      bounds += r.bounds_seconds;
      ds_keys += static_cast<double>(r.training_size);
      build_keys += static_cast<double>(r.n);
    }
    select_ms.push_back(sel * 1e3);
    ds_ms.push_back(ds * 1e3);
    train_ms.push_back(train * 1e3);
    bounds_ms.push_back(bounds * 1e3);
    other_ms.push_back((wall_s - sel - ds - train - bounds) * 1e3);
    models.push_back(static_cast<double>(records.size()));
  }

  void AddRead(std::pair<double, double> split, size_t n_results) {
    base_us += split.second * 1e6;
    stack_us += (split.first - split.second) * 1e6;
    results += static_cast<double>(n_results);
    delta_depth += static_cast<double>(DeltaDepth());
    ++reads;
  }

  /// Adds the program's counter movement since `before`; `roots` is the
  /// number of query-rooted reads (ShardedIndex entry points) issued.
  void AddCounters(const ProgramCounters& before, uint64_t roots) {
    const ProgramCounters now = ProgramCounters::Now();
    window_reads += now.window_reads - before.window_reads;
    shards_visited += now.shards_visited - before.shards_visited;
    slow_captured += now.slow_captured - before.slow_captured;
    query_roots += roots;
  }

  void Report(Result* r) const {
    auto& m = r->metrics;
    m.push_back({"build.select_ms", Quantile(select_ms, 0.5), "ms"});
    m.push_back({"build.ds_ms", Quantile(ds_ms, 0.5), "ms"});
    m.push_back({"build.train_ms", Quantile(train_ms, 0.5), "ms"});
    m.push_back({"build.bounds_ms", Quantile(bounds_ms, 0.5), "ms"});
    m.push_back({"build.other_ms", Quantile(other_ms, 0.5), "ms"});
    m.push_back({"build.models", Quantile(models, 0.5), "count"});
    m.push_back({"build.ds_share",
                 build_keys == 0 ? 0.0 : 100.0 * ds_keys / build_keys, "%"});
    m.push_back({"query.base_us", Mean(base_us, reads), "us"});
    m.push_back({"query.stack_us", Mean(stack_us, reads), "us"});
    m.push_back({"query.results", Mean(results, reads), "count"});
    m.push_back({"shard.fanout",
                 Mean(static_cast<double>(shards_visited), window_reads),
                 "count"});
    m.push_back({"delta.depth", Mean(delta_depth, reads), "count"});
    m.push_back({"slow.captured_per_1k",
                 1e3 * Mean(static_cast<double>(slow_captured), query_roots),
                 "count"});
    m.push_back({"slow.threshold_us",
                 static_cast<double>(
                     elsi::obs::GetGauge("slow_queries.threshold_us").Value()),
                 "us"});
    m.push_back({"wal.bytes_per_update", Mean(wal_bytes, updates), "B"});
  }
};

/// Moves the calling thread round robin over the CPUs it may use, so that
/// no single busy core decides a run; restores the full set at the end.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&all_);
    sched_getaffinity(0, sizeof(all_), &all_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CoreRotation() { sched_setaffinity(0, sizeof(all_), &all_); }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Operation latencies, per kind over the whole run and per statistics
/// window. A window is the first run of whole blocks holding at least
/// kWindowOps operations; what is left at the end joins the last window.
class Measure {
 public:
  std::vector<double> setup_s;
  uint64_t failed = 0;

  void Add(const char* kind, double seconds) {
    ++attempted_;
    open_.push_back(seconds);
    for (auto& [name, v] : by_kind_) {
      if (name == kind) {
        v.push_back(seconds);
        return;
      }
    }
    by_kind_.push_back({kind, {seconds}});
  }

  void EndBlock() {
    ++blocks_;
    cores_.Next();
    if (open_.size() >= kWindowOps) CloseWindow();
  }

  size_t blocks() const { return blocks_; }

  /// One human-readable line per operation kind (not part of the result).
  void PrintKinds() const {
    for (const auto& [name, v] : by_kind_) {
      std::printf("  %-7s n=%-9zu p50=%.3f us  p98=%.3f us  p99=%.3f us\n",
                  name.c_str(), v.size(), Quantile(v, 0.5) * 1e6,
                  Quantile(v, 0.98) * 1e6, Quantile(v, 0.99) * 1e6);
    }
  }

  void Report(Result* r) {
    if (!open_.empty()) {
      if (!p50_.empty()) {
        p50_.pop_back();
        p98_.pop_back();
        throughput_.pop_back();
        sizes_.pop_back();
        open_.insert(open_.end(), last_.begin(), last_.end());
      }
      CloseWindow();
    }
    std::printf("latency: %llu operations in %zu windows of >= %zu "
                "(smallest %zu), mean over windows\n",
                static_cast<unsigned long long>(attempted_), p50_.size(),
                kWindowOps, *std::min_element(sizes_.begin(), sizes_.end()));
    r->attempted = attempted_;
    r->failed = failed;
    r->metrics.push_back({"latency_p50_us", Mean(p50_) * 1e6, "us"});
    r->metrics.push_back({"latency_p98_us", Mean(p98_) * 1e6, "us"});
    r->metrics.push_back({"throughput_ops_s", Mean(throughput_), "1/s"});
    r->metrics.push_back({"setup_s", Quantile(setup_s, 0.5), "s"});
  }

 private:
  void CloseWindow() {
    double busy = 0.0;
    for (double s : open_) busy += s;
    p50_.push_back(Quantile(open_, 0.50));
    p98_.push_back(Quantile(open_, 0.98));
    throughput_.push_back(static_cast<double>(open_.size()) / busy);
    sizes_.push_back(open_.size());
    last_ = std::move(open_);
    open_.clear();
  }

  uint64_t attempted_ = 0;
  size_t blocks_ = 0;
  std::vector<std::pair<std::string, std::vector<double>>> by_kind_;
  std::vector<double> open_, last_;
  std::vector<double> p50_, p98_, throughput_;
  std::vector<size_t> sizes_;  // operations per window
  CoreRotation cores_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

// --- build ------------------------------------------------------------------

/// Hands the models of one bulk build to the five ELSI build methods in a
/// fixed rotation (OG, the no-ELSI baseline, is skipped), restarting with
/// every build: each build then does the same work and every method's code
/// is on the measured path.
class RotatingSelector : public elsi::MethodSelector {
 public:
  elsi::BuildMethodId Choose(const std::vector<elsi::BuildMethodId>& candidates,
                             double, double) override {
    std::vector<elsi::BuildMethodId> elsi_methods;
    for (elsi::BuildMethodId id : candidates) {
      if (id != elsi::BuildMethodId::kOG) elsi_methods.push_back(id);
    }
    return elsi_methods[next_++ % elsi_methods.size()];
  }

  void Restart() { next_ = 0; }

 private:
  size_t next_ = 0;
};

bool RunBuild(const Args& args, Measure* me, Layers* layers) {
  for (int epoch = 0; epoch < kSetups; ++epoch) {
    const auto s0 = Clock::now();
    std::vector<std::vector<Point>> datasets;
    for (size_t k = 0; k < kBuildDatasets; ++k) {
      datasets.push_back(
          elsi::GenerateDataset(kData, kBuildN, args.seed * 101 + k));
    }
    auto selector = std::make_shared<RotatingSelector>();
    auto processor = elsi::MakeElsiProcessor(
        elsi::BaseIndexKind::kZM, ProcessorConfig(kBuildN, args.seed),
        selector);
    me->setup_s.push_back(Seconds(s0, Clock::now()));

    std::vector<std::vector<Point>> probes;
    std::vector<std::vector<Rect>> windows;
    std::vector<WindowOracle> oracles;
    for (size_t k = 0; k < kBuildDatasets; ++k) {
      probes.push_back(elsi::SamplePointQueries(datasets[k], kBuildProbes,
                                                args.seed * 7 + k));
      windows.push_back(elsi::SampleWindowQueries(
          datasets[k], kBuildWindows, kWindowArea, args.seed * 11 + k));
      oracles.emplace_back(datasets[k]);
    }
    // Leaves smaller than the bench scale's, so that one build trains six
    // models and reaches every method of the rotation.
    elsi::BaseIndexScale scale = elsi::bench::BenchScale(kBuildN);
    scale.leaf_target = kBuildLeaf;
    auto make_base = [processor, scale] {
      return elsi::MakeBaseIndex(elsi::BaseIndexKind::kZM, processor, scale);
    };
    elsi::concurrent::ConcurrentIndex served(make_base(), make_base);

    const auto start = Clock::now();
    while (Seconds(start, Clock::now()) < args.seconds / kSetups) {
      for (size_t i = 0; i < kBuildBlock; ++i) {
        const size_t k = i % kBuildDatasets;
        processor->ClearRecords();
        selector->Restart();
        const auto t0 = Clock::now();
        served.Build(datasets[k]);
        const auto t1 = Clock::now();
        me->Add("build", Seconds(t0, t1));
        if (args.trace) layers->AddBuild(processor->records(), Seconds(t0, t1));

        bool ok = served.size() == datasets[k].size();
        for (size_t j = 0; j < probes[k].size(); ++j) {
          const Point& q = probes[k][j];
          Point out;
          bool hit = false;
          if (args.trace) {
            Point base_out;
            const auto split = TimeSplit(
                j % 2 == 1, [&] { hit = served.PointQuery(q, &out); },
                [&] { served.UnsafeBase()->PointQuery(q, &base_out); });
            layers->AddRead(split, hit ? 1 : 0);
          } else {
            hit = served.PointQuery(q, &out);
          }
          ok = ok && hit && out.x == q.x && out.y == q.y;
        }
        for (const Rect& w : windows[k]) {
          ok = ok && served.WindowQuery(w) == oracles[k].Query(w);
        }
        if (!ok) ++me->failed;
      }
      me->EndBlock();
    }
  }
  return true;
}

// --- read -------------------------------------------------------------------

struct ShardedSetup {
  std::vector<Point> data;
  std::unique_ptr<elsi::shard::ShardedIndex> index;
  std::vector<elsi::shard::LocalShard*> shards;  // Owned by `index`.
  elsi::shard::LocalShardConfig shard_config;
};

std::unique_ptr<ShardedSetup> BuildSharded(uint64_t seed) {
  auto s = std::make_unique<ShardedSetup>();
  s->data = elsi::GenerateDataset(kData, kReadN, seed);
  elsi::shard::ShardedIndexConfig cfg;
  cfg.partition.shards = kReadShards;
  cfg.shard.kind = elsi::BaseIndexKind::kZM;
  cfg.shard.elsi = true;
  cfg.shard.build = ProcessorConfig(kReadN / kReadShards, seed);
  cfg.shard.scale = elsi::bench::BenchScale(kReadN / kReadShards);
  s->shard_config = cfg.shard;
  ShardedSetup* raw = s.get();
  s->index = std::make_unique<elsi::shard::ShardedIndex>(
      cfg, [raw](size_t id) {
        auto shard =
            std::make_unique<elsi::shard::LocalShard>(id, raw->shard_config);
        if (raw->shards.size() <= id) raw->shards.resize(id + 1, nullptr);
        raw->shards[id] = shard.get();
        return shard;
      });
  s->index->Build(s->data);
  return s;
}

/// Replays the per-shard ELSI builds of `s` on fresh indices, recording the
/// BuildProcessor stage split of the whole sharded build as one bulk build.
void TraceShardBuilds(const ShardedSetup& s, Layers* layers) {
  std::vector<std::vector<Point>> parts(s.shards.size());
  for (const Point& p : s.data) {
    parts[s.index->partitioner().ShardOf(p)].push_back(p);
  }
  std::vector<elsi::BuildCallRecord> records;
  double wall = 0.0;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    auto processor = elsi::MakeElsiProcessor(
        s.shard_config.kind, s.shard_config.build, s.shard_config.selector);
    auto base = elsi::MakeBaseIndex(s.shard_config.kind, processor,
                                    s.shard_config.scale);
    const auto t0 = Clock::now();
    base->Build(part);
    wall += Seconds(t0, Clock::now());
    const auto recs = processor->records();
    records.insert(records.end(), recs.begin(), recs.end());
  }
  layers->AddBuild(records, wall);
}

bool RunRead(const Args& args, Measure* me, Layers* layers) {
  // One block: a fixed sequence of windows drawn from the data, repeated.
  const std::vector<Point> data =
      elsi::GenerateDataset(kData, kReadN, args.seed);
  const std::vector<Rect> windows = elsi::SampleWindowQueries(
      data, kReadBlock, kWindowArea, args.seed * 3 + 2);
  const WindowOracle oracle(data);
  std::vector<std::vector<Point>> truth;
  for (const Rect& w : windows) truth.push_back(oracle.Query(w));

  std::unique_ptr<ShardedSetup> s;
  for (int epoch = 0; epoch < kSetups; ++epoch) {
    s.reset();
    const auto s0 = Clock::now();
    s = BuildSharded(args.seed);
    me->setup_s.push_back(Seconds(s0, Clock::now()));
    if (s->shards.size() != kReadShards || s->index->size() != kReadN) {
      std::fprintf(stderr, "read: sharded build has %zu shards, %zu points\n",
                   s->shards.size(), s->index->size());
      return false;
    }

    const elsi::shard::ShardedIndex& index = *s->index;
    const ProgramCounters before = ProgramCounters::Now();
    uint64_t issued = 0;
    const auto start = Clock::now();
    while (Seconds(start, Clock::now()) < args.seconds / kSetups) {
      for (size_t i = 0; i < windows.size(); ++i) {
        const Rect& w = windows[i];
        std::vector<Point> got;
        if (args.trace) {
          // The base side queries every shard whose extent meets the window.
          const auto split = TimeSplit(
              i % 2 == 1, [&] { got = index.WindowQuery(w); },
              [&] {
                for (elsi::shard::LocalShard* shard : s->shards) {
                  if (shard->PointCount() == 0 ||
                      !shard->Extent().Intersects(w)) {
                    continue;
                  }
                  shard->index()->UnsafeBase()->WindowQuery(w);
                }
              });
          me->Add("window", split.first);
          layers->AddRead(split, got.size());
        } else {
          const auto t0 = Clock::now();
          got = index.WindowQuery(w);
          me->Add("window", Seconds(t0, Clock::now()));
        }
        ++issued;
        if (got != truth[i]) ++me->failed;
      }
      me->EndBlock();
    }
    layers->AddCounters(before, issued);
  }
  if (args.trace) TraceShardBuilds(*s, layers);
  return true;
}

// --- update -----------------------------------------------------------------

uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& [lsn, path] : elsi::persist::ListWalSegments(dir)) {
    std::error_code ec;
    const uintmax_t size = fs::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

bool RunUpdate(const Args& args, Measure* me, Layers* layers) {
  using elsi::persist::DurableElsi;
  const std::string base_dir = args.workdir + "/durable-base";
  const std::string round_dir = args.workdir + "/durable-round";
  const std::vector<Point> data =
      elsi::GenerateDataset(kData, kUpdateN, args.seed);
  // Every insert a round can issue, with ids above the base's.
  std::vector<Point> fresh =
      elsi::GenerateDataset(kData, kRoundOps, args.seed * 5 + 3);
  for (size_t i = 0; i < fresh.size(); ++i) fresh[i].id = 1000000000ULL + i;

  for (int epoch = 0; epoch < kSetups; ++epoch) {
    fs::remove_all(base_dir);
    const auto s0 = Clock::now();
    auto processor = elsi::MakeElsiProcessor(
        elsi::BaseIndexKind::kZM, ProcessorConfig(kUpdateN, args.seed),
        nullptr);
    elsi::persist::DurableElsiOptions opts;
    opts.kind = "ZM";
    opts.trainer = processor;
    opts.wal.fsync_every = kFsyncEvery;
    auto built = DurableElsi::OpenOrRecover(base_dir, opts);
    if (built == nullptr) {
      std::fprintf(stderr, "update: cannot open %s\n", base_dir.c_str());
      return false;
    }
    const auto b0 = Clock::now();
    built->Build(data);
    const double build_wall = Seconds(b0, Clock::now());
    built.reset();
    me->setup_s.push_back(Seconds(s0, Clock::now()));
    if (args.trace) layers->AddBuild(processor->records(), build_wall);

    // The base every round starts from, for the layer split of reads. It
    // stays the served base while no rebuild-swap replaces it.
    std::unique_ptr<elsi::SpatialIndex> twin;
    if (args.trace) {
      const auto snaps = elsi::persist::ListSnapshots(base_dir);
      if (!snaps.empty()) {
        twin = elsi::persist::Snapshot::Load(snaps.back().second);
      }
      if (twin == nullptr) return false;
    }

    const auto start = Clock::now();
    while (Seconds(start, Clock::now()) < args.seconds / kSetups) {
      fs::remove_all(round_dir);
      fs::copy(base_dir, round_dir, fs::copy_options::recursive);
      auto durable = DurableElsi::OpenOrRecover(round_dir, opts);
      if (durable == nullptr || durable->size() != data.size()) {
        std::fprintf(stderr, "update: cannot reopen the base snapshot\n");
        return false;
      }
      const uint64_t wal_before = WalBytes(round_dir);
      elsi::Rng rng(args.seed * 1000003 + 29);  // Same operations each round.
      size_t inserted = 0;
      for (size_t op = 0; op < kRoundOps; ++op) {
        if (rng.NextDouble() >= kReadShare) {
          const Point& p = fresh[inserted++];
          const auto t0 = Clock::now();
          durable->Insert(p);
          me->Add("insert", Seconds(t0, Clock::now()));
          continue;
        }
        // A loaded key: every read must hit.
        const Point& q = data[rng.NextBelow(data.size())];
        Point out;
        bool hit = false;
        if (args.trace) {
          Point base_out;
          const auto split = TimeSplit(
              op % 2 == 1, [&] { hit = durable->PointQuery(q, &out); },
              [&] { twin->PointQuery(q, &base_out); });
          me->Add("read", split.first);
          layers->AddRead(split, hit ? 1 : 0);
        } else {
          const auto t0 = Clock::now();
          hit = durable->PointQuery(q, &out);
          me->Add("read", Seconds(t0, Clock::now()));
        }
        if (!hit || out.x != q.x || out.y != q.y) ++me->failed;
      }
      if (durable->size() != data.size() + inserted) ++me->failed;
      if (durable->rebuild_count() > 0) {
        // A rebuild-swap replaced the base the split and the round assume.
        std::fprintf(stderr, "update: unexpected rebuild-swap\n");
        ++me->failed;
      }
      durable.reset();
      layers->wal_bytes +=
          static_cast<double>(WalBytes(round_dir) - wal_before);
      layers->updates += inserted;
      me->EndBlock();
    }
  }
  fs::remove_all(round_dir);
  fs::remove_all(base_dir);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload build|read|update "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  elsi::ThreadPool::SetGlobalThreads(1);
  fs::create_directories(args.workdir);

  Measure me;
  Layers layers;
  bool ok = false;
  if (args.workload == "build") {
    ok = RunBuild(args, &me, &layers);
  } else if (args.workload == "read") {
    ok = RunRead(args, &me, &layers);
  } else if (args.workload == "update") {
    ok = RunUpdate(args, &me, &layers);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!ok || me.blocks() == 0) return 1;

  Result result;
  me.Report(&result);
  if (args.trace) {
    result.metrics.clear();
    layers.Report(&result);
  }
  std::printf("%s: %llu operations in %zu blocks, %llu failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(result.attempted), me.blocks(),
              static_cast<unsigned long long>(result.failed));
  me.PrintKinds();
  PrintResult(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
