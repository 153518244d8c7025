// The repo benchmark: runs one named workload as a closed loop (one client,
// one job in flight, the next job submitted when the previous returns) and
// prints its metrics as one JSON object on the last line of stdout.
//
//   m3r_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--trace-out <file.json>]
//
// One repetition = set-up (generate the inputs from the seed, build the
// engine, pre-populate the cache) + the job sequence + a check of every
// job's output against a reference computed without either engine.
// Repetitions run until --seconds have passed (at least three; one in
// --smoke). --trace 0 reports the end-to-end metrics. --trace 1 also runs
// the same sequence with every user class and the file system wrapped,
// checks that it produced the same outputs and engine counts, replays the
// captured map output through sortkit and x10rt, and reports the per-layer
// metrics. README.md in this directory describes every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/sequence_file.h"
#include "bench_util.h"
#include "oracle.h"
#include "replay.h"
#include "trace.h"
#include "traced_classes.h"
#include "workloads/matrix_gen.h"
#include "workloads/spmv.h"
#include "workloads/text_gen.h"
#include "workloads/wordcount.h"

namespace m3r::perfbench {
namespace {

/// Host threads given to the WordCount engines: the paper's 160 slots run
/// on up to four host threads, fewer on a smaller host. This is where the
/// fig8 inversion (M3R slower than Hadoop) shows; on one host thread it does
/// not, because sim time charges measured per-thread CPU, which sibling
/// threads inflate (README.md, "Two clocks").
int WordCountHostThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}
/// Host threads given to both SpMV engines. An SpMV job is about 0.1 s of
/// host time, and four host threads make it sensitive to neighbours on a
/// shared host: with one CPU-bound process beside it, `spmv` wall time rose
/// by a third on four threads and stayed within its run-to-run noise on
/// one. Under a memory budget the cache also evicts from a background
/// thread racing the job's strands; on four threads that race moved one
/// seed's spmv_pressure sim between 61 s and 101 s, on one thread five
/// repetitions stayed within 57-61 s. README.md ("Workloads") records both.
constexpr int kSpmvHostThreads = 1;
/// Worker strands per M3R place, set explicitly so the M3R_PLACE_WORKERS
/// environment variable and the host's core count cannot change the job.
constexpr int kPlaceWorkers = 1;

struct MetricDecl {
  const char* name;
  const char* unit;
};

constexpr MetricDecl kEndToEnd[] = {
    {"sim_s", "s"},         {"wall_s", "s"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
    {"correct_job_ratio", "ratio"},
};

constexpr MetricDecl kPerLayer[] = {
    {"api.map_user_s", "s"},
    {"api.collect_s", "s"},
    {"api.collect_ns_per_rec", "ns/rec"},
    {"api.values_next_s", "s"},
    {"api.reduce_user_s", "s"},
    {"api.output_collect_s", "s"},
    {"api.map_records", "count"},
    {"api.reduce_groups", "count"},
    {"m3r.map_phase_sim_s", "s"},
    {"m3r.shuffle_sim_s", "s"},
    {"m3r.reduce_phase_sim_s", "s"},
    {"m3r.sort_sim_s", "s"},
    {"m3r.job_overhead_sim_s", "s"},
    {"m3r.first_reduce_sim_s", "s"},
    {"m3r.shuffle_wire_mb", "MB"},
    {"m3r.remote_pair_frac", "ratio"},
    {"m3r.runs_shipped", "count"},
    {"m3r.aliased_pairs", "count"},
    {"m3r.cache_hit_ratio", "ratio"},
    {"m3r.first_iter_sim_s", "s"},
    {"m3r.warm_iter_sim_s", "s"},
    {"serialize.dedup_hit_ratio", "ratio"},
    {"serialize.dedup_saved_mb", "MB"},
    {"x10rt.encode_ns_per_obj", "ns/obj"},
    {"x10rt.decode_ns_per_obj", "ns/obj"},
    {"sortkit.sort_ns_per_rec", "ns/rec"},
    {"sortkit.merge_ns_per_rec", "ns/rec"},
    {"dfs.read_mb", "MB"},
    {"dfs.read_s", "s"},
    {"dfs.write_mb", "MB"},
    {"dfs.write_s", "s"},
    {"dfs.meta_calls", "count"},
    {"dfs.meta_s", "s"},
    {"memgov.evictions", "count"},
    {"memgov.evicted_mb", "MB"},
    {"memgov.rejected_fills", "count"},
    {"memgov.spilled_evictions", "count"},
    {"memgov.peak_mb", "MB"},
    {"l2cache.hit_ratio", "ratio"},
    {"l2cache.demotions", "count"},
    {"l2cache.remote_mb", "MB"},
    {"l2cache.overflow_fills", "count"},
    {"hadoop.submit_sim_s", "s"},
    {"hadoop.map_phase_sim_s", "s"},
    {"hadoop.reduce_phase_sim_s", "s"},
    {"hadoop.sort_sim_s", "s"},
    {"hadoop.commit_sim_s", "s"},
    {"hadoop.spill_mb", "MB"},
    {"hadoop.merge_mb", "MB"},
    {"trace.overhead_pct", "%"},
};

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ workloads ---

/// One job of a sequence and where its output is to be checked.
struct JobSpec {
  api::JobConf conf;
  int iteration = 0;
};

/// A workload builds its inputs and engine, yields its job sequence, and
/// checks each job's output (in sequence order, after the sequence ran).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs into a fresh DFS and builds the engine on
  /// `wrap(dfs)`. Timed as set-up.
  virtual void Setup(uint64_t seed,
                     const std::function<std::shared_ptr<dfs::FileSystem>(
                         std::shared_ptr<dfs::FileSystem>)>& wrap) = 0;
  /// Computes the reference from the generated inputs, or rewinds it: every
  /// repetition of a run generates the same inputs from the same seed, so
  /// the reference is computed once. Not timed.
  virtual Status BuildOracle() = 0;
  virtual std::vector<JobSpec> Jobs() = 0;
  virtual JobCheck Check(size_t job) = 0;
  virtual api::Engine& engine() = 0;
  virtual void Teardown() = 0;
};

struct Sizes {
  uint64_t text_bytes;
  int text_files;
  int wc_reducers;
  int64_t spmv_n;
  int spmv_iterations;
};

constexpr Sizes kFullSizes{8u << 20, 20, 160, 40000, 10};
constexpr Sizes kSmokeSizes{256u << 10, 4, 16, 3000, 3};

engine::M3REngineOptions M3ROptions(int host_threads) {
  engine::M3REngineOptions opts;
  opts.cluster = bench::PaperCluster();
  opts.host_threads = host_threads;
  opts.workers_per_place = kPlaceWorkers;
  return opts;
}

class WordCount : public Workload {
 public:
  WordCount(const Sizes& sizes, bool hadoop) : sizes_(sizes), hadoop_(hadoop) {}

  void Setup(uint64_t seed,
             const std::function<std::shared_ptr<dfs::FileSystem>(
                 std::shared_ptr<dfs::FileSystem>)>& wrap) override {
    dfs_ = bench::PaperDfs();
    M3R_CHECK_OK(workloads::GenerateText(*dfs_, "/text", sizes_.text_bytes,
                                         sizes_.text_files, seed));
    if (hadoop_) {
      engine_ = std::make_unique<hadoop::HadoopEngine>(
          wrap(dfs_),
          hadoop::HadoopEngineOptions{bench::PaperCluster(),
                                      WordCountHostThreads()});
    } else {
      engine_ = std::make_unique<engine::M3REngine>(
          wrap(dfs_), M3ROptions(WordCountHostThreads()));
    }
  }

  Status BuildOracle() override {
    if (oracle_) return Status::OK();
    M3R_ASSIGN_OR_RETURN(oracle_, WordCountOracle::FromInput(*dfs_, "/text"));
    return Status::OK();
  }

  std::vector<JobSpec> Jobs() override {
    JobSpec job{workloads::MakeWordCountJob("/text", "/out", sizes_.wc_reducers,
                                            /*immutable_output=*/true),
                0};
    job.conf.SetInt(api::conf::kPlaceWorkers, kPlaceWorkers);
    return {job};
  }

  JobCheck Check(size_t) override { return oracle_->Check(ReadFs(), "/out"); }
  api::Engine& engine() override { return *engine_; }
  void Teardown() override {
    engine_.reset();
    dfs_.reset();
  }

 private:
  dfs::FileSystem& ReadFs() {
    if (auto* m3r = dynamic_cast<engine::M3REngine*>(engine_.get())) {
      return *m3r->Fs();
    }
    return *dfs_;
  }

  Sizes sizes_;
  bool hadoop_;
  std::shared_ptr<dfs::FileSystem> dfs_;
  std::unique_ptr<api::Engine> engine_;
  std::optional<WordCountOracle> oracle_;
};

class Spmv : public Workload {
 public:
  static constexpr int32_t kBlock = 500;
  static constexpr double kSparsity = 0.001;

  Spmv(const Sizes& sizes, bool pressure)
      : sizes_(sizes), pressure_(pressure) {}

  void Setup(uint64_t seed,
             const std::function<std::shared_ptr<dfs::FileSystem>(
                 std::shared_ptr<dfs::FileSystem>)>& wrap) override {
    params_.n = sizes_.spmv_n;
    params_.block = kBlock;
    params_.sparsity = kSparsity;
    params_.seed = seed;
    row_blocks_ = static_cast<int>((params_.n + kBlock - 1) / kBlock);
    params_.num_partitions = std::min(row_blocks_, 160);
    dfs_ = bench::PaperDfs();
    M3R_CHECK_OK(
        workloads::GenerateSpmvData(*dfs_, "/spmv/g", "/spmv/v", params_));
    engine_ = std::make_unique<engine::M3REngine>(
        wrap(dfs_), M3ROptions(kSpmvHostThreads));
    // Pre-populated as in the paper (§6.2): initial I/O is not measured.
    api::JobConf pre;
    pre.AddInputPath("/spmv/g");
    pre.AddInputPath("/spmv/v");
    pre.SetInputFormatClass(api::SequenceFileInputFormat::kClassName);
    Tune(&pre);
    M3R_CHECK(engine_->PrepopulateCache(pre).ok());
  }

  Status BuildOracle() override {
    if (oracle_) {
      oracle_->Rewind();
      return Status::OK();
    }
    M3R_ASSIGN_OR_RETURN(oracle_,
                         SpmvOracle::FromInput(*dfs_, "/spmv/g", "/spmv/v",
                                               params_.n, kBlock));
    return Status::OK();
  }

  std::vector<JobSpec> Jobs() override {
    std::vector<JobSpec> jobs;
    outputs_.clear();
    std::string v_in = "/spmv/v";
    for (int it = 0; it < sizes_.spmv_iterations; ++it) {
      const std::string partial = "/spmv/temp-p" + std::to_string(it);
      const std::string v_out = "/spmv/temp-v" + std::to_string(it + 1);
      for (api::JobConf& conf : workloads::MakeSpmvIterationJobs(
               "/spmv/g", v_in, partial, v_out, params_.num_partitions,
               row_blocks_)) {
        Tune(&conf);
        jobs.push_back({std::move(conf), it});
      }
      outputs_.push_back(partial);
      outputs_.push_back(v_out);
      v_in = v_out;
    }
    return jobs;
  }

  JobCheck Check(size_t job) override {
    dfs::FileSystem& fs = *engine_->Fs();
    // A lease on the whole output directory: under a memory budget the
    // first evicted file heals the directory from the checkpoint once, and
    // the lease keeps the healed files resident until all are read.
    memgov::CacheManager::ReadLease lease =
        engine_->cache().LeaseRead(outputs_[job]);
    if (job % 2 == 0) {
      oracle_->Step();
      return oracle_->CheckPartials(fs, &engine_->cache(), outputs_[job]);
    }
    return oracle_->CheckVector(fs, &engine_->cache(), outputs_[job]);
  }

  api::Engine& engine() override { return *engine_; }
  void Teardown() override {
    engine_.reset();
    dfs_.reset();
  }

 private:
  void Tune(api::JobConf* conf) const {
    conf->SetInt(api::conf::kPlaceWorkers, kPlaceWorkers);
    if (pressure_) {
      conf->SetInt(api::conf::kMemoryBudgetMb, 8);
      conf->Set(api::conf::kCacheL2Share, "0.5");
    }
  }

  Sizes sizes_;
  bool pressure_;
  workloads::SpmvDataParams params_;
  int row_blocks_ = 0;
  std::shared_ptr<dfs::FileSystem> dfs_;
  std::unique_ptr<engine::M3REngine> engine_;
  std::optional<SpmvOracle> oracle_;
  std::vector<std::string> outputs_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Sizes& sizes) {
  if (name == "wordcount") return std::make_unique<WordCount>(sizes, false);
  if (name == "wordcount_hadoop") {
    return std::make_unique<WordCount>(sizes, true);
  }
  if (name == "spmv") return std::make_unique<Spmv>(sizes, false);
  if (name == "spmv_pressure") return std::make_unique<Spmv>(sizes, true);
  return nullptr;
}

// ----------------------------------------------------------- repetition ---

struct JobOutcome {
  api::JobResult result;
  JobCheck check;
  int iteration = 0;
  double wall_s = 0;  // host seconds inside Submit
  bool ok() const { return result.ok() && check.correct; }
};

struct Rep {
  double setup_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  /// The process's peak resident memory when the sequence ended, before
  /// the reference was built and the outputs were checked.
  double peak_rss_mb = 0;
  std::vector<JobOutcome> jobs;
  // Traced repetitions only.
  std::vector<Span> spans;
  std::vector<CapturedPair> capture;
  std::map<std::string, double> dfs;  // dfs.* figures of the job sequence
  api::JobConf capture_conf;
  int num_places = 0;
};

/// The dfs.* figures from the FileSystem decorator's totals.
std::map<std::string, double> DfsLedger(const DfsTotals& t) {
  return {{"dfs.read_mb", t.read_bytes / kMiB},
          {"dfs.read_s", t.read_ns / 1e9},
          {"dfs.write_mb", t.write_bytes / kMiB},
          {"dfs.write_s", t.write_ns / 1e9},
          {"dfs.meta_calls", static_cast<double>(t.meta_calls)},
          {"dfs.meta_s", t.meta_ns / 1e9}};
}

Rep RunRep(Workload& w, uint64_t seed, DfsTotals* dfs_totals) {
  Rep rep;
  const bool traced = dfs_totals != nullptr;
  int64_t t0 = NowNs();
  w.Setup(seed, [&](std::shared_ptr<dfs::FileSystem> fs)
                    -> std::shared_ptr<dfs::FileSystem> {
    if (!traced) return fs;
    return std::make_shared<TracingFileSystem>(std::move(fs), dfs_totals);
  });
  rep.setup_s = (NowNs() - t0) / 1e9;
  if (auto* m3r = dynamic_cast<engine::M3REngine*>(&w.engine())) {
    rep.num_places = m3r->NumPlaces();
  } else {
    rep.num_places = bench::PaperCluster().num_nodes;
  }

  std::vector<JobSpec> jobs = w.Jobs();
  Tracer& tracer = Tracer::Instance();
  if (traced) {
    dfs_totals->Reset();  // count the sequence, not set-up
    tracer.TakeSpans();
    tracer.TakeCapture();
    for (JobSpec& job : jobs) UseTracedClasses(&job.conf);
    rep.capture_conf = jobs.front().conf;
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    Span job_span;
    if (traced) {
      job_span.id = tracer.NewId();
      job_span.kind = SpanKind::kJob;
      tracer.SetCurrentJob(job_span.id);
      tracer.SetCapturing(i == 0);
    }
    const int64_t submit = NowNs();
    api::JobResult result = w.engine().Submit(jobs[i].conf);
    const int64_t done = NowNs();
    rep.wall_s += (done - submit) / 1e9;
    if (traced) {
      job_span.start_ns = submit;
      job_span.end_ns = done;
      tracer.SetCapturing(false);
      tracer.Record(job_span);
    }
    rep.sim_s += result.sim_seconds;
    rep.jobs.push_back(
        {std::move(result), {}, jobs[i].iteration, (done - submit) / 1e9});
    if (!rep.jobs.back().result.ok()) break;  // later jobs need its output
  }
  if (traced) {
    rep.spans = tracer.TakeSpans();
    rep.capture = tracer.TakeCapture();
    rep.dfs = DfsLedger(*dfs_totals);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.peak_rss_mb = ru.ru_maxrss / 1024.0;
  t0 = NowNs();
  M3R_CHECK_OK(w.BuildOracle());
  const double oracle_s = (NowNs() - t0) / 1e9;
  // Every output is checked once the whole sequence has run. The check
  // reads through the engine's file system and cache, which heals evicted
  // files and moves what it reads to the front of the LRU; between two
  // jobs that would warm the cache the next job reads from. After the
  // sequence it can change no timed figure, and the dfs.* figures above
  // count the engine's calls only.
  t0 = NowNs();
  for (size_t i = 0; i < rep.jobs.size(); ++i) rep.jobs[i].check = w.Check(i);
  const double check_s = (NowNs() - t0) / 1e9;
  t0 = NowNs();
  w.Teardown();
  std::printf("rep%s: setup %.3f s, reference %.3f s, sequence %.3f s wall "
              "%.3f s sim, check %.3f s, teardown %.3f s\n",
              traced ? " (traced)" : "", rep.setup_s, oracle_s, rep.wall_s,
              rep.sim_s, check_s, (NowNs() - t0) / 1e9);
  return rep;
}

/// Engine counts that tracing must not change.
std::map<std::string, int64_t> EngineCounts(const api::JobResult& r) {
  std::map<std::string, int64_t> out;
  for (const auto& [gn, v] : r.counters.Snapshot()) {
    if (gn.second == "MAP_INPUT_RECORDS" || gn.second == "MAP_OUTPUT_RECORDS" ||
        gn.second == "REDUCE_INPUT_RECORDS" ||
        gn.second == "REDUCE_INPUT_GROUPS" ||
        gn.second == "REDUCE_OUTPUT_RECORDS") {
      out[gn.second] = v;
    }
  }
  std::vector<const char*> keys = {"shuffle_wire_bytes", "dedup_objects"};
  // Under a memory budget the cache evicts from a background thread racing
  // the job, so which splits hit differs between two untraced runs too;
  // the splits are compared only on an ungoverned cache.
  if (!r.metrics.count("memory_budget_bytes")) {
    keys.push_back("cache_hit_splits");
    keys.push_back("cache_miss_splits");
  }
  for (const char* key : keys) {
    auto it = r.metrics.find(key);
    out[key] = it == r.metrics.end() ? 0 : it->second;
  }
  return out;
}

/// True when `traced` produced the same outputs and engine counts as
/// `plain`; prints every difference.
bool SameProgram(const Rep& plain, const Rep& traced) {
  bool same = plain.jobs.size() == traced.jobs.size();
  if (!same) std::printf("identity: job counts differ\n");
  for (size_t i = 0; i < plain.jobs.size() && i < traced.jobs.size(); ++i) {
    if (plain.jobs[i].check.digest != traced.jobs[i].check.digest) {
      std::printf("identity: job %zu output differs\n", i);
      same = false;
    }
    auto a = EngineCounts(plain.jobs[i].result);
    auto b = EngineCounts(traced.jobs[i].result);
    for (const auto& [k, v] : a) {
      if (b[k] != v) {
        std::printf("identity: job %zu %s untraced=%lld traced=%lld\n", i,
                    k.c_str(), static_cast<long long>(v),
                    static_cast<long long>(b[k]));
        same = false;
      }
    }
  }
  return same;
}

// -------------------------------------------------------------- metrics ---

/// A sequence's time from repeated runs of it: each job's median over the
/// repetitions, summed over the jobs. Under a memory budget a host stall
/// inside one job is now and then charged as tens of sim seconds (README.md,
/// "Workloads"); the per-job median keeps one such job from moving the
/// figure, while each repetition's own sum stays in the log.
double MedianSequence(const std::vector<Rep>& reps,
                      const std::function<double(const JobOutcome&)>& time) {
  double total = 0;
  for (size_t j = 0;; ++j) {
    std::vector<double> v;
    for (const Rep& rep : reps) {
      if (j < rep.jobs.size()) v.push_back(time(rep.jobs[j]));
    }
    if (v.empty()) return total;
    total += Median(v);
  }
}

int64_t MetricOf(const api::JobResult& r, const char* key) {
  auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0 : it->second;
}

double BreakdownOf(const api::JobResult& r, const char* key) {
  auto it = r.time_breakdown.find(key);
  return it == r.time_breakdown.end() ? 0 : it->second;
}

/// Per-layer figures the engines report themselves (JobResult metrics and
/// time_breakdown), for one repetition.
std::map<std::string, double> EngineLedger(const Rep& rep) {
  std::map<std::string, double> m;
  const bool m3r = !rep.jobs.empty() &&
                   rep.jobs.front().result.time_breakdown.count("shuffle");
  double local = 0, remote = 0, hits = 0, misses = 0, l2_hits = 0,
         l2_misses = 0, dedup = 0, dedup_saved = 0;
  std::map<int, double> iter_sim;
  for (const JobOutcome& j : rep.jobs) {
    const api::JobResult& r = j.result;
    iter_sim[j.iteration] += r.sim_seconds;
    const std::string p = m3r ? "m3r." : "hadoop.";
    m[p + "map_phase_sim_s"] += BreakdownOf(r, "map_phase");
    m[p + "reduce_phase_sim_s"] += BreakdownOf(r, "reduce_phase");
    m[p + "sort_sim_s"] += BreakdownOf(r, "sort");
    if (m3r) {
      m["m3r.shuffle_sim_s"] += BreakdownOf(r, "shuffle");
      m["m3r.job_overhead_sim_s"] += BreakdownOf(r, "job_overhead");
      m["m3r.first_reduce_sim_s"] +=
          MetricOf(r, "time_to_first_reduce_ms") / 1e3;
      m["m3r.shuffle_wire_mb"] += MetricOf(r, "shuffle_wire_bytes") / kMiB;
      m["m3r.runs_shipped"] += MetricOf(r, "shuffle_runs_shipped");
      m["m3r.aliased_pairs"] += MetricOf(r, "aliased_pairs");
    } else {
      m["hadoop.submit_sim_s"] += BreakdownOf(r, "submit");
      m["hadoop.commit_sim_s"] += BreakdownOf(r, "commit");
      m["hadoop.spill_mb"] += MetricOf(r, "spill_write_bytes") / kMiB;
      m["hadoop.merge_mb"] += (MetricOf(r, "map_merge_bytes") +
                               MetricOf(r, "reduce_merge_bytes")) /
                              kMiB;
    }
    local += MetricOf(r, "shuffle_local_pairs");
    remote += MetricOf(r, "shuffle_remote_pairs");
    hits += MetricOf(r, "cache_hit_splits");
    misses += MetricOf(r, "cache_miss_splits");
    dedup += MetricOf(r, "dedup_objects");
    dedup_saved += MetricOf(r, "dedup_saved_bytes");
    l2_hits += MetricOf(r, "l2_hits");
    l2_misses += MetricOf(r, "l2_misses");
    m["memgov.evictions"] += MetricOf(r, "cache_evictions");
    m["memgov.evicted_mb"] += MetricOf(r, "cache_evicted_bytes") / kMiB;
    m["memgov.rejected_fills"] += MetricOf(r, "cache_rejected_fills");
    m["memgov.spilled_evictions"] += MetricOf(r, "cache_spilled_evictions");
    m["memgov.peak_mb"] = std::max(m["memgov.peak_mb"],
                                   MetricOf(r, "memory_peak_bytes") / kMiB);
    m["l2cache.demotions"] += MetricOf(r, "l2_demotions");
    m["l2cache.remote_mb"] += MetricOf(r, "l2_remote_bytes") / kMiB;
    m["l2cache.overflow_fills"] += MetricOf(r, "l2_overflow_fills");
  }
  m["m3r.remote_pair_frac"] = Ratio(remote, local + remote);
  m["m3r.cache_hit_ratio"] = Ratio(hits, hits + misses);
  m["serialize.dedup_hit_ratio"] = Ratio(dedup, remote);
  m["serialize.dedup_saved_mb"] = dedup_saved / kMiB;
  m["l2cache.hit_ratio"] = Ratio(l2_hits, l2_hits + l2_misses);
  if (m3r) {
    m["m3r.first_iter_sim_s"] = iter_sim.empty() ? 0 : iter_sim.begin()->second;
    double warm = 0;
    for (const auto& [it, s] : iter_sim) warm += it > 0 ? s : 0;
    m["m3r.warm_iter_sim_s"] = Ratio(warm, iter_sim.size() - 1.0);
  }
  return m;
}

/// Figures from the wrappers' spans of one traced repetition.
std::map<std::string, double> WrapperLedger(const std::vector<Span>& spans) {
  std::map<std::string, double> m;
  double map_user = 0, collect = 0, records = 0, values = 0, reduce_user = 0,
         output = 0, groups = 0;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kMapTask) {
      map_user += s.user_ns;
      collect += s.child_ns;
      records += s.child_calls;
    } else if (s.kind == SpanKind::kReduceTask) {
      values += s.values_ns;
      reduce_user += s.user_ns;
      output += s.output_ns;
      groups += s.groups;
    }
  }
  m["api.map_user_s"] = map_user / 1e9;
  m["api.collect_s"] = collect / 1e9;
  m["api.collect_ns_per_rec"] = Ratio(collect, records);
  m["api.values_next_s"] = values / 1e9;
  m["api.reduce_user_s"] = reduce_user / 1e9;
  m["api.output_collect_s"] = output / 1e9;
  m["api.map_records"] = records;
  m["api.reduce_groups"] = groups;
  return m;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, double>& values,
                 const MetricDecl* decls, size_t n) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(decls[i].name);
    M3R_CHECK(it != values.end()) << "metric not computed: " << decls[i].name;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", it->second);
    out += std::string(i ? ", " : "") + "\"" + decls[i].name +
           "\": {\"value\": " + num + ", \"unit\": \"" + decls[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o->smoke = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--trace-out") &&
               (v = value()) != nullptr) {
      if (a == "--workload") o->workload = v;
      if (a == "--seed") o->seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o->seconds = std::strtod(v, nullptr);
      if (a == "--trace") o->trace = std::strcmp(v, "1") == 0;
      if (a == "--trace-out") o->trace_out = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s --workload wordcount|wordcount_hadoop|spmv|"
                 "spmv_pressure --seed N --seconds S --trace 0|1 [--smoke] "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const Sizes& sizes = opts.smoke ? kSmokeSizes : kFullSizes;
  std::unique_ptr<Workload> w = MakeWorkload(opts.workload, sizes);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
    return 2;
  }
  RegisterTracedClasses();
  // Three repetitions at least, so that each job's median below is taken
  // over three values and one disturbed repetition cannot move it.
  const size_t min_reps = opts.smoke ? 1 : 3;
  // Untraced repetitions get the whole budget, or half of it when a
  // traced repetition follows.
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;

  std::vector<Rep> reps;
  const int64_t start = NowNs();
  double last = 0;
  while (reps.size() < min_reps ||
         (NowNs() - start) / 1e9 + last <= budget) {
    const int64_t t0 = NowNs();
    reps.push_back(RunRep(*w, opts.seed, nullptr));
    last = (NowNs() - t0) / 1e9;
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<double> setups;
  for (const Rep& rep : reps) {
    setups.push_back(rep.setup_s);
    const size_t planned = w->Jobs().size();
    attempted += planned;
    for (const JobOutcome& j : rep.jobs) failed += j.ok() ? 0 : 1;
    failed += planned - rep.jobs.size();  // never submitted: count as failed
  }
  std::printf("workload=%s seed=%llu reps=%zu jobs/rep=%zu\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              reps.size(), w->Jobs().size());
  std::printf("error_rate = %llu/%llu jobs failed or differ from the "
              "reference\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  if (!opts.trace) {
    std::map<std::string, double> e2e;
    e2e["sim_s"] = MedianSequence(reps, [](const JobOutcome& j) {
      return j.result.sim_seconds;
    });
    e2e["wall_s"] =
        MedianSequence(reps, [](const JobOutcome& j) { return j.wall_s; });
    e2e["setup_s"] = Median(setups);
    // The first repetition's: the high-water mark of a fresh process over
    // one set-up and sequence. Later repetitions' include earlier checks.
    e2e["peak_rss_mb"] = reps.front().peak_rss_mb;
    e2e["correct_job_ratio"] = Ratio(attempted - failed, attempted);
    PrintResult(failed == 0, attempted, failed, e2e, kEndToEnd,
                std::size(kEndToEnd));
    return 0;
  }

  DfsTotals dfs_totals;
  Rep traced = RunRep(*w, opts.seed, &dfs_totals);
  attempted += w->Jobs().size();
  for (const JobOutcome& j : traced.jobs) failed += j.ok() ? 0 : 1;
  failed += w->Jobs().size() - traced.jobs.size();
  const bool same = SameProgram(reps.front(), traced);
  std::printf("identity (outputs and engine counts, traced vs untraced): %s\n",
              same ? "same" : "DIFFERENT");

  // Engine-reported layers: median over the untraced repetitions, which
  // tracing cannot have perturbed.
  std::map<std::string, std::vector<double>> per_rep;
  for (const Rep& rep : reps) {
    for (const auto& [k, v] : EngineLedger(rep)) per_rep[k].push_back(v);
  }
  std::map<std::string, double> layers;
  for (const MetricDecl& d : kPerLayer) layers[d.name] = 0;
  for (const auto& [k, v] : per_rep) layers[k] = Median(v);
  for (const auto& [k, v] : WrapperLedger(traced.spans)) layers[k] = v;
  for (const auto& [k, v] : traced.dfs) layers[k] = v;
  const ReplayCosts replay =
      ReplayLayers(traced.capture, traced.capture_conf, traced.num_places);
  layers["sortkit.sort_ns_per_rec"] = replay.sort_ns_per_rec;
  layers["sortkit.merge_ns_per_rec"] = replay.merge_ns_per_rec;
  layers["x10rt.encode_ns_per_obj"] = replay.encode_ns_per_obj;
  layers["x10rt.decode_ns_per_obj"] = replay.decode_ns_per_obj;
  const double plain_wall =
      MedianSequence(reps, [](const JobOutcome& j) { return j.wall_s; });
  layers["trace.overhead_pct"] =
      100.0 * Ratio(traced.wall_s - plain_wall, plain_wall);
  std::printf("replayed %zu captured map-output pairs; spans=%zu; "
              "ratio bases: remote_pair_frac=local+remote pairs, "
              "cache_hit_ratio=hit+miss splits, dedup_hit_ratio=remote pairs, "
              "l2cache.hit_ratio=L2 hits+misses\n",
              traced.capture.size(), traced.spans.size());
  if (!opts.trace_out.empty() &&
      !WriteChromeTrace(opts.trace_out, traced.spans)) {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
    return 1;
  }
  PrintResult(failed == 0 && same, attempted, failed, layers, kPerLayer,
              std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace m3r::perfbench

int main(int argc, char** argv) { return m3r::perfbench::Main(argc, argv); }
