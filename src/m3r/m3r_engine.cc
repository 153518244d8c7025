#include "m3r/m3r_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/class_registry.h"
#include "api/distributed_cache.h"
#include "api/hash_combine.h"
#include "api/map_output_arena.h"
#include "api/multiple_io.h"
#include "api/output_format.h"
#include "api/task_runner.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/integrity.h"
#include "common/logging.h"
#include "common/membership.h"
#include "common/path.h"
#include "common/stopwatch.h"
#include "m3r/shuffle.h"
#include "memgov/lineage.h"
#include "serialize/comparators.h"
#include "serialize/registry.h"
#include "sim/timeline.h"
#include "x10rt/channel.h"

namespace m3r::engine {

namespace {

using api::JobConf;
using api::WritablePtr;
using kvstore::KVSeq;

/// Finds a split of type T — a PlacedSplit (paper §4.3) or the underlying
/// FileSplit — through any DelegatingSplit wrappers.
template <typename T>
const T* FindSplit(const api::InputSplit& split) {
  if (const auto* found = dynamic_cast<const T*>(&split)) return found;
  if (const auto* delegating =
          dynamic_cast<const api::DelegatingSplit*>(&split)) {
    return FindSplit<T>(delegating->GetBaseSplit());
  }
  return nullptr;
}

/// Whether the configured map chain promises immutable output. M3R decides
/// this *before* running the task, from the classes' interfaces (§4.1).
bool MapOutputImmutable(const JobConf& conf) {
  if (conf.UsesNewApiMapper()) {
    auto mapper = api::ObjectRegistry<api::mapreduce::Mapper>::Instance()
                      .Create(conf.Get(api::conf::kMapreduceMapper));
    return api::IsImmutableOutput(mapper.get());
  }
  if (!conf.Contains(api::conf::kMapredMapper)) return false;
  auto mapper = api::ObjectRegistry<api::mapred::Mapper>::Instance().Create(
      conf.Get(api::conf::kMapredMapper));
  bool runner_immutable = true;  // M3R's fresh default runner
  if (conf.Contains(api::conf::kMapRunner)) {
    auto runner = api::ObjectRegistry<api::mapred::MapRunnable>::Instance()
                      .Create(conf.Get(api::conf::kMapRunner));
    runner_immutable = api::IsImmutableOutput(runner.get());
  }
  return runner_immutable && api::IsImmutableOutput(mapper.get());
}

/// The same promise for a reducer-shaped class: the combiner or the reducer,
/// configured under `new_key` (new API) or `old_key`.
bool ReducerOutputImmutable(const JobConf& conf, bool new_api,
                            const char* new_key, const char* old_key) {
  if (new_api) {
    auto reducer = api::ObjectRegistry<api::mapreduce::Reducer>::Instance()
                       .Create(conf.Get(new_key));
    return api::IsImmutableOutput(reducer.get());
  }
  if (!conf.Contains(old_key)) return false;
  auto reducer = api::ObjectRegistry<api::mapred::Reducer>::Instance().Create(
      conf.Get(old_key));
  return api::IsImmutableOutput(reducer.get());
}

/// Reads a split through its (split-specialized) input format.
Result<KVSeq> ReadSplit(const api::InputSplit& base_split,
                        const JobConf& tconf, dfs::FileSystem& fs) {
  M3R_ASSIGN_OR_RETURN(
      auto reader,
      api::MakeInputFormat(tconf)->GetRecordReader(base_split, tconf, fs));
  KVSeq seq;
  for (;;) {
    WritablePtr k = reader->CreateKey();
    WritablePtr v = reader->CreateValue();
    if (!reader->Next(*k, *v)) break;
    seq.emplace_back(std::move(k), std::move(v));
  }
  reader->Close();
  return seq;
}

/// A task reads locally when it is a cache hit or its place holds one of
/// the split's replicas.
bool ReadsLocally(bool cache_hit, const std::vector<int>& locations,
                  int place, int num_places) {
  return cache_hit ||
         std::any_of(locations.begin(), locations.end(),
                     [&](int n) { return n % num_places == place; });
}

/// Map-phase progress: 5% at start, 60% once every map task is done.
double MapProgress(size_t done, size_t total) {
  return 0.05 + 0.55 * static_cast<double>(done) /
                    static_cast<double>(std::max<size_t>(total, 1));
}

/// One task's (or hash-combine lane's) counters. Everything the task
/// reports lands in a private Counters, so no record takes the job-wide
/// lock; the tally folds into the job's counters exactly once — by Merge()
/// just before the task reports progress, or by the destructor on any early
/// return.
class TaskCounters {
 public:
  explicit TaskCounters(api::Counters* job) : job_(job) {}
  TaskCounters(const TaskCounters&) = delete;
  TaskCounters& operator=(const TaskCounters&) = delete;
  ~TaskCounters() { Merge(); }

  api::Reporter& reporter() { return reporter_; }

  void Merge() {
    if (job_ == nullptr) return;
    job_->MergeFrom(local_);
    job_ = nullptr;
  }

 private:
  api::Counters* job_;
  api::Counters local_;
  api::CountersReporter reporter_{&local_};
};

/// New-API MapContext over a cached pair sequence: keys/values are served
/// as aliases of the cached objects — the zero-copy path.
class SeqMapContext : public api::mapreduce::MapContext {
 public:
  SeqMapContext(const JobConf& conf, const KVSeq& pairs,
                api::OutputCollector& collector, api::Reporter& reporter)
      : conf_(conf), pairs_(pairs), collector_(collector),
        reporter_(reporter) {}
  SeqMapContext(const SeqMapContext&) = delete;
  SeqMapContext& operator=(const SeqMapContext&) = delete;
  ~SeqMapContext() override {
    api::ReportTally(reporter_, api::counters::kTaskGroup,
                api::counters::kMapInputRecords,
                static_cast<int64_t>(index_));
  }

  bool NextKeyValue() override {
    if (index_ >= pairs_.size()) return false;
    key_ = pairs_[index_].first;
    value_ = pairs_[index_].second;
    ++index_;
    return true;
  }
  const WritablePtr& CurrentKey() const override { return key_; }
  const WritablePtr& CurrentValue() const override { return value_; }
  void Write(const WritablePtr& key, const WritablePtr& value) override {
    collector_.Collect(key, value);
  }
  void IncrCounter(const std::string& group, const std::string& name,
                   int64_t delta) override {
    reporter_.IncrCounter(group, name, delta);
  }
  const JobConf& Conf() const override { return conf_; }

 private:
  const JobConf& conf_;
  const KVSeq& pairs_;
  api::OutputCollector& collector_;
  api::Reporter& reporter_;
  size_t index_ = 0;
  WritablePtr key_;
  WritablePtr value_;
};

/// Runs the job's mapper over an in-memory pair sequence (cache hit or
/// just-read input). Old-API mappers get aliases directly; custom
/// MapRunnables go through a copy-out RecordReader to honor their API.
Status FeedMapper(const JobConf& conf, const KVSeq& pairs,
                  api::OutputCollector& collector, api::Reporter& reporter) {
  if (conf.Contains(api::conf::kMapRunner)) {
    auto runner = api::ObjectRegistry<api::mapred::MapRunnable>::Instance()
                      .Create(conf.Get(api::conf::kMapRunner));
    runner->Configure(conf);
    Cache::Block block;
    block.pairs = std::make_shared<const KVSeq>(pairs);
    std::vector<Cache::Block> blocks;
    blocks.push_back(std::move(block));
    auto reader = MakeCachedReader(std::move(blocks));
    runner->Run(*reader, collector, reporter);
    return Status::OK();
  }
  if (conf.UsesNewApiMapper()) {
    auto mapper = api::ObjectRegistry<api::mapreduce::Mapper>::Instance()
                      .Create(conf.Get(api::conf::kMapreduceMapper));
    SeqMapContext ctx(conf, pairs, collector, reporter);
    mapper->Run(ctx);
    return Status::OK();
  }
  if (!conf.Contains(api::conf::kMapredMapper)) {
    return Status::InvalidArgument("job has no mapper class");
  }
  auto mapper = api::ObjectRegistry<api::mapred::Mapper>::Instance().Create(
      conf.Get(api::conf::kMapredMapper));
  mapper->Configure(conf);
  for (const auto& [k, v] : pairs) mapper->Map(k, v, collector, reporter);
  api::ReportTally(reporter, api::counters::kTaskGroup,
              api::counters::kMapInputRecords,
              static_cast<int64_t>(pairs.size()));
  mapper->Close();
  return Status::OK();
}

/// Buffers one map task's output in the shared map-output arena, runs the
/// job's combiner per partition, and forwards the combined pairs into the
/// shuffle — M3R's equivalent of Hadoop combining each spill. Collect
/// serializes, so a mutable mapper's pair is copied once, into the arena,
/// and the combiner always reads freshly rebuilt objects. Its output objects
/// are created inside the combine call, so their immutability is governed
/// by the combiner class's own ImmutableOutput promise.
class CombiningShuffleCollector : public api::OutputCollector {
 public:
  /// `sort_cmp` is the job's sort comparator and `order` its sortkit form
  /// (null for the raw byte default); `order` must outlive the collector.
  CombiningShuffleCollector(const JobConf& conf, ShuffleExchange* shuffle,
                            api::Partitioner* partitioner, int src_place,
                            int worker_lane, int num_partitions,
                            bool mapper_immutable, bool combiner_immutable,
                            serialize::RawComparatorPtr sort_cmp,
                            const sortkit::RawCompareFn* order,
                            api::Reporter* reporter)
      : conf_(conf), shuffle_(shuffle), partitioner_(partitioner),
        src_place_(src_place), worker_lane_(worker_lane),
        num_partitions_(num_partitions), sort_cmp_(std::move(sort_cmp)),
        order_(order),
        mapper_immutable_(mapper_immutable),
        combiner_immutable_(combiner_immutable), reporter_(reporter),
        factories_(conf), arena_(num_partitions) {}
  CombiningShuffleCollector(const CombiningShuffleCollector&) = delete;
  CombiningShuffleCollector& operator=(const CombiningShuffleCollector&) =
      delete;
  ~CombiningShuffleCollector() override {
    api::ReportTally(*reporter_, api::counters::kTaskGroup,
                api::counters::kMapOutputRecords, output_records_);
    api::ReportTally(*reporter_, api::counters::kM3rGroup,
                api::counters::kClonedPairs, cloned_pairs_);
    api::ReportTally(*reporter_, api::counters::kTaskGroup,
                api::counters::kCombineInputRecords, combine_input_records_);
    api::ReportTally(*reporter_, api::counters::kTaskGroup,
                api::counters::kCombineOutputRecords,
                combine_output_records_);
  }

  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    int partition =
        partitioner_->GetPartition(*key, *value, num_partitions_);
    M3R_CHECK(partition >= 0 && partition < num_partitions_);
    // Without ImmutableOutput the serialization is the pair's copy.
    if (!mapper_immutable_) ++cloned_pairs_;
    arena_.Add(partition, *key, *value);
    ++output_records_;
  }

  /// Runs the combiner over every buffered partition and emits the results.
  Status Flush() {
    class EmitCollector : public api::OutputCollector {
     public:
      EmitCollector(CombiningShuffleCollector* outer, int partition)
          : outer_(outer), partition_(partition) {}
      void Collect(const WritablePtr& key, const WritablePtr& value) override {
        outer_->shuffle_->Emit(outer_->src_place_, partition_, key, value,
                               outer_->combiner_immutable_,
                               outer_->worker_lane_);
        ++outer_->combine_output_records_;
      }

     private:
      CombiningShuffleCollector* outer_;
      int partition_;
    };

    arena_.Sort(order_);
    for (int p = 0; p < num_partitions_; ++p) {
      const size_t records = arena_.PartitionRecords(p);
      if (records == 0) continue;
      combine_input_records_ += static_cast<int64_t>(records);
      api::SpanGroupSource groups(sort_cmp_, factories_, arena_.Partition(p));
      EmitCollector emit(this, p);
      M3R_RETURN_NOT_OK(api::RunCombine(conf_, groups, emit, *reporter_));
    }
    arena_.Clear();
    return Status::OK();
  }

 private:
  const JobConf& conf_;
  ShuffleExchange* shuffle_;
  api::Partitioner* partitioner_;
  int src_place_;
  int worker_lane_;
  int num_partitions_;
  serialize::RawComparatorPtr sort_cmp_;
  const sortkit::RawCompareFn* order_;
  bool mapper_immutable_;
  bool combiner_immutable_;
  api::Reporter* reporter_;
  const api::MapOutputFactories factories_;
  api::MapOutputArena arena_;
  // Per-record system counters, reported once by the destructor.
  int64_t output_records_ = 0;
  int64_t cloned_pairs_ = 0;
  int64_t combine_input_records_ = 0;
  int64_t combine_output_records_ = 0;
};

/// Routes mapper output into the shuffle.
class ShuffleCollector : public api::OutputCollector {
 public:
  ShuffleCollector(ShuffleExchange* shuffle, api::Partitioner* partitioner,
                   int src_place, int worker_lane, int num_partitions,
                   bool immutable, api::Reporter* reporter)
      : shuffle_(shuffle), partitioner_(partitioner), src_place_(src_place),
        worker_lane_(worker_lane), num_partitions_(num_partitions),
        immutable_(immutable), reporter_(reporter) {}
  ShuffleCollector(const ShuffleCollector&) = delete;
  ShuffleCollector& operator=(const ShuffleCollector&) = delete;
  ~ShuffleCollector() override {
    api::ReportTally(*reporter_, api::counters::kTaskGroup,
                api::counters::kMapOutputRecords, output_records_);
  }

  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    int partition =
        partitioner_->GetPartition(*key, *value, num_partitions_);
    shuffle_->Emit(src_place_, partition, key, value, immutable_,
                   worker_lane_);
    ++output_records_;
  }

 private:
  ShuffleExchange* shuffle_;
  api::Partitioner* partitioner_;
  int src_place_;
  int worker_lane_;
  int num_partitions_;
  bool immutable_;
  api::Reporter* reporter_;
  int64_t output_records_ = 0;  // reported once by the destructor
};

/// Collects final output: into a cache sequence (alias or clone per the
/// producer's immutability) and optionally through a RecordWriter to the
/// DFS (skipped entirely for temporary outputs, paper §4.2.3).
class OutputSeqCollector : public api::OutputCollector {
 public:
  OutputSeqCollector(bool immutable, api::RecordWriter* writer,
                     api::Reporter* reporter, const char* records_counter)
      : immutable_(immutable), writer_(writer), reporter_(reporter),
        records_counter_(records_counter) {}
  OutputSeqCollector(const OutputSeqCollector&) = delete;
  OutputSeqCollector& operator=(const OutputSeqCollector&) = delete;
  ~OutputSeqCollector() override {
    api::ReportTally(*reporter_, api::counters::kTaskGroup, records_counter_,
                records_);
  }

  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    WritablePtr k = immutable_ ? key : key->Clone();
    WritablePtr v = immutable_ ? value : value->Clone();
    bytes_ += k->SerializedSize() + v->SerializedSize();
    if (writer_ != nullptr) M3R_CHECK_OK(writer_->Write(*k, *v));
    seq_.emplace_back(std::move(k), std::move(v));
    ++records_;
  }

  KVSeq TakeSeq() { return std::move(seq_); }
  uint64_t bytes() const { return bytes_; }

 private:
  bool immutable_;
  api::RecordWriter* writer_;
  api::Reporter* reporter_;
  const char* records_counter_;
  KVSeq seq_;
  uint64_t bytes_ = 0;
  int64_t records_ = 0;  // reported once by the destructor
};

/// M3R-side MultipleOutputs sink: named outputs are cached (cache-aware
/// MultipleOutputs, paper §4.2.2) and, unless the job output is temporary,
/// written through their own output format.
class M3RNamedOutputSink : public api::NamedOutputSink {
 public:
  M3RNamedOutputSink(const JobConf& conf, dfs::FileSystem& fs, Cache* cache,
                     int partition, int place, bool temporary)
      : conf_(conf), fs_(fs), cache_(cache), partition_(partition),
        place_(place), temporary_(temporary) {}

  Status WriteNamed(const std::string& name, const WritablePtr& key,
                    const WritablePtr& value) override {
    Entry& e = entries_[name];
    if (!e.opened) {
      e.opened = true;
      e.path = conf_.OutputPath() + "/" + name + "-" +
               api::file_output::PartFileName(partition_);
      if (!temporary_) {
        std::string format_name =
            api::MultipleOutputs::OutputFormatFor(conf_, name);
        if (format_name.empty()) {
          return Status::InvalidArgument("unknown named output: " + name);
        }
        auto format =
            api::ObjectRegistry<api::OutputFormat>::Instance().Create(
                format_name);
        M3R_ASSIGN_OR_RETURN(e.writer,
                             format->GetRecordWriter(conf_, fs_, e.path,
                                                     place_));
      }
    }
    // Clone conservatively: MultipleOutputs carries no immutability promise.
    WritablePtr k = key->Clone();
    WritablePtr v = value->Clone();
    e.bytes += k->SerializedSize() + v->SerializedSize();
    if (e.writer != nullptr) M3R_RETURN_NOT_OK(e.writer->Write(*k, *v));
    e.seq.emplace_back(std::move(k), std::move(v));
    return Status::OK();
  }

  /// Publishes cache blocks and closes writers. `dfs_bytes` accumulates
  /// bytes that went to the DFS (for cost charging).
  Status Finish(uint64_t* dfs_bytes) {
    for (auto& [name, e] : entries_) {
      if (e.writer != nullptr) {
        M3R_RETURN_NOT_OK(e.writer->Close());
        *dfs_bytes += e.writer->BytesWritten();
      }
      M3R_RETURN_NOT_OK(cache_->PutBlock(e.path, "0", place_,
                                         std::move(e.seq), e.bytes,
                                         /*fill_seconds=*/0.0,
                                         /*droppable=*/!temporary_,
                                         /*whole_file=*/true));
    }
    entries_.clear();
    return Status::OK();
  }

 private:
  struct Entry {
    bool opened = false;
    std::string path;
    std::unique_ptr<api::RecordWriter> writer;
    KVSeq seq;
    uint64_t bytes = 0;
  };
  const JobConf& conf_;
  dfs::FileSystem& fs_;
  Cache* cache_;
  int partition_;
  int place_;
  bool temporary_;
  std::map<std::string, Entry> entries_;
};

/// Virtual points per place on the L2 hash ring (DESIGN.md §16).
constexpr int kL2VNodes = 16;

/// Serializes a cached block into an L2 / checkpoint payload: the pairs'
/// channel wire bytes, their CRC32C, and the block's placement.
l2cache::BlockPayload EncodeBlock(const std::string& block_name, int place,
                                  uint64_t bytes, bool whole_file,
                                  const KVSeq& pairs,
                                  serialize::DedupMode mode) {
  x10rt::Channel ch(mode);
  for (const auto& [k, v] : pairs) {
    ch.Send(k);
    ch.Send(v);
  }
  l2cache::BlockPayload p;
  p.block_name = block_name;
  p.place = place;
  p.bytes = bytes;
  p.whole_file = whole_file;
  p.wire = ch.Finish().bytes;
  p.crc = crc32c::Crc32c(p.wire);
  return p;
}

KVSeq DecodePairs(const std::string& wire) {
  std::vector<serialize::WritablePtr> objs = x10rt::Channel::Decode(wire);
  KVSeq seq;
  seq.reserve(objs.size() / 2);
  for (size_t i = 0; i + 1 < objs.size(); i += 2) {
    seq.emplace_back(objs[i], objs[i + 1]);
  }
  return seq;
}

/// A checkpoint spill file. Header: home place, byte estimate, payload
/// CRC32C, whole-file flag. The stamp is unconditional (like the DFS's
/// block checksums) so a restore under any integrity mode can verify it.
std::string CheckpointFileContent(const l2cache::BlockPayload& p) {
  return std::to_string(p.place) + " " + std::to_string(p.bytes) + " " +
         std::to_string(p.crc) + " " + (p.whole_file ? "1" : "0") + "\n" +
         p.wire;
}

/// Where the checkpoint spills of cached directory `dir` live.
std::string CheckpointDirOf(const std::string& dir) {
  return std::string(M3REngine::kCheckpointRoot) + (dir == "/" ? "" : dir);
}

/// Parses scripted crash points "P:N[,P:N...]" (place P dies when it is
/// about to start its (N+1)-th map task); nullopt on a malformed entry.
std::optional<std::map<int, int>> ParseCrashScript(const std::string& script) {
  std::map<int, int> out;
  size_t pos = 0;
  while (pos < script.size()) {
    size_t comma = script.find(',', pos);
    const std::string item = script.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? script.size() : comma + 1;
    if (item.empty()) continue;
    char* after_place = nullptr;
    long p = std::strtol(item.c_str(), &after_place, 10);
    char* after_ordinal = nullptr;
    long n = after_place != nullptr && *after_place == ':'
                 ? std::strtol(after_place + 1, &after_ordinal, 10)
                 : -1;
    if (after_place == item.c_str() || *after_place != ':' ||
        after_ordinal == after_place + 1 ||
        (after_ordinal != nullptr && *after_ordinal != '\0') || p < 0 ||
        n < 0) {
      return std::nullopt;
    }
    out[static_cast<int>(p)] = static_cast<int>(n);
  }
  return out;
}

/// One cache-manager or L2 counter a job reports as a delta against its
/// submission-time baseline: the M3R counter it keeps live during the job
/// (nullptr: none) and the metric it becomes at job end.
template <typename Counters>
struct DeltaRow {
  const char* counter;
  const char* metric;
  uint64_t Counters::*field;
};

using CacheCounters = memgov::CacheManager::Counters;
constexpr DeltaRow<CacheCounters> kCacheDeltas[] = {
    {api::counters::kCacheEvictions, "cache_evictions",
     &CacheCounters::evictions},
    {api::counters::kCacheEvictedBytes, "cache_evicted_bytes",
     &CacheCounters::evicted_bytes},
    {nullptr, "cache_spilled_evictions", &CacheCounters::spilled_evictions},
    {api::counters::kCacheRejectedFills, "cache_rejected_fills",
     &CacheCounters::rejected_fills},
    {nullptr, "cache_forced_fills", &CacheCounters::forced_fills},
    {api::counters::kCacheAbortedEvictions, "cache_aborted_evictions",
     &CacheCounters::aborted_evictions},
};
constexpr DeltaRow<l2cache::L2Counters> kL2Deltas[] = {
    {api::counters::kL2Hits, "l2_hits", &l2cache::L2Counters::hits},
    {api::counters::kL2Misses, "l2_misses", &l2cache::L2Counters::misses},
    {api::counters::kL2Demotions, "l2_demotions",
     &l2cache::L2Counters::demotions},
    {api::counters::kL2RemoteBytes, "l2_remote_bytes",
     &l2cache::L2Counters::remote_bytes},
    {api::counters::kL2RingHeals, "l2_ring_heals",
     &l2cache::L2Counters::ring_heals},
    {nullptr, "l2_overflow_fills", &l2cache::L2Counters::overflow_fills},
};

/// K-way merges a reduce partition's shuffled sorted runs into its sorted
/// local `pairs`. Equal keys drain local-first, then in (source place,
/// lane, flush seq) order. Each run's key/value factories are resolved once
/// per run rather than by type name per record.
void MergeSortedRuns(const sortkit::RawCompareFn* cmp,
                     const std::vector<SortedRun>& runs,
                     std::vector<api::KeyedPair>* pairs) {
  if (runs.empty()) return;
  sortkit::RunMerger merger(cmp);
  size_t fed = 0;
  merger.AddRun(
      [pairs, &fed](std::string_view* k, std::string_view* v) {
        if (fed >= pairs->size()) return false;
        *k = (*pairs)[fed].key_bytes;
        *v = std::string_view();
        ++fed;
        return true;
      },
      /*ordinal=*/0);
  struct RunFactories {
    serialize::WritableRegistry::Factory make_key;
    serialize::WritableRegistry::Factory make_value;
  };
  const serialize::WritableRegistry& registry =
      serialize::WritableRegistry::Instance();
  std::unordered_map<uint64_t, RunFactories> factories_of;
  factories_of.reserve(runs.size());
  // Reserved up front: the merger keeps a pointer to each input.
  std::vector<serialize::DataInput> ins;
  ins.reserve(runs.size());
  uint64_t remote_records = 0;
  for (const SortedRun& run : runs) {
    remote_records += run.records;
    serialize::DataInput* in =
        &ins.emplace_back(std::string_view(run.bytes));
    const uint64_t ord = RunOrdinal(run.src_place, run.worker_lane, run.seq);
    factories_of.emplace(ord, RunFactories{registry.Resolve(run.key_type),
                                           registry.Resolve(run.value_type)});
    merger.AddRun(
        [in](std::string_view* k, std::string_view* v) {
          if (in->AtEnd()) return false;
          *k = in->ReadStringView();
          *v = in->ReadStringView();
          return true;
        },
        ord);
  }
  std::vector<api::KeyedPair> merged;
  merged.reserve(pairs->size() + remote_records);
  std::string_view mk, mv;
  uint64_t ord = 0;
  size_t consumed = 0;
  while (merger.Next(&mk, &mv, &ord)) {
    if (ord == 0) {
      merged.push_back(std::move((*pairs)[consumed++]));
      continue;
    }
    const RunFactories& run = factories_of.find(ord)->second;
    api::KeyedPair kp;
    kp.key_bytes.assign(mk.data(), mk.size());
    kp.key = run.make_key();
    serialize::DeserializeFromString(kp.key_bytes, kp.key.get());
    kp.value = run.make_value();
    serialize::DeserializeFromString(mv, kp.value.get());
    merged.push_back(std::move(kp));
  }
  *pairs = std::move(merged);
}

}  // namespace

struct M3REngine::TaskPlan {
  api::InputSplitPtr split;
  int place = 0;
  bool cache_hit = false;
  /// Split geometry did not line up with the cached blocks, but the whole
  /// file is cached as a single block: the start==0 split serves the block
  /// and its sibling splits serve nothing. This is how M3R fulfils "input
  /// split invocations from the key value sequence" (§3.2.1) even when a
  /// splitable format re-chops a cache-only (temporary) file.
  bool whole_file_hit = false;
  bool empty_hit = false;
  std::optional<std::string> cache_path;
  std::string block_name;
  bool local_read = false;
  /// Served by promoting the split's file from the L2 tier back into L1:
  /// charged the tier's memory/network cost instead of a DFS re-read.
  bool l2_hit = false;
  /// The promotion's bytes crossed places (home shard elsewhere).
  bool l2_remote = false;
  uint64_t input_bytes = 0;
  // Filled during execution.
  Status status;
  double cpu_seconds = 0;
  uint64_t output_bytes = 0;  // map-only jobs
  /// Completed once at a place that later died, and re-run on a survivor:
  /// the re-execution is charged to time_breakdown["recovery"], not to the
  /// crash-free map phase.
  bool replayed = false;
};

namespace {

/// Overflow-run storage for the shuffle's run sets: one DFS file per spilled
/// run under the job's checkpoint-root scratch directory. The exchange
/// stamps/verifies run CRCs itself, so this sink is plain byte transport.
class CheckpointRunSpillSink : public RunSpillSink {
 public:
  CheckpointRunSpillSink(dfs::FileSystem* fs, std::string dir)
      : fs_(fs), dir_(std::move(dir)) {}
  ~CheckpointRunSpillSink() override {
    // Best-effort sweep; spilled runs are job-scoped scratch.
    if (used_.load(std::memory_order_relaxed)) {
      fs_->Delete(dir_, /*recursive=*/true);
    }
  }
  Status Write(const std::string& id, const std::string& bytes) override {
    used_.store(true, std::memory_order_relaxed);
    return fs_->WriteFile(dir_ + "/" + id, bytes);
  }
  Status Read(const std::string& id, std::string* bytes) override {
    M3R_ASSIGN_OR_RETURN(*bytes, fs_->ReadFile(dir_ + "/" + id));
    return Status::OK();
  }

 private:
  dfs::FileSystem* const fs_;
  const std::string dir_;
  std::atomic<bool> used_{false};
};

struct ReduceResult {
  Status status;
  double cpu_seconds = 0;
  uint64_t output_bytes = 0;
};

}  // namespace

/// What one submission's stages share (DESIGN.md §17). Members are
/// destroyed in reverse declaration order: the exchange goes before the
/// comparator and spill sink it points at, and the fault/integrity guard,
/// declared first of the guards, comes off last.
struct M3REngine::JobContext {
  /// Installs the job's fault injector and integrity context on the base
  /// file system and the cache for the duration of the submission.
  class FaultGuard {
   public:
    FaultGuard(dfs::FileSystem* fs, Cache* cache,
               std::shared_ptr<FaultInjector> fault,
               std::shared_ptr<IntegrityContext> integrity)
        : fs_(fs), cache_(cache) {
      fs_->SetFaultInjector(std::move(fault));
      fs_->SetIntegrity(integrity);
      cache_->SetIntegrity(std::move(integrity));
    }
    FaultGuard(const FaultGuard&) = delete;
    FaultGuard& operator=(const FaultGuard&) = delete;
    ~FaultGuard() {
      fs_->SetFaultInjector(nullptr);
      fs_->SetIntegrity(nullptr);
      cache_->SetIntegrity(nullptr);
    }

   private:
    dfs::FileSystem* fs_;
    Cache* cache_;
  };

  /// Pins the job's input and output subtrees: the background evictor must
  /// never spill the data a running job is mapping over or publishing (pins
  /// also shield the reuse registry entries rooted under them).
  class PinGuard {
   public:
    explicit PinGuard(memgov::CacheManager* mgr) : mgr_(mgr) {}
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    ~PinGuard() { ReleaseAll(); }
    void Add(const std::string& p) {
      mgr_->Pin(p);
      paths_.push_back(p);
    }
    void ReleaseAll() {
      for (const std::string& p : paths_) mgr_->Unpin(p);
      paths_.clear();
    }

   private:
    memgov::CacheManager* mgr_;
    std::vector<std::string> paths_;
  };

  JobContext(const api::JobConf& submitted, int places,
             memgov::CacheManager* cache_manager)
      : conf(submitted),
        num_places(places),
        pins(cache_manager),
        membership(places),
        place_attempts(static_cast<size_t>(places)) {}

  /// Whether another place crash fails the job (a budget of 0 means no
  /// in-flight recovery at all). Race-free without a lock: crashes_handled
  /// only changes at quiesce, after the round's strands are joined.
  bool CrashBudgetSpent() const { return crashes_handled >= max_crashes; }
  /// The shuffle's run order when it is not the raw-byte default.
  const sortkit::RawCompareFn* run_comparator() const {
    return run_cmp ? &run_cmp : nullptr;
  }

  // --- Admit ---
  api::JobConf conf;
  api::JobResult result;
  Stopwatch wall;
  int salt = 0;
  const int num_places;
  int num_reduce = 0;
  bool temporary = false;
  bool checkpoint_tempout = false;
  bool reuse_exact = false;
  int max_crashes = 0;
  size_t flush_bytes = 0;
  size_t partition_budget_bytes = 0;
  std::map<int, int> crash_script;
  std::shared_ptr<FaultInjector> fault;
  std::shared_ptr<IntegrityContext> integrity;
  std::optional<FaultGuard> fault_guard;
  PinGuard pins;
  memgov::CacheManager::Counters mg0;
  l2cache::L2Counters l20;
  bool l2_on = false;
  std::mutex memgov_mu;

  // --- Reuse ---
  std::string lineage_sig;
  std::shared_ptr<api::OutputFormat> output_format;
  /// Output specs passed and the output is the job's: a failure from here
  /// on cleans it up and sends the FAILED job-end notification.
  bool owns_output = false;
  /// Served from a reused or checkpointed output; nothing left to run.
  bool served = false;

  // --- Place membership and crash tallies (DESIGN.md §14) ---
  MembershipService membership;
  std::mutex crash_mu;
  Status crash_status;  // first *unrecovered* crash; cleared per recovery
  int64_t place_crashes = 0;
  int64_t crash_evicted_blocks = 0;
  int64_t recovered_map_tasks = 0;
  uint64_t pmap_version = 1;

  // --- Plan ---
  std::vector<TaskPlan> tasks;
  std::vector<std::vector<size_t>> tasks_of_place;
  int workers = 1;
  std::optional<CheckpointRunSpillSink> run_spill_sink;
  serialize::RawComparatorPtr run_sort_cmp;
  sortkit::RawCompareFn run_cmp;
  std::optional<ShuffleExchange> shuffle;

  // --- MapRounds ---
  std::atomic<size_t> map_tasks_done{0};
  std::atomic<bool> map_aborted{false};
  std::atomic<bool> cancelled{false};
  /// Map tasks each place has started, for the scripted crash points.
  std::vector<std::atomic<int>> place_attempts;
  bool lane_hash_combine = false;
  std::mutex hash_mu;
  Status hash_status;
  /// Per-task completion, read at quiesce points (after the round's join)
  /// to tell lost-and-replayable work from never-started work. Each index
  /// is written by exactly one strand per round.
  std::vector<char> task_done;
  int crashes_handled = 0;
  double recovery_heal_seconds = 0;

  // --- Simulated timeline ---
  double t0 = 0;  // the per-job overhead every timeline starts after
  double phase_end = 0;  // map phase plus recovery span
  double reduce_start = 0;
  double total = 0;

  // --- Reduce ---
  std::vector<ReduceResult> reduce_results;
  bool reduce_immutable = false;
  /// Sort-kernel CPU across every reduce task (including work stolen by
  /// pool strands), charged to time_breakdown["sort"].
  std::mutex sort_mu;
  double sort_cpu_total = 0;
};

M3REngine::M3REngine(std::shared_ptr<dfs::FileSystem> base_fs,
                     M3REngineOptions options)
    : base_fs_(std::move(base_fs)),
      options_(options),
      cost_(options_.cluster),
      cache_(options_.cluster.num_nodes),
      fs_(std::make_shared<M3RFileSystem>(base_fs_, &cache_)),
      places_(options_.cluster.num_nodes, options_.host_threads) {
  memgov::CacheManager::Hooks hooks;
  hooks.spill = [this](const std::string& path) {
    return SpillFileToCheckpoint(path);
  };
  // Cache::Evict notifies the manager's OnDelete (closing the loop) but
  // keeps the directory manifest: the spill above preserved the data, and
  // the manifest is how a later read notices the gap and heals it.
  hooks.evict = [this](const std::string& path) { return cache_.Evict(path); };
  hooks.has_backing = [this](const std::string& path) {
    return base_fs_->Exists(path);
  };
  // The manager is the two-tier subclass (DESIGN.md §16); the L2 tier
  // stays dormant until a job enables it (m3r.cache.l2.share > 0 under a
  // governed budget), at which point evictions demote through `freeze`
  // and misses promote through `thaw`.
  l2cache::L2Hooks l2_hooks;
  l2_hooks.freeze = [this](const std::string& path,
                           std::vector<l2cache::BlockPayload>* out) {
    return FreezePayloads(path, out);
  };
  l2_hooks.thaw = [this](const std::string& path,
                         const std::vector<l2cache::BlockPayload>& payloads) {
    return ThawPayloads(path, payloads);
  };
  l2_hooks.spill = [this](const std::string& path,
                          const std::vector<l2cache::BlockPayload>& payloads) {
    return SpillPayloadsToCheckpoint(path, payloads);
  };
  l2_hooks.has_backing = [this](const std::string& path) {
    return base_fs_->Exists(path);
  };
  auto tiered = std::make_unique<l2cache::TieredCacheManager>(
      &governor_, std::move(hooks), std::move(l2_hooks));
  tiered_ = tiered.get();
  cache_manager_ = std::move(tiered);
  cache_.SetManager(cache_manager_.get());
  // Victim-cache overflow (DESIGN.md §16.2): a fill L1's admission bounced
  // is serialized straight into its L2 home shard, so a block that lost
  // the L1 race — typically to another consumer's pressure mid-phase — is
  // still tier-resident for the next pass instead of a DFS re-read.
  cache_.SetOverflowSink([this](const std::string& path,
                                const std::string& block_name, int place,
                                const kvstore::KVSeq& pairs, uint64_t bytes,
                                bool whole_file) {
    if (!tiered_->L2Enabled()) return;
    (void)tiered_->AcceptOverflow(
        path, base_fs_->Exists(path),
        EncodeBlock(block_name, place, bytes, whole_file, pairs,
                    options_.dedup_mode));
  });
  // Clients read cache-only outputs through fs_ (ListStatus union,
  // GetCacheRecordReader) without going through job submission, so the
  // FS must be able to restore what the background evictor spilled — from
  // the L2 tier first (a move back into L1), then from the checkpoint.
  fs_->SetHealHook([this](const std::string& dir) {
    tiered_->PromoteUnder(dir, /*only_unbacked=*/true, nullptr);
    return RestoreDirFromCheckpoint(dir, /*only_missing=*/true, nullptr,
                                    nullptr, nullptr);
  });
  governor_.RegisterGauge("shuffle.pool", [this] {
    // Pooled lane buffers plus the running job's resident sorted runs —
    // both are shuffle-owned memory the governor meters against the
    // budget.
    return buffer_pool_.ResidentBytes() +
           shuffle_run_bytes_.load(std::memory_order_relaxed);
  });
  governor_.RegisterGauge("hashcombine", [this] {
    int64_t v = hash_combine_bytes_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  });
}

M3REngine::~M3REngine() {
  WaitForCheckpoints();
  cache_.SetManager(nullptr);
  cache_manager_.reset();  // joins the background evictor
}

void M3REngine::WaitForCheckpoints() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    threads.swap(ckpt_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void M3REngine::ScheduleCheckpoint(std::vector<std::string> files) {
  struct FileSnap {
    std::string path;
    std::vector<Cache::Block> blocks;
  };
  // Snapshot the blocks up front: pair sequences are shared_ptrs, so the
  // spill thread works off an immutable view even if the cache moves on.
  // The snapshot is metered ("checkpoint.queue" consumer): it pins its
  // memory until the spill lands, which the governor must see.
  std::map<std::string, std::vector<FileSnap>> by_dir;
  uint64_t queued_bytes = 0;
  for (const std::string& f : files) {
    auto blocks_or = cache_.GetFileBlocks(f);
    if (!blocks_or.ok() || blocks_or->empty()) continue;
    for (const Cache::Block& block : *blocks_or) queued_bytes += block.bytes;
    size_t slash = f.find_last_of('/');
    std::string dir = slash == 0 ? "/" : f.substr(0, slash);
    by_dir[dir].push_back(FileSnap{f, blocks_or.take()});
  }
  if (by_dir.empty()) return;
  auto base = base_fs_;
  serialize::DedupMode mode = options_.dedup_mode;
  governor_.AddUsage("checkpoint.queue", static_cast<int64_t>(queued_bytes));
  // Under governance, eviction spills share the checkpoint directories and
  // must survive this thread's stale-spill cleanup: skip the pre-delete
  // and overwrite in place instead.
  const bool clean_stale = !governor_.governed();
  std::thread worker([this, base, mode, clean_stale, queued_bytes,
                      snap = std::move(by_dir)]() {
    for (const auto& [dir, group] : snap) {
      const std::string cdir = CheckpointDirOf(dir);
      if (clean_stale) {
        base->Delete(cdir, true);  // stale spill from an earlier sequence
      }
      bool all_ok = true;
      for (const FileSnap& file : group) {
        std::string name = file.path.substr(file.path.find_last_of('/') + 1);
        for (const Cache::Block& block : file.blocks) {
          Status st = base->WriteFile(
              cdir + "/" + name + ".blk." + block.info.name,
              CheckpointFileContent(EncodeBlock(
                  block.info.name, block.info.place, block.bytes,
                  block.info.whole_file, *block.pairs, mode)));
          if (!st.ok()) {
            all_ok = false;
            M3R_LOG(Warn) << "checkpoint spill of " << file.path
                          << " failed: " << st.ToString();
          }
        }
      }
      // The marker commits the directory: restores ignore markerless spills.
      if (all_ok) {
        Status st = base->WriteFile(cdir + "/_DONE", "1\n");
        if (!st.ok()) {
          M3R_LOG(Warn) << "checkpoint marker for " << cdir
                        << " failed: " << st.ToString();
        }
      }
    }
    governor_.AddUsage("checkpoint.queue",
                       -static_cast<int64_t>(queued_bytes));
  });
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  ckpt_threads_.push_back(std::move(worker));
}

Status M3REngine::SpillFileToCheckpoint(const std::string& path) {
  std::vector<l2cache::BlockPayload> payloads;
  M3R_RETURN_NOT_OK(FreezePayloads(path, &payloads));
  return SpillPayloadsToCheckpoint(path, payloads);
}

Status M3REngine::FreezePayloads(const std::string& path,
                                 std::vector<l2cache::BlockPayload>* out) {
  M3R_ASSIGN_OR_RETURN(std::vector<Cache::Block> blocks,
                       cache_.GetFileBlocks(path));
  if (blocks.empty()) return Status::NotFound("nothing cached: " + path);
  for (const Cache::Block& block : blocks) {
    out->push_back(EncodeBlock(block.info.name, block.info.place, block.bytes,
                               block.info.whole_file, *block.pairs,
                               options_.dedup_mode));
  }
  return Status::OK();
}

Status M3REngine::ThawPayloads(
    const std::string& path,
    const std::vector<l2cache::BlockPayload>& payloads) {
  for (const l2cache::BlockPayload& p : payloads) {
    if (cache_.GetBlock(path, p.block_name)) continue;  // already resident
    if (crc32c::Crc32c(p.wire) != p.crc) {
      return Status::DataLoss("L2 payload checksum mismatch: " + path);
    }
    M3R_RETURN_NOT_OK(cache_.PutBlock(path, p.block_name, p.place,
                                      DecodePairs(p.wire), p.bytes,
                                      /*fill_seconds=*/0.0,
                                      /*droppable=*/false, p.whole_file));
  }
  return Status::OK();
}

Status M3REngine::SpillPayloadsToCheckpoint(
    const std::string& path,
    const std::vector<l2cache::BlockPayload>& payloads) {
  if (payloads.empty()) return Status::NotFound("no payloads: " + path);
  const size_t slash = path.find_last_of('/');
  const std::string cdir =
      CheckpointDirOf(slash == 0 ? "/" : path.substr(0, slash));
  const std::string name = path.substr(slash + 1);
  for (const l2cache::BlockPayload& p : payloads) {
    M3R_RETURN_NOT_OK(base_fs_->WriteFile(
        cdir + "/" + name + ".blk." + p.block_name, CheckpointFileContent(p)));
  }
  // The file's spill is complete; (re)commit the directory so heals see it.
  return base_fs_->WriteFile(cdir + "/_DONE", "1\n");
}

uint64_t M3REngine::InputVersion(const std::string& path) {
  auto status_or = fs_->GetFileStatus(path);
  if (!status_or.ok()) return 0;
  if (!status_or->is_directory) {
    return status_or->length * 1000003u +
           static_cast<uint64_t>(status_or->mtime);
  }
  uint64_t version = 0;
  auto list_or = fs_->ListStatus(path);
  if (!list_or.ok()) return 0;
  for (const dfs::FileStatus& e : *list_or) {
    version = version * 31 + InputVersion(e.path);
  }
  return version;
}

Status M3REngine::RestoreDirFromCheckpoint(const std::string& dir,
                                           bool only_missing, int* files,
                                           uint64_t* bytes,
                                           const IntegrityContext* integrity) {
  const std::string cdir = std::string(kCheckpointRoot) + dir;
  if (!base_fs_->Exists(cdir + "/_DONE")) return Status::OK();
  M3R_ASSIGN_OR_RETURN(std::vector<dfs::FileStatus> entries,
                       base_fs_->ListStatus(cdir));
  for (const dfs::FileStatus& e : entries) {
    if (e.is_directory) continue;
    std::string name = e.path.substr(e.path.find_last_of('/') + 1);
    if (name == "_DONE") continue;
    size_t sep = name.rfind(".blk.");
    if (sep == std::string::npos) continue;
    std::string target = dir + "/" + name.substr(0, sep);
    std::string block_name = name.substr(sep + 5);
    if (only_missing && cache_.GetBlock(target, block_name)) continue;
    M3R_ASSIGN_OR_RETURN(std::string content, base_fs_->ReadFile(e.path));
    size_t nl = content.find('\n');
    if (nl == std::string::npos) {
      return Status::IOError("corrupt checkpoint: " + e.path);
    }
    char* rest = nullptr;
    std::string header = content.substr(0, nl);
    long place = std::strtol(header.c_str(), &rest, 10);
    char* after_est = nullptr;
    uint64_t est = std::strtoull(rest, &after_est, 10);
    place = place % std::max(places_.NumPlaces(), 1);
    std::string payload = content.substr(nl + 1);
    // Third header field (absent in pre-integrity spills): the payload's
    // CRC32C, verified before any byte reaches the channel decoder.
    char* after_crc = nullptr;
    uint64_t stored_crc = std::strtoull(after_est, &after_crc, 10);
    if (integrity != nullptr && integrity->enabled() &&
        after_crc != after_est) {
      integrity->counters->bytes_checksummed.fetch_add(
          static_cast<int64_t>(payload.size()), std::memory_order_relaxed);
      if (crc32c::Crc32c(payload) != static_cast<uint32_t>(stored_crc)) {
        integrity->counters->detected.fetch_add(1, std::memory_order_relaxed);
        return Status::DataLoss("checkpoint checksum mismatch: " + e.path);
      }
    }
    // Fourth header field (absent in older spills): whole-file flag,
    // restored so the replanner's whole-file fallback keeps working for
    // healed output blocks without ever applying to healed input spills.
    char* after_wf = nullptr;
    uint64_t whole_file = std::strtoull(after_crc, &after_wf, 10);
    if (after_wf == after_crc) whole_file = 0;
    M3R_RETURN_NOT_OK(cache_.PutBlock(target, block_name,
                                      static_cast<int>(place),
                                      DecodePairs(payload), est,
                                      /*fill_seconds=*/0.0,
                                      /*droppable=*/false,
                                      whole_file != 0));
    if (files != nullptr) ++*files;
    if (bytes != nullptr) *bytes += est;
  }
  return Status::OK();
}

Result<int> M3REngine::PrepopulateCache(const api::JobConf& conf) {
  auto input_format = api::MakeInputFormat(conf);
  M3R_ASSIGN_OR_RETURN(
      std::vector<api::InputSplitPtr> splits,
      input_format->GetSplits(conf, *fs_, options_.cluster.total_slots()));
  std::atomic<int> loaded{0};
  std::vector<Status> statuses(splits.size());
  places_.FinishFor(splits.size(), [&](size_t i) {
    const api::InputSplit& split = *splits[i];
    auto name = Cache::NameForSplit(split);
    if (!name) return;
    if (cache_.GetBlock(*name, Cache::BlockNameForSplit(split))) return;
    // Route the read to the place that would own the split.
    const api::InputSplit* base_split = nullptr;
    JobConf tconf = api::SpecializeConfForSplit(conf, split, &base_split);
    Stopwatch fill_sw;
    Result<KVSeq> seq_or = ReadSplit(*base_split, tconf, *fs_);
    if (!seq_or.ok()) {
      statuses[i] = seq_or.status();
      return;
    }
    int place = 0;
    auto locs = split.GetLocations();
    if (const auto* placed = FindSplit<api::PlacedSplit>(split)) {
      place = StablePlaceOfPartition(placed->GetPlacedPartition(),
                                     places_.NumPlaces());
    } else if (!locs.empty()) {
      place = locs[0] % places_.NumPlaces();
    } else {
      place = static_cast<int>(i) % places_.NumPlaces();
    }
    statuses[i] = cache_.PutBlock(*name, Cache::BlockNameForSplit(split),
                                  place, seq_or.take(), split.GetLength(),
                                  fill_sw.ElapsedSeconds(),
                                  /*droppable=*/true);
    if (statuses[i].ok()) ++loaded;
  });
  for (auto& st : statuses) {
    if (!st.ok()) return st;
  }
  return loaded.load();
}

api::JobResult M3REngine::Submit(const api::JobConf& conf) {
  api::JobResult result = SubmitImpl(conf);
  if (result.status.code() == StatusCode::kCancelled) {
    // The shuffle exchange died with SubmitImpl's scope and returned its
    // lane buffers to the pool — but a cancelled job's decayed size hints
    // describe work that never finished, and would pin that memory until
    // the next job. Drop the retained buffers outright.
    buffer_pool_.Trim();
  }
  return result;
}

api::JobResult M3REngine::SubmitImpl(const api::JobConf& conf) {
  JobContext ctx(conf, places_.NumPlaces(), cache_manager_.get());
  using Stage = Status (M3REngine::*)(JobContext&);
  for (Stage stage : {&M3REngine::Admit, &M3REngine::Reuse, &M3REngine::Plan,
                      &M3REngine::MapRounds, &M3REngine::Exchange,
                      &M3REngine::Reduce, &M3REngine::Commit}) {
    Status st = (this->*stage)(ctx);
    if (!st.ok() || ctx.served) return Finish(ctx, std::move(st));
  }
  return Finish(ctx, Status::OK());
}

Status M3REngine::Admit(JobContext& ctx) {
  api::JobConf& conf = ctx.conf;
  // Distributed-cache contents are installed into the configuration tasks
  // see. M3R localizes through its own FS view, so cache-resident
  // (temporary) side files work too; places are long-lived so no per-job
  // localization cost is charged (paper §5.3).
  if (conf.Contains(api::conf::kCacheFiles)) {
    M3R_ASSIGN_OR_RETURN(auto localized,
                         api::DistributedCache::Localize(conf, *fs_));
    api::DistributedCache::InstallIntoConf(localized, &conf);
  }
  ctx.wall.Restart();
  ctx.salt = ++job_counter_;
  ctx.t0 = options_.cluster.m3r_job_overhead_s;
  ctx.num_reduce = conf.NumReduceTasks();
  // Temporary outputs only exist by virtue of the cache; with the cache
  // ablated, every output must be materialized (Hadoop behavior).
  ctx.temporary =
      options_.enable_cache && Cache::IsTemporary(conf, conf.OutputPath());

  // One validation pass over the job's M3R knobs, before any of them
  // touches the engine. Unparseable numbers read as 0 and are rejected
  // with the out-of-range values.
  const std::string checkpoint = conf.Get(api::conf::kCacheCheckpoint, "off");
  const std::string reuse = conf.Get(api::conf::kCacheReuse, "off");
  const int max_crashes = static_cast<int>(
      conf.GetInt(api::conf::kPlaceRecoveryMaxCrashes, 2));
  const int64_t flush_bytes =
      conf.GetInt(api::conf::kShuffleFlushBytes, 256 * 1024);
  const int64_t budget_mb =
      conf.GetInt(api::conf::kShufflePartitionBudgetMb, 0);
  const double l2_share = conf.GetDouble(api::conf::kCacheL2Share, 0.0);
  std::optional<std::map<int, int>> crash_script =
      ParseCrashScript(conf.Get(api::conf::kPlaceCrashAt, ""));
  const struct {
    const char* key;
    bool ok;
  } knobs[] = {
      {api::conf::kCacheCheckpoint, checkpoint == "off" ||
                                        checkpoint == "tempout"},
      {api::conf::kPlaceRecoveryMaxCrashes, max_crashes >= 0},
      {api::conf::kShuffleFlushBytes, flush_bytes > 0},
      {api::conf::kShufflePartitionBudgetMb, budget_mb >= 0},
      {api::conf::kPlaceCrashAt, crash_script.has_value()},
      {api::conf::kCacheL2Share, l2_share >= 0.0 && l2_share <= 1.0},
      {api::conf::kCacheReuse, reuse == "off" || reuse == "exact"},
  };
  for (const auto& knob : knobs) {
    if (!knob.ok) {
      return Status::InvalidArgument(std::string("bad ") + knob.key + ": " +
                                     conf.Get(knob.key));
    }
  }
  memgov::EvictionPolicy cache_policy;
  M3R_RETURN_NOT_OK(memgov::ParseEvictionPolicy(
      conf.Get(api::conf::kCachePolicy, "lru"), &cache_policy));
  // Per-job fault injection (tests and resilience drills) and end-to-end
  // integrity (m3r.integrity.mode), installed below for the submission.
  ctx.fault = FaultInjector::FromConf(conf.raw());
  M3R_ASSIGN_OR_RETURN(ctx.integrity,
                       IntegrityContext::FromConf(conf.raw(), ctx.fault));
  ctx.checkpoint_tempout = checkpoint == "tempout";
  ctx.reuse_exact = reuse == "exact";
  ctx.max_crashes = max_crashes;
  ctx.flush_bytes = static_cast<size_t>(flush_bytes);
  ctx.partition_budget_bytes = static_cast<size_t>(budget_mb) << 20;
  ctx.crash_script = std::move(*crash_script);

  // --- Memory governance (DESIGN.md §11): re-read per submission so a job
  // sequence can tighten or lift the budget between jobs. ---
  governor_.SetBudget(static_cast<uint64_t>(std::max<int64_t>(
                          0, conf.GetInt(api::conf::kMemoryBudgetMb, 0)))
                      << 20);
  for (const auto& [key, value] : conf.raw()) {
    if (key.rfind(api::conf::kMemorySharePrefix, 0) == 0) {
      governor_.SetShare(
          key.substr(std::string_view(api::conf::kMemorySharePrefix).size()),
          conf.GetDouble(key, 1.0));
    }
  }
  cache_manager_->Configure(
      cache_policy, conf.GetDouble(api::conf::kMemoryHighWatermark, 0.90),
      conf.GetDouble(api::conf::kMemoryLowWatermark, 0.75));
  // Two-tier cache (DESIGN.md §16): every place donates m3r.cache.l2.share
  // of the budget to the tier, so ring-wide capacity is share * budget *
  // places — the aggregate-memory thesis: the cluster holds N times what
  // one place can. Re-rung per submission (a place dead last job is
  // healthy again on the next).
  std::vector<int> ring_places(static_cast<size_t>(ctx.num_places));
  for (size_t i = 0; i < ring_places.size(); ++i) {
    ring_places[i] = static_cast<int>(i);
  }
  tiered_->ConfigureL2(
      governor_.governed() && l2_share > 0.0, ring_places, kL2VNodes,
      static_cast<uint64_t>(l2_share *
                            static_cast<double>(governor_.budget()) *
                            static_cast<double>(ring_places.size())));
  governor_.ResetPeak();

  // Faults at the DFS sites fire through the base file system; the guard
  // clears the injector whatever the exit path. Integrity is installed on
  // the base file system (block checksums) and the cache (block
  // fingerprints), and carried by the shuffle for its frames.
  ctx.fault_guard.emplace(base_fs_.get(), &cache_, ctx.fault, ctx.integrity);
  for (const std::string& in : conf.InputPaths()) {
    ctx.pins.Add(path::Canonicalize(in));
  }
  if (!conf.OutputPath().empty()) {
    ctx.pins.Add(path::Canonicalize(conf.OutputPath()));
  }
  // Memory-governance counter baseline: deltas against the engine-lifetime
  // cache-manager counters become this job's counters/metrics.
  ctx.mg0 = cache_manager_->counters();
  ctx.l20 = tiered_->l2_counters();
  ctx.l2_on = tiered_->L2Enabled();
  return Status::OK();
}

Status M3REngine::Reuse(JobContext& ctx) {
  const api::JobConf& conf = ctx.conf;
  api::JobResult& result = ctx.result;
  // --- ReStore-style cross-job output reuse (m3r.cache.reuse=exact): a job
  // whose lineage signature — inputs (+ content versions), configuration
  // minus volatile keys, mapper/reducer/combiner identity — matches a
  // previously registered output short-circuits to that output, skipping
  // the map and reduce phases entirely. ---
  if (options_.enable_cache && ctx.reuse_exact) {
    ctx.lineage_sig = memgov::LineageSignature(
        conf, [this](const std::string& p) { return InputVersion(p); });
    if (ServeReusedOutput(ctx)) {
      result.metrics["reused_from_cache"] = 1;
      result.counters.Increment(api::counters::kM3rGroup,
                                api::counters::kReusedFromCache, 1);
      result.time_breakdown["job_overhead"] = ctx.t0;
      result.sim_seconds = ctx.t0;
      ctx.served = true;
      return Status::OK();
    }
  }

  ctx.output_format = api::MakeOutputFormat(conf);
  if (!ctx.temporary) {
    M3R_RETURN_NOT_OK(ctx.output_format->CheckOutputSpecs(conf, *fs_));
    api::FileOutputCommitter committer;
    M3R_RETURN_NOT_OK(committer.SetupJob(conf, *fs_));
  } else {
    if (fs_->Exists(conf.OutputPath())) {
      return Status::AlreadyExists("output exists: " + conf.OutputPath());
    }
    // Recovery: a fresh (restarted) instance finds the output already
    // spilled to the DFS — reload it into the cache and skip the job
    // instead of re-running it (replay from the last materialized output).
    if (ctx.checkpoint_tempout) {
      int rfiles = 0;
      uint64_t rbytes = 0;
      Status st = RestoreDirFromCheckpoint(conf.OutputPath(),
                                           /*only_missing=*/false, &rfiles,
                                           &rbytes, ctx.integrity.get());
      if (!st.ok()) {
        M3R_LOG(Warn) << "checkpoint restore of " << conf.OutputPath()
                      << " failed, running the job: " << st.ToString();
        cache_.Delete(conf.OutputPath());
      } else if (rfiles > 0) {
        result.metrics["recovered_from_checkpoint"] = 1;
        result.metrics["recovered_files"] = rfiles;
        result.metrics["recovered_bytes"] = static_cast<int64_t>(rbytes);
        double restore = cost_.DfsRead(rbytes, /*local=*/false);
        result.time_breakdown["job_overhead"] = ctx.t0;
        result.time_breakdown["checkpoint_restore"] = restore;
        result.sim_seconds = ctx.t0 + restore;
        ctx.served = true;
        return Status::OK();
      }
    }
  }
  // Output spec validation passed and (for materialized outputs) the output
  // directory is ours: from here on a failure aborts and removes whatever
  // the job produced, then pings the FAILED job-end notification — the
  // contract JobClient's retry loop and external workflow managers rely on.
  ctx.owns_output = true;
  return Status::OK();
}

bool M3REngine::ServeReusedOutput(JobContext& ctx) {
  const std::string out = path::Canonicalize(ctx.conf.OutputPath());
  std::optional<std::string> src = cache_manager_->LookupReuse(ctx.lineage_sig);
  if (!src) return false;
  // Identical output path: the cached output is already in place.
  if (*src == out) return true;
  if (!ctx.temporary || fs_->Exists(out)) return false;
  // Same lineage under a new temporary name: clone the registered output's
  // cached blocks to the new path. Lease the source directory for the whole
  // clone so the background evictor cannot claim one of its files between
  // LookupReuse and the copy.
  memgov::CacheManager::ReadLease reuse_lease = cache_.LeaseRead(*src);
  for (const std::string& f : cache_.FilesUnder(*src)) {
    auto blocks_or = cache_.GetFileBlocks(f);
    Status st = blocks_or.status();
    const std::string dst = out + f.substr(src->size());
    for (size_t b = 0; st.ok() && b < blocks_or->size(); ++b) {
      const Cache::Block& block = (*blocks_or)[b];
      if (block.pairs == nullptr) continue;
      st = cache_.PutBlock(dst, block.info.name, block.info.place,
                           *block.pairs, block.bytes, /*fill_seconds=*/0.0,
                           /*droppable=*/false, block.info.whole_file);
      if (!st.ok()) {
        M3R_LOG(Warn) << "reuse clone of " << f
                      << " failed: " << st.ToString();
      }
    }
    if (!st.ok()) {
      cache_.Delete(out);
      return false;
    }
  }
  return true;
}

Status M3REngine::HealInputs(JobContext& ctx, double* heal_seconds) {
  // Checkpointed temporary inputs whose cached blocks are gone (a fresh
  // instance, a place crash evicted part of a file — or the memory governor
  // spilled it, which lands in the same checkpoint layout even with
  // checkpointing otherwise off) come back block by block.
  if (ctx.checkpoint_tempout || governor_.governed()) {
    uint64_t restored_bytes = 0;
    for (const std::string& in : ctx.conf.InputPaths()) {
      // Demoted cache-only inputs come back from the L2 tier first (a
      // memory move, or one network hop from a surviving shard); the
      // checkpoint fills whatever the tier no longer holds. Without the
      // promote, a demoted file would trip the manifest-completeness check
      // below as a false DataLoss.
      uint64_t promoted_bytes = 0;
      tiered_->PromoteUnder(path::Canonicalize(in), /*only_unbacked=*/true,
                            &promoted_bytes);
      if (heal_seconds != nullptr && promoted_bytes > 0) {
        *heal_seconds += cost_.L2Read(promoted_bytes, /*local=*/false);
      }
      Status st = RestoreDirFromCheckpoint(in, /*only_missing=*/true,
                                           nullptr, &restored_bytes,
                                           ctx.integrity.get());
      if (!st.ok()) {
        M3R_LOG(Warn) << "checkpoint heal of " << in
                      << " failed: " << st.ToString();
      }
    }
    if (heal_seconds != nullptr && restored_bytes > 0) {
      *heal_seconds += cost_.DfsRead(restored_bytes, /*local=*/false);
    }
  }
  // Cache-only inputs must be complete: a committed temp directory's
  // manifest says which files (and how many bytes) the producer published.
  // Anything still short after the heal is unrecoverable — fail with a
  // retriable DataLoss rather than silently computing on the survivors.
  if (options_.enable_cache) {
    for (const std::string& in : ctx.conf.InputPaths()) {
      std::vector<std::string> missing =
          cache_.ManifestMissing(path::Canonicalize(in));
      if (missing.empty()) continue;
      std::string what;
      for (const std::string& m : missing) {
        if (!what.empty()) what += ", ";
        what += m;
      }
      return Status::DataLoss("cache-only input '" + in +
                              "' is incomplete: " + what);
    }
  }
  return Status::OK();
}

Status M3REngine::Plan(JobContext& ctx) {
  M3R_RETURN_NOT_OK(HealInputs(ctx, /*heal_seconds=*/nullptr));
  const api::JobConf& conf = ctx.conf;
  api::JobResult& result = ctx.result;
  const int num_places = ctx.num_places;

  // --- Splits: cache lookups and placement ---
  auto input_format = api::MakeInputFormat(conf);
  M3R_ASSIGN_OR_RETURN(
      std::vector<api::InputSplitPtr> splits,
      input_format->GetSplits(conf, *fs_, options_.cluster.total_slots()));
  std::vector<TaskPlan>& tasks = ctx.tasks;
  tasks.resize(splits.size());
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Files this job pulled back from the L2 tier (path -> crossed places):
  // every split the promotion turned into a hit charges the tier's cost
  // instead of a DFS re-read.
  std::map<std::string, bool> l2_promoted;
  for (size_t i = 0; i < splits.size(); ++i) {
    TaskPlan& t = tasks[i];
    t.split = splits[i];
    t.cache_path = Cache::NameForSplit(*t.split);
    t.block_name = Cache::BlockNameForSplit(*t.split);
    t.input_bytes = t.split->GetLength();
    // L1 miss, L2 probe (DESIGN.md §16): promote the whole demoted file
    // back into the cache before deciding hit vs DFS re-read.
    if (options_.enable_cache && t.cache_path && tiered_->L2Enabled() &&
        l2_promoted.find(*t.cache_path) == l2_promoted.end() &&
        !cache_.GetBlock(*t.cache_path, t.block_name) &&
        tiered_->L2Contains(*t.cache_path)) {
      bool remote = false;
      if (tiered_->TryPromote(*t.cache_path, &remote, nullptr).ok()) {
        l2_promoted[*t.cache_path] = remote;
      }
    }
    if (options_.enable_cache && t.cache_path &&
        cache_.GetBlock(*t.cache_path, t.block_name)) {
      t.cache_hit = true;
      ++cache_hits;
    } else if (options_.enable_cache && t.cache_path) {
      // Geometry mismatch: serve from the cache anyway iff the whole file
      // is cached as a single block named "0". The block must carry the
      // fill-time whole_file stamp: an offset-0 *input* block left as the
      // sole survivor of a place crash or an admission bypass looks
      // identical by name, and treating it as the whole file would serve
      // the file's other splits as empty — silent record loss.
      auto info = cache_.store().GetInfo(*t.cache_path);
      if (info.ok() && info->blocks.size() == 1 &&
          info->blocks[0].name == "0" && info->blocks[0].whole_file) {
        // Unwrap MultipleInputs' tagged splits etc.: exactly one split of
        // the file (the one starting at offset 0) serves the block.
        const api::FileSplit* fsplit = FindSplit<api::FileSplit>(*t.split);
        bool is_first = fsplit == nullptr || fsplit->Start() == 0;
        t.cache_hit = true;
        t.whole_file_hit = is_first;
        t.empty_hit = !is_first;
        t.block_name = "0";
        ++cache_hits;
      } else {
        ++cache_misses;
      }
    } else {
      ++cache_misses;
    }
    if (t.cache_hit && !t.empty_hit && t.cache_path) {
      auto promoted = l2_promoted.find(*t.cache_path);
      if (promoted != l2_promoted.end()) {
        t.l2_hit = true;
        t.l2_remote = promoted->second;
      }
    } else if (!t.cache_hit && tiered_->L2Enabled()) {
      tiered_->RecordL2Miss();  // fell through to the DFS
    }

    auto locations = t.split->GetLocations();
    if (const auto* placed = FindSplit<api::PlacedSplit>(*t.split)) {
      // PlacedSplit overrides M3R's preference for local splits (§4.3).
      t.place = options_.partition_stability
                    ? StablePlaceOfPartition(placed->GetPlacedPartition(),
                                             num_places)
                    : (placed->GetPlacedPartition() + ctx.salt) % num_places;
    } else if (t.cache_hit) {
      t.place = cache_.GetBlock(*t.cache_path, t.block_name)->info.place;
    } else if (!locations.empty()) {
      t.place = locations[0] % num_places;
    } else {
      t.place = round_robin_++ % num_places;
    }
    t.local_read = ReadsLocally(t.cache_hit, locations, t.place, num_places);
  }
  result.metrics["map_tasks"] = static_cast<int64_t>(tasks.size());
  result.metrics["cache_hit_splits"] = cache_hits;
  result.metrics["cache_miss_splits"] = cache_misses;
  // Mirror the split-level outcome into the cache manager so its counters
  // (the policy-comparison view) agree with the job counters.
  for (int64_t i = 0; i < cache_hits; ++i) cache_manager_->RecordHit();
  for (int64_t i = 0; i < cache_misses; ++i) cache_manager_->RecordMiss();
  result.counters.Increment(api::counters::kM3rGroup,
                            api::counters::kCacheHits, cache_hits);
  result.counters.Increment(api::counters::kM3rGroup,
                            api::counters::kCacheMisses, cache_misses);
  ctx.tasks_of_place.assign(static_cast<size_t>(num_places), {});
  for (size_t i = 0; i < tasks.size(); ++i) {
    ctx.tasks_of_place[static_cast<size_t>(tasks[i].place)].push_back(i);
  }

  // Intra-place worker strands (the paper's "8 worker threads to exploit
  // the 8 cores"): a per-job override, else the engine option, else
  // hardware threads spread across the places.
  ctx.workers = static_cast<int>(
      conf.GetInt(api::conf::kPlaceWorkers, options_.workers_per_place));
  if (ctx.workers <= 0) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    ctx.workers = std::max(1, hw / std::max(num_places, 1));
  }
  result.metrics["place_workers"] = ctx.workers;

  // --- The job's shuffle exchange (DESIGN.md §15) ---
  ShuffleOptions shuffle_options;
  shuffle_options.num_partitions = std::max(ctx.num_reduce, 1);
  shuffle_options.dedup_mode = options_.dedup_mode;
  shuffle_options.partition_stability = options_.partition_stability;
  shuffle_options.instability_salt = ctx.salt;
  shuffle_options.workers_per_place = ctx.workers;
  shuffle_options.fault = ctx.fault;
  shuffle_options.integrity = ctx.integrity;
  shuffle_options.buffer_pool = &buffer_pool_;
  shuffle_options.flush_bytes = ctx.flush_bytes;
  ctx.run_spill_sink.emplace(base_fs_.get(),
                             std::string(kCheckpointRoot) + "/_shuffle/job" +
                                 std::to_string(ctx.salt));
  if (ctx.partition_budget_bytes > 0) {
    shuffle_options.partition_budget_bytes = ctx.partition_budget_bytes;
    shuffle_options.spill_sink = &*ctx.run_spill_sink;
  }
  // Runs must sort exactly like the reduce-side SortPairs; the raw-byte
  // default keeps the prefix-cached kernel, anything else routes through
  // the job's comparator. Map-only jobs never sort.
  ctx.run_sort_cmp = ctx.num_reduce > 0 ? api::SortComparator(conf) : nullptr;
  if (ctx.run_sort_cmp != nullptr) {
    shuffle_options.run_comparator =
        api::SortkitOrder(ctx.run_sort_cmp, &ctx.run_cmp);
  }
  shuffle_options.resident_gauge = &shuffle_run_bytes_;
  ctx.shuffle.emplace(num_places, shuffle_options);
  return Status::OK();
}

void M3REngine::ReportCrash(JobContext& ctx, int place, Status st) {
  if (!ctx.membership.Suspect(place, st.ToString())) return;
  M3R_LOG(Warn) << "place " << place << " crashed: " << st.ToString();
  std::lock_guard<std::mutex> lock(ctx.crash_mu);
  ++ctx.place_crashes;
  if (ctx.crash_status.ok()) ctx.crash_status = std::move(st);
}

bool M3REngine::PlaceAlive(JobContext& ctx, int place) {
  if (ctx.membership.IsSuspectOrDead(place)) return false;
  if (ctx.fault == nullptr) return true;
  Status st = ctx.fault->Check("m3r.place", std::to_string(place));
  if (st.ok()) return true;
  ReportCrash(ctx, place, std::move(st));
  return false;
}

bool M3REngine::ScriptedCrash(JobContext& ctx, int place) {
  if (ctx.crash_script.empty()) return false;
  auto it = ctx.crash_script.find(place);
  if (it == ctx.crash_script.end()) return false;
  if (ctx.place_attempts[static_cast<size_t>(place)].fetch_add(
          1, std::memory_order_relaxed) < it->second) {
    return false;
  }
  ReportCrash(ctx, place,
              Status::Unavailable("scripted crash of place " +
                                  std::to_string(place)));
  return true;
}

std::vector<int> M3REngine::ConfirmAndTeardown(JobContext& ctx) {
  std::vector<int> newly_dead = ctx.membership.ConfirmDeaths();
  if (newly_dead.empty()) return newly_dead;
  int64_t evicted = 0;
  for (int d : newly_dead) {
    int64_t e = cache_.store().EvictPlace(d);
    evicted += e;
    M3R_LOG(Warn) << "place " << d << " confirmed dead: evicted " << e
                  << " cache blocks";
  }
  // EvictPlace bypasses the manager's per-file notifications; re-derive
  // the entry table and resident bytes from what actually survived.
  cache_manager_->Reconcile(
      [this](const std::string& p) { return cache_.FileBytes(p); });
  // Ring heal (DESIGN.md §16): the dead places' L2 shards died with
  // them — hand their hash ranges to the survivors and drop the lost
  // entries; the data heals lazily from DFS/checkpoint on first touch.
  tiered_->RingHeal(newly_dead);
  ctx.crash_evicted_blocks += evicted;
  ctx.result.counters.Increment(api::counters::kM3rGroup,
                                api::counters::kPlaceCrashes,
                                static_cast<int64_t>(newly_dead.size()));
  ctx.result.counters.Increment(api::counters::kM3rGroup,
                                api::counters::kCacheEvictedByCrashBlocks,
                                evicted);
  return newly_dead;
}

void M3REngine::RunMapTask(JobContext& ctx, size_t i, int place, int lane,
                           api::OutputCollector* lane_hasher) {
  const api::JobConf& conf = ctx.conf;
  TaskPlan& t = ctx.tasks[i];
  if (ctx.fault != nullptr) {
    t.status = ctx.fault->Check("m3r.map", std::to_string(i));
    if (!t.status.ok()) return;
  }
  CpuStopwatch sw;
  const api::InputSplit* base_split = nullptr;
  JobConf tconf = api::SpecializeConfForSplit(conf, *t.split, &base_split);
  bool immutable = options_.respect_immutable && MapOutputImmutable(tconf);

  // 1. Obtain the split's pair sequence (cache or RecordReader).
  kvstore::KVSeqPtr pairs;
  if (t.empty_hit) {
    pairs = std::make_shared<const KVSeq>();
  } else if (t.cache_hit) {
    std::optional<Cache::Block> block =
        cache_.GetBlock(*t.cache_path, t.block_name);
    if (!block) {
      // Evicted between planning and execution (e.g. a sibling block
      // of the path failed its check); retriable at job granularity.
      t.status = Status::DataLoss("cache block evicted: " + *t.cache_path +
                                  "#" + t.block_name);
      return;
    }
    // Verify the fill-time fingerprint before serving; an unrepairable
    // mismatch evicts the path and fails the job with DataLoss, and the
    // retried job re-reads the DFS.
    t.status = cache_.CheckBlock(*t.cache_path, *block);
    if (!t.status.ok()) return;
    pairs = block->pairs;
  } else {
    Stopwatch fill_sw;
    Result<KVSeq> seq_or = ReadSplit(*base_split, tconf, *fs_);
    if (!seq_or.ok()) {
      t.status = seq_or.status();
      return;
    }
    auto owned = std::make_shared<const KVSeq>(seq_or.take());
    if (options_.enable_cache && t.cache_path) {
      // Droppable: the split is DFS-backed, so a budget-constrained
      // admission may bypass the cache and the next job re-reads it.
      t.status = cache_.PutBlock(*t.cache_path, t.block_name, place, *owned,
                                 t.input_bytes, fill_sw.ElapsedSeconds(),
                                 /*droppable=*/true);
      if (!t.status.ok()) return;
    }
    pairs = owned;
  }

  // 2. Run the mapper.
  TaskCounters counters(&ctx.result.counters);
  api::Reporter& reporter = counters.reporter();
  const int num_reduce = ctx.num_reduce;
  if (lane_hasher != nullptr) {
    // Map-side hash aggregation: the lane's persistent table folds values
    // at emit time across every task this strand runs, and only the folded
    // pairs reach the shuffle (drained once, at end of the map phase).
    // Everything it forwards is freshly deserialized, so the shuffle
    // aliases it regardless of the mapper's immutability.
    t.status = FeedMapper(tconf, *pairs, *lane_hasher, reporter);
  } else if (num_reduce > 0 && tconf.HasCombiner()) {
    auto partitioner = api::MakePartitioner(tconf);
    bool combiner_immutable =
        options_.respect_immutable &&
        ReducerOutputImmutable(tconf, tconf.UsesNewApiCombiner(),
                               api::conf::kMapreduceCombiner,
                               api::conf::kMapredCombiner);
    CombiningShuffleCollector collector(
        tconf, &*ctx.shuffle, partitioner.get(), place, lane, num_reduce,
        immutable, combiner_immutable, ctx.run_sort_cmp, ctx.run_comparator(),
        &reporter);
    t.status = FeedMapper(tconf, *pairs, collector, reporter);
    if (t.status.ok()) t.status = collector.Flush();
  } else if (num_reduce > 0) {
    auto partitioner = api::MakePartitioner(tconf);
    ShuffleCollector collector(&*ctx.shuffle, partitioner.get(), place, lane,
                               num_reduce, immutable, &reporter);
    t.status = FeedMapper(tconf, *pairs, collector, reporter);
  } else {
    // Map-only: mapper output goes straight to the job output.
    t.status = WriteTaskOutput(
        ctx, static_cast<int>(i), place, immutable,
        api::counters::kMapOutputRecords, reporter, sw,
        [&](api::OutputCollector& out) {
          return FeedMapper(tconf, *pairs, out, reporter);
        },
        &t.output_bytes);
    if (!t.status.ok()) return;
  }
  t.cpu_seconds = sw.ElapsedSeconds();
  ctx.task_done[i] = 1;
  ctx.membership.Heartbeat(place);
  size_t done = ++ctx.map_tasks_done;
  PublishMemgov(ctx, /*final=*/false);
  counters.Merge();  // the progress snapshot includes this task
  ReportProgress(conf, MapProgress(done, ctx.tasks.size()),
                 &ctx.result.counters);
}

Status M3REngine::WriteTaskOutput(
    JobContext& ctx, int index, int place, bool immutable,
    const char* records_counter, api::Reporter& reporter,
    const CpuStopwatch& sw,
    const std::function<Status(api::OutputCollector&)>& produce,
    uint64_t* output_bytes) {
  const api::JobConf& conf = ctx.conf;
  std::unique_ptr<api::RecordWriter> writer;
  if (!ctx.temporary) {
    M3R_ASSIGN_OR_RETURN(
        writer, ctx.output_format->GetRecordWriter(
                    conf, *fs_,
                    api::file_output::TempPath(conf, index, /*attempt=*/0),
                    place));
  }
  M3RNamedOutputSink named_sink(conf, *fs_, &cache_, index, place,
                                ctx.temporary);
  api::ScopedNamedOutputSink scoped(&named_sink);
  OutputSeqCollector collector(immutable, writer.get(), &reporter,
                               records_counter);
  M3R_RETURN_NOT_OK(produce(collector));
  if (writer != nullptr) {
    M3R_RETURN_NOT_OK(writer->Close());
    *output_bytes = writer->BytesWritten();
    api::FileOutputCommitter committer;
    M3R_RETURN_NOT_OK(committer.CommitTask(conf, *fs_, index, /*attempt=*/0));
  }
  uint64_t named_bytes = 0;
  M3R_RETURN_NOT_OK(named_sink.Finish(&named_bytes));
  *output_bytes += named_bytes;
  // Cache the task's output at this place — the key move that makes the
  // next job's input land here again (§3.2.2.2).
  if (!options_.enable_cache) return Status::OK();
  return cache_.PutBlock(api::file_output::FinalPath(conf, index), "0", place,
                         collector.TakeSeq(), collector.bytes(),
                         sw.ElapsedSeconds(), /*droppable=*/!ctx.temporary,
                         /*whole_file=*/true);
}

void M3REngine::RunMapStrand(JobContext& ctx, int place, size_t strand,
                             size_t strands) {
  const std::vector<size_t>& mine =
      ctx.tasks_of_place[static_cast<size_t>(place)];
  // Lane-persistent hash aggregation (the in-node combiner): one table
  // lives across every map task this strand runs, so a key repeated in
  // different splits of the place still collapses to one wire record —
  // scope no per-task (or per-spill) combiner can reach. Each strand owns
  // its lane's serialization stream, so the table drains into a
  // single-writer lane and wire bytes stay deterministic. A replay round
  // gets fresh tables, so a recovered job may carry more than one partial
  // aggregate per key — the combiner contract (run 0+ times over any
  // subset) already promises that is legal. The lane's counters outlive
  // its sink and table (declared first, destroyed last), so their final
  // tallies land before the merge.
  std::optional<TaskCounters> lane_counters;
  std::shared_ptr<api::Partitioner> lane_partitioner;
  std::unique_ptr<ShuffleCollector> lane_sink;
  std::unique_ptr<api::HashCombineCollector> lane_hasher;
  if (ctx.lane_hash_combine) {
    lane_counters.emplace(&ctx.result.counters);
    lane_partitioner = api::MakePartitioner(ctx.conf);
    lane_sink = std::make_unique<ShuffleCollector>(
        &*ctx.shuffle, lane_partitioner.get(), place,
        static_cast<int>(strand), ctx.num_reduce, /*immutable=*/true,
        &lane_counters->reporter());
    lane_hasher = std::make_unique<api::HashCombineCollector>(
        ctx.conf, lane_sink.get(), &lane_counters->reporter(),
        &hash_combine_bytes_);
  }
  for (size_t j = strand; j < mine.size(); j += strands) {
    if (ctx.map_aborted.load(std::memory_order_relaxed)) return;
    if (CancelRequested()) {
      ctx.cancelled.store(true, std::memory_order_relaxed);
      ctx.map_aborted.store(true);
      return;
    }
    if (ctx.membership.IsSuspectOrDead(place)) return;
    if (ScriptedCrash(ctx, place)) {
      if (ctx.CrashBudgetSpent()) ctx.map_aborted.store(true);
      return;
    }
    RunMapTask(ctx, mine[j], place, static_cast<int>(strand),
               lane_hasher.get());
    if (!ctx.tasks[mine[j]].status.ok()) ctx.map_aborted.store(true);
  }
  // Survivors MUST drain their tables even when another place died this
  // round: their buffered pairs feed lanes that will be delivered. A
  // suspect place's drain would be discarded at quiesce anyway; skip it.
  if (lane_hasher != nullptr &&
      !ctx.map_aborted.load(std::memory_order_relaxed) &&
      !ctx.membership.IsSuspectOrDead(place)) {
    Status st = lane_hasher->Flush();
    if (!st.ok()) {
      ctx.map_aborted.store(true);
      std::lock_guard<std::mutex> lock(ctx.hash_mu);
      if (ctx.hash_status.ok()) ctx.hash_status = std::move(st);
    }
  }
}

Status M3REngine::MapRounds(JobContext& ctx) {
  const api::JobConf& conf = ctx.conf;
  const sim::ClusterSpec& spec = options_.cluster;
  api::JobResult& result = ctx.result;
  std::vector<TaskPlan>& tasks = ctx.tasks;
  PublishMemgov(ctx, /*final=*/false);
  ReportProgress(conf, 0.05, &result.counters);
  // Map-side hash aggregation (decided at job scope: combiner, map-output
  // types, and grouping comparator are job-level settings, so per-split
  // conf specialization cannot change eligibility).
  ctx.lane_hash_combine =
      ctx.num_reduce > 0 && conf.GetBool(api::conf::kMapHashCombine, false) &&
      api::HashCombineCollector::Eligible(conf);
  ctx.task_done.assign(tasks.size(), 0);
  Status abandoned;  // recovery gave up (lost data) mid-flight
  for (;;) {
    // Places run in parallel; each fans its tasks out over `workers`
    // strands of the shared executor. Strand s runs tasks j with
    // j % strands == s and owns serialization lane s, so each remote
    // stream has exactly one writer and wire bytes stay deterministic for
    // a fixed worker count.
    places_.FinishForAll([&](int place) {
      if (ctx.membership.IsSuspectOrDead(place)) return;
      if (!PlaceAlive(ctx, place)) {
        // With the budget spent (0: no in-flight recovery) the job is
        // already doomed, so the other places stop early.
        if (ctx.CrashBudgetSpent()) ctx.map_aborted.store(true);
        return;
      }
      const size_t mine = ctx.tasks_of_place[static_cast<size_t>(place)].size();
      if (mine == 0) return;
      const size_t strands =
          std::min(mine, static_cast<size_t>(ctx.workers));
      if (strands <= 1) {
        RunMapStrand(ctx, place, 0, 1);
      } else {
        places_.pool().ParallelFor(strands, [&](size_t s) {
          RunMapStrand(ctx, place, s, strands);
        });
      }
    });

    // --- Quiesce: the round's strands are all joined. Confirm deaths,
    // tear down once per dead place, and either recover (bounded replay,
    // DESIGN.md §14) or break to the failure paths below. ---
    std::vector<int> newly_dead = ConfirmAndTeardown(ctx);
    if (newly_dead.empty()) break;  // crash-free round: the phase is done
    ctx.crashes_handled += static_cast<int>(newly_dead.size());
    std::vector<int> alive = ctx.membership.AlivePlaces();
    PublishMemgov(ctx, /*final=*/false);
    if (ctx.crashes_handled > ctx.max_crashes || alive.empty() ||
        ctx.map_aborted.load() || ctx.cancelled.load()) {
      // Budget exhausted, nobody left, or the job is failing for its own
      // reasons — fall back to the whole-job retriable failure.
      break;
    }
    abandoned = ReplanLostTasks(ctx, newly_dead, alive);
    if (!abandoned.ok()) break;
  }

  Status map_crash;
  {
    std::lock_guard<std::mutex> lock(ctx.crash_mu);
    map_crash = ctx.crash_status;
  }
  if (!map_crash.ok()) {
    // Unrecovered crash (budget spent, horizon passed, or data loss): the
    // whole-job retriable failure, charging the work that did complete so
    // the failed attempt has an honest simulated cost.
    sim::SlotTimeline part_tl(spec, ctx.t0);
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!ctx.task_done[i]) continue;
      part_tl.ScheduleOnNode(tasks[i].place, ctx.t0,
                             MapTaskSimSeconds(ctx, tasks[i]));
    }
    result.time_breakdown["map_phase_partial"] = part_tl.Makespan() - ctx.t0;
    result.sim_seconds = part_tl.Makespan() + ctx.recovery_heal_seconds;
    return abandoned.ok() ? map_crash : abandoned;
  }
  if (ctx.cancelled.load()) return Status::Cancelled("job cancelled");
  for (const TaskPlan& t : tasks) {
    M3R_RETURN_NOT_OK(t.status);
  }
  {
    std::lock_guard<std::mutex> lock(ctx.hash_mu);
    M3R_RETURN_NOT_OK(ctx.hash_status);
  }

  // --- Simulated map phase time ---
  result.metrics["hdfs_read_bytes"] = 0;
  result.metrics["hdfs_write_bytes"] = 0;
  sim::SlotTimeline map_tl(spec, ctx.t0);
  for (const TaskPlan& t : tasks) {
    // Replayed tasks are charged to the recovery span below.
    if (!t.replayed) {
      map_tl.ScheduleOnNode(t.place, ctx.t0, MapTaskSimSeconds(ctx, t));
    }
    if (!t.cache_hit) {
      result.metrics["hdfs_read_bytes"] += static_cast<int64_t>(t.input_bytes);
      result.counters.Increment(api::counters::kFsGroup,
                                api::counters::kHdfsBytesRead,
                                static_cast<int64_t>(t.input_bytes));
    }
  }
  const double map_end = tasks.empty() ? ctx.t0 : map_tl.Makespan();
  result.time_breakdown["map_phase"] = map_end - ctx.t0;

  // Replayed work runs after the crash-free portion of the phase, on the
  // survivors, plus the checkpoint heal reads — the price of surviving the
  // crash instead of re-running the whole job. (The dead places' wasted
  // pre-crash work is parallel loss and does not extend the makespan.)
  double recovery_span = ctx.recovery_heal_seconds;
  sim::SlotTimeline rec_tl(spec, map_end);
  bool replayed = false;
  for (const TaskPlan& t : tasks) {
    if (!t.replayed) continue;
    rec_tl.ScheduleOnNode(t.place, map_end, MapTaskSimSeconds(ctx, t));
    replayed = true;
  }
  if (replayed) recovery_span += rec_tl.Makespan() - map_end;
  if (recovery_span > 0) {
    const int64_t ms =
        static_cast<int64_t>(std::llround(recovery_span * 1000.0));
    result.time_breakdown["recovery"] = recovery_span;
    result.metrics["recovery_millis"] = ms;
    result.counters.Increment(api::counters::kM3rGroup,
                              api::counters::kRecoveryMillis, ms);
  }
  ctx.phase_end = map_end + recovery_span;
  return Status::OK();
}

Status M3REngine::ReplanLostTasks(JobContext& ctx,
                                  const std::vector<int>& newly_dead,
                                  const std::vector<int>& alive) {
  const int num_places = ctx.num_places;
  const int num_reduce = ctx.num_reduce;
  ShuffleExchange& shuffle = *ctx.shuffle;
  std::vector<TaskPlan>& tasks = ctx.tasks;
  // Re-home the dead places' partitions and lanes onto the survivors
  // (partition-map version bump; orphan lanes delivered at the barrier).
  if (num_reduce > 0) {
    ShuffleExchange::RecoveryStats rs =
        shuffle.DropDeadPlaces(newly_dead, alive);
    ctx.pmap_version = shuffle.map_version();
    M3R_LOG(Warn) << "recovery: re-homed " << rs.rehomed_partitions
                  << " partitions, dropped " << rs.dropped_local_pairs
                  << " pre-barrier pairs, " << rs.dropped_lanes
                  << " dead lanes and " << rs.dropped_runs
                  << " shipped runs (map v" << ctx.pmap_version << ")";
  }
  // Heal evicted inputs (the entry-time heal, charged to the recovery
  // span); cache-only inputs still short afterwards are unrecoverable
  // in-flight.
  M3R_RETURN_NOT_OK(HealInputs(ctx, &ctx.recovery_heal_seconds));

  // Classify the dead places' tasks: never-started work is reassigned as
  // normal work; completed work whose output died with the place (shuffle
  // state, or a cache-only output) is replayed. Completed map-only tasks
  // with materialized output keep their DFS files — never re-committed.
  int64_t replayed_round = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    TaskPlan& t = tasks[i];
    if (!std::binary_search(newly_dead.begin(), newly_dead.end(), t.place)) {
      continue;
    }
    if (ctx.task_done[i]) {
      if (num_reduce == 0 && !ctx.temporary) continue;
      ctx.task_done[i] = 0;
      t.replayed = true;
      t.status = Status::OK();
      t.output_bytes = 0;
      ctx.map_tasks_done.fetch_sub(1, std::memory_order_relaxed);
      ++replayed_round;
    }
    // Revalidate the cache plan: the dead place took its blocks with it.
    // A DFS-backed split degrades to a re-read; a cache-only block that
    // the heal could not restore is lost for good.
    if (t.cache_hit && !cache_.GetBlock(*t.cache_path, t.block_name)) {
      if (t.whole_file_hit || t.empty_hit ||
          !base_fs_->Exists(*t.cache_path)) {
        return Status::DataLoss("place crash lost cached input block " +
                                *t.cache_path + "#" + t.block_name);
      }
      t.cache_hit = false;
      t.l2_hit = false;
      t.block_name = Cache::BlockNameForSplit(*t.split);
    }
    // Re-plan onto a survivor: partitioned splits follow the re-homed
    // partition map (stability within the new epoch); everything else
    // keeps its planning preference, deterministically re-hashed onto
    // the alive list when the preferred place died.
    auto locations = t.split->GetLocations();
    int pref;
    if (const auto* placed = FindSplit<api::PlacedSplit>(*t.split)) {
      const int part = placed->GetPlacedPartition();
      pref = num_reduce > 0 && part >= 0 && part < num_reduce
                 ? shuffle.PlaceOfPartition(part)
                 : (options_.partition_stability
                        ? StablePlaceOfPartition(part, num_places)
                        : (part + ctx.salt) % num_places);
    } else if (t.cache_hit) {
      pref = cache_.GetBlock(*t.cache_path, t.block_name)->info.place;
    } else if (!locations.empty()) {
      pref = locations[0] % num_places;
    } else {
      pref = alive[i % alive.size()];
    }
    if (ctx.membership.IsSuspectOrDead(pref)) {
      pref = alive[static_cast<size_t>(pref) % alive.size()];
    }
    t.place = pref;
    t.local_read = ReadsLocally(t.cache_hit, locations, t.place, num_places);
  }

  ctx.recovered_map_tasks += replayed_round;
  ctx.result.counters.Increment(api::counters::kM3rGroup,
                                api::counters::kRecoveredMapTasks,
                                replayed_round);
  // This crash is handled; clear the verdict so a later crash (next
  // round, or mid-reduce) is judged on its own.
  {
    std::lock_guard<std::mutex> lock(ctx.crash_mu);
    ctx.crash_status = Status::OK();
  }
  // Next round runs exactly the not-done work (all of it re-planned onto
  // survivors — a finished round leaves nothing pending anywhere else).
  for (auto& v : ctx.tasks_of_place) v.clear();
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!ctx.task_done[i]) {
      ctx.tasks_of_place[static_cast<size_t>(tasks[i].place)].push_back(i);
    }
  }
  ReportProgress(ctx.conf,
                 MapProgress(ctx.map_tasks_done.load(), tasks.size()),
                 &ctx.result.counters);
  return Status::OK();
}

double M3REngine::MapTaskSimSeconds(const JobContext& ctx,
                                    const TaskPlan& t) const {
  double d = t.cpu_seconds * options_.cluster.data_scale;
  if (!t.cache_hit) d += cost_.DfsRead(t.input_bytes, t.local_read);
  // L2-promoted splits pay the tier's memory/network cost, not a DFS
  // re-read — the hierarchy the paper's in-memory thesis predicts.
  else if (t.l2_hit) d += cost_.L2Read(t.input_bytes, !t.l2_remote);
  if (ctx.num_reduce == 0 && !ctx.temporary) d += cost_.DfsWrite(t.output_bytes);
  return d;
}

Status M3REngine::Exchange(JobContext& ctx) {
  if (ctx.num_reduce == 0) return Status::OK();
  const sim::ClusterSpec& spec = options_.cluster;
  api::JobResult& result = ctx.result;
  ShuffleExchange& shuffle = *ctx.shuffle;
  // --- Shuffle delivery (after the Team barrier, §5.1) ---
  // Dead places deliver nothing; their inbound (orphan) lanes are
  // delivered by round-robin survivors inside DeliverTo.
  places_.FinishForAll([&](int place) {
    if (ctx.membership.IsDead(place)) return;
    shuffle.DeliverTo(place, ctx.workers > 1 ? &places_.pool() : nullptr,
                      ctx.workers);
  });
  // A dropped lane means a partition silently lost pairs: never reduce
  // over partial shuffle data.
  M3R_RETURN_NOT_OK(shuffle.status());

  double shuffle_span = 0;
  const double map_phase_span = ctx.phase_end - ctx.t0;
  for (int p = 0; p < ctx.num_places; ++p) {
    if (ctx.membership.IsDead(p)) continue;  // no lanes, no decode
    uint64_t send = 0;
    // Orphan lanes this survivor delivers for dead destinations count as
    // its received traffic (it pulls them over the wire to decode).
    uint64_t recv = shuffle.OrphanWireBytesFor(p);
    // Runs shipped before the barrier overlap the map phase's compute;
    // only the residual barrier drain — plus whatever pre-barrier wire
    // time exceeded the map phase itself — extends the post-barrier span.
    uint64_t pre_send = 0, pre_recv = 0;
    for (int q = 0; q < ctx.num_places; ++q) {
      if (q != p) {
        uint64_t s_total = shuffle.WireBytes(p, q);
        uint64_t s_resid = shuffle.BarrierWireBytes(p, q);
        uint64_t r_total = shuffle.WireBytes(q, p);
        uint64_t r_resid = shuffle.BarrierWireBytes(q, p);
        send += s_resid;
        recv += r_resid;
        pre_send += s_total - s_resid;
        pre_recv += r_total - r_resid;
      }
    }
    // Deserialization at a place is spread across its worker threads (the
    // paper's "8 worker threads to exploit the 8 cores"): pack the
    // measured per-stream decode CPU seconds onto the place's simulated
    // slots in deterministic stream order; the longest slot is the place's
    // decode time. A single fat stream cannot be split.
    std::vector<double> slot_busy(
        static_cast<size_t>(std::max(spec.slots_per_node, 1)), 0.0);
    for (double stream_seconds : shuffle.DecodeSeconds(p)) {
      *std::min_element(slot_busy.begin(), slot_busy.end()) +=
          stream_seconds * spec.data_scale;
    }
    double decode = *std::max_element(slot_busy.begin(), slot_busy.end());
    double comm = cost_.NetTransfer(send) + cost_.NetTransfer(recv) + decode;
    if (pre_send > 0 || pre_recv > 0) {
      double pre = cost_.NetTransfer(pre_send) + cost_.NetTransfer(pre_recv);
      comm += std::max(0.0, pre - map_phase_span);
    }
    shuffle_span = std::max(shuffle_span, comm);
  }

  const ShuffleExchange::Stats s = shuffle.ComputeStats();
  // Combine-path clones are tracked via the counter; the metric folds in
  // the exchange's own before the counter does.
  result.metrics["cloned_pairs"] =
      static_cast<int64_t>(s.cloned_pairs) +
      result.counters.Get(api::counters::kM3rGroup,
                          api::counters::kClonedPairs);
  // Each exchange statistic as a job-end metric and, where one exists, the
  // M3R counter of the same quantity.
  const struct {
    const char* metric;
    const char* counter;
    uint64_t value;
  } stats[] = {
      {"shuffle_local_pairs", api::counters::kLocalShufflePairs,
       s.local_pairs},
      {"shuffle_remote_pairs", api::counters::kRemoteShufflePairs,
       s.remote_pairs},
      {"shuffle_wire_bytes", nullptr, s.total_wire_bytes},
      {"dedup_objects", api::counters::kDedupedObjects, s.deduped_objects},
      {"dedup_saved_bytes", api::counters::kDedupSavedBytes,
       s.dedup_saved_bytes},
      {"aliased_pairs", api::counters::kAliasedPairs, s.aliased_pairs},
      {nullptr, api::counters::kClonedPairs, s.cloned_pairs},
      {"shuffle_runs_shipped", api::counters::kShuffleRunsShipped,
       s.runs_shipped},
      {"shuffle_runs_compacted", nullptr, s.runs_compacted},
      {"shuffle_overflow_spills", api::counters::kShuffleOverflowSpills,
       s.overflow_spills},
      {"shuffle_pool_peak_bytes", nullptr, s.peak_resident_run_bytes},
      {"shuffle_max_partition_run_bytes", nullptr,
       s.max_partition_run_bytes},
  };
  for (const auto& stat : stats) {
    const auto value = static_cast<int64_t>(stat.value);
    if (stat.metric != nullptr) result.metrics[stat.metric] = value;
    if (stat.counter != nullptr) {
      result.counters.Increment(api::counters::kM3rGroup, stat.counter,
                                value);
    }
  }
  result.time_breakdown["shuffle"] = shuffle_span + spec.m3r_barrier_s;
  ctx.reduce_start = ctx.phase_end + spec.m3r_barrier_s + shuffle_span;
  // First reducer starts the moment the barrier drain lands — early
  // flushing's headline latency win.
  result.metrics["time_to_first_reduce_ms"] =
      static_cast<int64_t>(std::llround(ctx.reduce_start * 1000.0));
  return Status::OK();
}

void M3REngine::RunReduceTask(JobContext& ctx, int p, int place) {
  const api::JobConf& conf = ctx.conf;
  ShuffleExchange& shuffle = *ctx.shuffle;
  ReduceResult& rr = ctx.reduce_results[static_cast<size_t>(p)];
  if (ctx.cancelled.load(std::memory_order_relaxed)) return;
  if (CancelRequested()) {
    ctx.cancelled.store(true, std::memory_order_relaxed);
    return;
  }
  if (ctx.fault != nullptr) {
    rr.status = ctx.fault->Check("m3r.reduce", std::to_string(p));
    if (!rr.status.ok()) return;
  }
  CpuStopwatch sw;
  TaskCounters counters(&ctx.result.counters);
  api::Reporter& reporter = counters.reporter();

  // Sort the local pairs (in-memory, same comparator semantics as Hadoop);
  // the remote ones merge in below.
  const KVSeq& incoming = shuffle.PartitionPairs(p);
  std::vector<api::KeyedPair> pairs;
  pairs.reserve(incoming.size());
  for (const auto& [k, v] : incoming) {
    api::KeyedPair kp;
    kp.key_bytes = serialize::SerializeToString(*k);
    kp.key = k;
    kp.value = v;
    pairs.push_back(std::move(kp));
  }
  api::SortOptions sort_options;
  if (ctx.workers > 1) {
    sort_options.executor = &places_.pool();
    sort_options.max_workers = ctx.workers;
  }
  api::SortStats sort_stats;
  api::SortPairs(conf, &pairs, sort_options, &sort_stats);
  {
    std::lock_guard<std::mutex> lock(ctx.sort_mu);
    ctx.sort_cpu_total += sort_stats.cpu_seconds;
  }
  // The caller-thread share of the sort is already inside `sw`; remember
  // it so the task's generic compute isn't double-charged.
  const double sort_caller = sort_stats.caller_cpu_seconds;
  // The partition's remote pairs arrived as sorted runs; k-way merge them
  // with the (sorted) local pairs instead of re-sorting the whole
  // partition.
  std::vector<SortedRun> runs;
  rr.status = shuffle.CollectPartitionRuns(p, &runs);
  if (!rr.status.ok()) return;
  MergeSortedRuns(ctx.run_comparator(), runs, &pairs);
  reporter.IncrCounter(api::counters::kTaskGroup,
                       api::counters::kReduceInputRecords,
                       static_cast<int64_t>(pairs.size()));

  api::SortedPairsGroupSource groups(conf, &pairs);
  rr.status = WriteTaskOutput(
      ctx, p, place, ctx.reduce_immutable,
      api::counters::kReduceOutputRecords, reporter, sw,
      [&](api::OutputCollector& out) {
        bool imm_unused = false;
        return api::RunReduceTask(conf, groups, out, reporter, &imm_unused);
      },
      &rr.output_bytes);
  if (!rr.status.ok()) return;
  rr.cpu_seconds += std::max(0.0, sw.ElapsedSeconds() - sort_caller);
  ctx.membership.Heartbeat(place);
}

Status M3REngine::Reduce(JobContext& ctx) {
  const sim::ClusterSpec& spec = options_.cluster;
  api::JobResult& result = ctx.result;
  const int num_reduce = ctx.num_reduce;
  if (num_reduce == 0) {
    // Map-only: the map output is the job output.
    ctx.total = ctx.phase_end + spec.m3r_barrier_s;
    for (const TaskPlan& t : ctx.tasks) {
      result.metrics["hdfs_write_bytes"] +=
          static_cast<int64_t>(t.output_bytes);
    }
    return Status::OK();
  }
  ShuffleExchange& shuffle = *ctx.shuffle;
  ctx.reduce_results.resize(static_cast<size_t>(num_reduce));
  ctx.reduce_immutable =
      options_.respect_immutable &&
      ReducerOutputImmutable(ctx.conf, ctx.conf.UsesNewApiReducer(),
                             api::conf::kMapreduceReducer,
                             api::conf::kMapredReducer);
  places_.FinishForAll([&](int place) {
    if (ctx.membership.IsDead(place)) return;
    if (!PlaceAlive(ctx, place)) return;
    std::vector<int> mine;
    for (int p = 0; p < num_reduce; ++p) {
      if (shuffle.PlaceOfPartition(p) == place) mine.push_back(p);
    }
    if (mine.size() <= 1 || ctx.workers <= 1) {
      for (int p : mine) RunReduceTask(ctx, p, place);
    } else {
      places_.pool().ParallelFor(
          mine.size(), [&](size_t k) { RunReduceTask(ctx, mine[k], place); },
          ctx.workers);
    }
  });
  Status reduce_crash;
  {
    std::lock_guard<std::mutex> lock(ctx.crash_mu);
    reduce_crash = ctx.crash_status;
  }
  if (!reduce_crash.ok()) {
    // A crash past the map barrier is past the recovery horizon: the dead
    // place's reduce state (sorted runs, partial writers) is not
    // reconstructible from retained shuffle lanes. Tear the place down so
    // its cache blocks don't serve stale data, then fall back to the
    // whole-job retriable failure — the resubmitted attempt heals its
    // inputs from the checkpoint.
    ConfirmAndTeardown(ctx);
    result.sim_seconds = ctx.reduce_start;
    return reduce_crash;
  }
  if (ctx.cancelled.load()) return Status::Cancelled("job cancelled");
  for (const ReduceResult& rr : ctx.reduce_results) {
    M3R_RETURN_NOT_OK(rr.status);
  }

  sim::SlotTimeline red_tl(spec, ctx.reduce_start);
  for (int p = 0; p < num_reduce; ++p) {
    const ReduceResult& rr = ctx.reduce_results[static_cast<size_t>(p)];
    double d = rr.cpu_seconds * spec.data_scale;
    if (!ctx.temporary) d += cost_.DfsWrite(rr.output_bytes);
    red_tl.ScheduleOnNode(shuffle.PlaceOfPartition(p), ctx.reduce_start, d);
    result.metrics["hdfs_write_bytes"] += static_cast<int64_t>(rr.output_bytes);
    result.counters.Increment(api::counters::kFsGroup,
                              api::counters::kHdfsBytesWritten,
                              static_cast<int64_t>(rr.output_bytes));
  }
  const double reduce_end = red_tl.Makespan();
  result.time_breakdown["reduce_phase"] = reduce_end - ctx.reduce_start;
  result.metrics["reduce_tasks"] = num_reduce;
  ctx.total = reduce_end + spec.m3r_barrier_s;
  // Sort kernel CPU, amortized per slot (same treatment as the integrity
  // charge at commit).
  if (ctx.sort_cpu_total > 0) {
    double sort_s = ctx.sort_cpu_total * spec.data_scale / spec.total_slots();
    result.time_breakdown["sort"] = sort_s;
    ctx.total += sort_s;
  }
  return Status::OK();
}

Status M3REngine::Commit(JobContext& ctx) {
  const api::JobConf& conf = ctx.conf;
  const sim::ClusterSpec& spec = options_.cluster;
  api::JobResult& result = ctx.result;
  if (CancelRequested()) return Status::Cancelled("job cancelled");
  if (!ctx.temporary) {
    api::FileOutputCommitter committer;
    M3R_RETURN_NOT_OK(committer.CommitJob(conf, *fs_));
  }
  // Commit the cache-only output's manifest: the file set a consumer is
  // entitled to. If a place crash later takes blocks with it, the consumer
  // compares against this record and fails loudly instead of silently
  // computing on the survivors (DESIGN.md §13).
  if (ctx.temporary && options_.enable_cache) {
    cache_.RecordManifest(path::Canonicalize(conf.OutputPath()));
  }
  // Spill this job's cache-only (temporary) output to the DFS in the
  // background ("tempout" checkpoint policy).
  if (ctx.checkpoint_tempout && ctx.temporary) {
    ScheduleCheckpoint(cache_.FilesUnder(conf.OutputPath()));
  }
  // Checksum CPU, amortized over the cluster's slots (the stamps and
  // verifies ran inside tasks on every place).
  if (ctx.integrity != nullptr && ctx.integrity->enabled()) {
    double integrity_s =
        cost_.Checksum(static_cast<uint64_t>(
            ctx.integrity->counters->bytes_checksummed.load())) /
        spec.total_slots();
    result.time_breakdown["integrity"] = integrity_s;
    ctx.total += integrity_s;
  }
  // Register the finished output for cross-job reuse: a later submission
  // with the same lineage signature short-circuits to these cached files.
  if (!ctx.lineage_sig.empty() && options_.enable_cache) {
    const std::string out = path::Canonicalize(conf.OutputPath());
    std::vector<std::string> out_files = cache_.FilesUnder(out);
    if (!out_files.empty()) {
      cache_manager_->RegisterReuse(ctx.lineage_sig, out, out_files);
    }
  }
  result.time_breakdown["job_overhead"] = ctx.t0;
  // Both paths end on one Team barrier; attribute it explicitly so the
  // per-phase breakdown sums exactly to sim_seconds.
  result.time_breakdown["exit_barrier"] = spec.m3r_barrier_s;
  result.sim_seconds = ctx.total;
  return Status::OK();
}

void M3REngine::Account(JobContext& ctx) {
  api::JobResult& result = ctx.result;
  if (ctx.fault != nullptr) {
    result.metrics["injected_faults"] = ctx.fault->InjectedCount();
  }
  // Crash history, on failure and on a recovered success alike. Runs after
  // every strand joined, so the tallies need no lock.
  if (ctx.place_crashes > 0) {
    result.metrics["place_crashes"] = ctx.place_crashes;
    result.metrics["cache_evicted_by_crash_blocks"] = ctx.crash_evicted_blocks;
    result.metrics["recovered_map_tasks"] = ctx.recovered_map_tasks;
    result.metrics["membership_epoch"] =
        static_cast<int64_t>(ctx.membership.epoch());
    result.metrics["partition_map_version"] =
        static_cast<int64_t>(ctx.pmap_version);
  }
  if (ctx.integrity != nullptr && ctx.integrity->enabled()) {
    const IntegrityCounters& c = *ctx.integrity->counters;
    result.metrics["integrity_detected"] = c.detected.load();
    result.metrics["integrity_repaired"] = c.repaired.load();
    result.metrics["integrity_bytes_checksummed"] = c.bytes_checksummed.load();
  }
}

void M3REngine::PublishMemgov(JobContext& ctx, bool final) {
  const memgov::CacheManager::Counters now = cache_manager_->counters();
  const l2cache::L2Counters l2now = tiered_->l2_counters();
  api::JobResult& result = ctx.result;
  std::lock_guard<std::mutex> lock(ctx.memgov_mu);
  auto publish = [&](const char* counter, const char* metric,
                     uint64_t value) {
    const auto v = static_cast<int64_t>(value);
    if (counter != nullptr) {
      result.counters.Increment(
          api::counters::kM3rGroup, counter,
          v - result.counters.Get(api::counters::kM3rGroup, counter));
    }
    if (final) result.metrics[metric] = v;
  };
  for (const auto& row : kCacheDeltas) {
    publish(row.counter, row.metric, now.*row.field - ctx.mg0.*row.field);
  }
  // Gauges, not deltas: resident bytes, current leases (readers + open
  // fills), and evictions claimed but not yet published.
  publish(api::counters::kCacheBytesResident, "cache_bytes_resident",
          cache_manager_->ResidentBytes());
  publish(api::counters::kCacheLeasesActive, "cache_leases_active",
          cache_manager_->LeasesActive());
  publish(api::counters::kCacheEvictorInflight, "cache_evictor_inflight",
          cache_manager_->EvictorInflight());
  if (ctx.l2_on) {
    for (const auto& row : kL2Deltas) {
      publish(row.counter, row.metric, l2now.*row.field - ctx.l20.*row.field);
    }
    if (final) {
      result.metrics["l2_bytes_resident"] =
          static_cast<int64_t>(tiered_->L2ResidentBytes());
    }
  }
  if (final && governor_.governed()) {
    result.metrics["memory_budget_bytes"] =
        static_cast<int64_t>(governor_.budget());
    result.metrics["memory_peak_bytes"] =
        static_cast<int64_t>(governor_.PeakUsage());
  }
}

api::JobResult M3REngine::Finish(JobContext& ctx, Status status) {
  api::JobResult& result = ctx.result;
  if (!status.ok() && !ctx.owns_output) {
    // Rejected before the job owned an output: nothing to clean up,
    // account for, or notify.
    api::JobResult rejected;
    rejected.status = std::move(status);
    return rejected;
  }
  if (!status.ok()) {
    if (!ctx.temporary) {
      api::FileOutputCommitter committer;
      committer.AbortJob(ctx.conf, *fs_);
      fs_->Delete(ctx.conf.OutputPath(), true);
    } else {
      cache_.Delete(ctx.conf.OutputPath());
    }
  }
  Account(ctx);
  if (status.ok() && !ctx.served) {
    // Settle the budget before declaring success: the job is done, so its
    // pins come off and anything admitted above the cache's share is
    // evicted (spilling through the checkpoint path) — steady-state
    // residency honors the configured budget between jobs.
    ctx.pins.ReleaseAll();
    if (governor_.governed()) cache_manager_->EvictToBudget();
  }
  PublishMemgov(ctx, /*final=*/true);
  result.status = std::move(status);
  result.wall_seconds = ctx.wall.ElapsedSeconds();
  if (result.status.ok()) ReportProgress(ctx.conf, 1.0, &result.counters);
  NotifyJobEnd(ctx.conf, result);
  return std::move(result);
}

}  // namespace m3r::engine
