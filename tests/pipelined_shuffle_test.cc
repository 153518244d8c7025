// Stress + protocol tests for the shuffle's sorted runs (DESIGN.md §15):
// concurrent emit strands trigger early run flushes on their own threads
// while other strands append/compact/spill runs into the same partitions,
// then concurrent barrier drains seal the residuals. The delivered record
// multiset must match an oracle built straight from the emission plan and
// the barrier drain (a flush threshold above every lane) run over the same
// plan, the merged drain must be globally sorted, overflow budgets must
// spill whole runs through the sink without losing a record, and recovery
// must discard exactly the dead places' pre-barrier runs.
//
// Meant to run under -DM3R_SANITIZE=thread as the data-race check for the
// emit-time flush path (see check-sanitize).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/executor.h"
#include "common/sort.h"
#include "m3r/shuffle.h"
#include "serialize/basic_writables.h"
#include "serialize/dedup.h"
#include "serialize/io.h"
#include "serialize/writable.h"

namespace m3r::engine {
namespace {

using serialize::LongWritable;
using serialize::SerializeToString;
using serialize::Text;
using serialize::WritablePtr;

constexpr int kPlaces = 4;
constexpr int kWorkers = 3;
constexpr int kPartitions = 8;
constexpr int kEmitsPerStrand = 300;

/// In-memory RunSpillSink; thread-safe (Write runs under partition locks on
/// several strands at once).
class MapSpillSink : public RunSpillSink {
 public:
  Status Write(const std::string& id, const std::string& bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    store_[id] = bytes;
    return Status::OK();
  }
  Status Read(const std::string& id, std::string* bytes) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = store_.find(id);
    if (it == store_.end()) return Status::NotFound("no spilled run " + id);
    *bytes = it->second;
    return Status::OK();
  }
  size_t spilled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return store_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> store_;
};

/// Above any lane's size: every lane seals once, at the barrier.
constexpr size_t kBarrierDrainFlushBytes = size_t{1} << 30;

ShuffleOptions PipelinedOptions(size_t flush_bytes) {
  ShuffleOptions opts;
  opts.num_partitions = kPartitions;
  opts.workers_per_place = kWorkers;
  opts.flush_bytes = flush_bytes;
  return opts;
}

/// Pair `j` of one strand's deterministic emission plan (mix of
/// local/remote destinations, duplicate keys, cloned pairs).
struct PlannedPair {
  int partition;
  bool immutable;
  WritablePtr key;
  WritablePtr value;
};

PlannedPair PlanPair(int place, int lane, int j) {
  return {(place + 3 * lane + j) % kPartitions, (j % 7) != 0,
          std::make_shared<LongWritable>((place + lane + j) % 50),
          std::make_shared<Text>("v" + std::to_string(place) + "." +
                                 std::to_string(lane) + "." +
                                 std::to_string(j))};
}

void EmitStrand(ShuffleExchange* shuffle, int place, int lane) {
  for (int j = 0; j < kEmitsPerStrand; ++j) {
    PlannedPair pair = PlanPair(place, lane, j);
    shuffle->Emit(place, pair.partition, pair.key, pair.value,
                  pair.immutable, lane);
  }
}

/// What every partition must deliver, straight from the emission plan:
/// the sorted multiset of serialized "key|value".
std::vector<std::vector<std::string>> PlanOracle() {
  std::vector<std::vector<std::string>> oracle(kPartitions);
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      for (int j = 0; j < kEmitsPerStrand; ++j) {
        PlannedPair pair = PlanPair(place, lane, j);
        oracle[static_cast<size_t>(pair.partition)].push_back(
            SerializeToString(*pair.key) + "|" +
            SerializeToString(*pair.value));
      }
    }
  }
  for (auto& view : oracle) std::sort(view.begin(), view.end());
  return oracle;
}

void RunPlan(ShuffleExchange* shuffle, bool concurrent) {
  if (concurrent) {
    std::vector<std::thread> strands;
    for (int place = 0; place < kPlaces; ++place) {
      for (int lane = 0; lane < kWorkers; ++lane) {
        strands.emplace_back(EmitStrand, shuffle, place, lane);
      }
    }
    for (auto& t : strands) t.join();
    Executor pool(4);
    std::vector<std::thread> deliverers;
    for (int place = 0; place < kPlaces; ++place) {
      deliverers.emplace_back(
          [shuffle, &pool, place] { shuffle->DeliverTo(place, &pool, kWorkers); });
    }
    for (auto& t : deliverers) t.join();
  } else {
    for (int place = 0; place < kPlaces; ++place) {
      for (int lane = 0; lane < kWorkers; ++lane) {
        EmitStrand(shuffle, place, lane);
      }
    }
    for (int place = 0; place < kPlaces; ++place) shuffle->DeliverTo(place);
  }
}

/// Canonical multiset of everything a partition delivered: local pairs plus
/// every sorted-run record, serialized the same way. Drains the runs, and
/// hands them to `runs_out` when given.
std::vector<std::string> PipelinedView(
    ShuffleExchange* shuffle, int partition,
    std::vector<SortedRun>* runs_out = nullptr) {
  std::vector<std::string> view;
  for (const auto& [k, v] : shuffle->PartitionPairs(partition)) {
    view.push_back(SerializeToString(*k) + "|" + SerializeToString(*v));
  }
  std::vector<SortedRun> runs;
  EXPECT_TRUE(shuffle->CollectPartitionRuns(partition, &runs).ok());
  for (const SortedRun& run : runs) {
    serialize::DataInput in(std::string_view(run.bytes));
    uint64_t records = 0;
    while (!in.AtEnd()) {
      std::string_view k = in.ReadStringView();
      std::string_view v = in.ReadStringView();
      view.push_back(std::string(k) + "|" + std::string(v));
      ++records;
    }
    EXPECT_EQ(records, run.records);
  }
  std::sort(view.begin(), view.end());
  if (runs_out != nullptr) *runs_out = std::move(runs);
  return view;
}

TEST(PipelinedShuffleTest, ConcurrentPipelineMatchesBarrierExchange) {
  // Tiny flush threshold: every strand seals many runs mid-emit, so the
  // emit / flush / append / compact interleaving is exercised for real.
  ShuffleExchange pipelined(kPlaces, PipelinedOptions(/*flush_bytes=*/512));
  RunPlan(&pipelined, /*concurrent=*/true);
  ASSERT_TRUE(pipelined.status().ok());

  ShuffleExchange barrier(kPlaces, PipelinedOptions(kBarrierDrainFlushBytes));
  RunPlan(&barrier, /*concurrent=*/false);
  ASSERT_TRUE(barrier.status().ok());

  ShuffleExchange::Stats ps = pipelined.ComputeStats();
  ShuffleExchange::Stats bs = barrier.ComputeStats();
  EXPECT_GT(ps.runs_shipped, bs.runs_shipped);
  EXPECT_GT(ps.peak_resident_run_bytes, 0u);
  const auto oracle = PlanOracle();
  for (int p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(PipelinedView(&pipelined, p), oracle[p]) << "partition " << p;
    EXPECT_EQ(PipelinedView(&barrier, p), oracle[p]) << "partition " << p;
  }
  EXPECT_EQ(ps.local_pairs, bs.local_pairs);
  EXPECT_EQ(ps.remote_pairs, bs.remote_pairs);
  EXPECT_EQ(ps.local_pairs + ps.remote_pairs,
            static_cast<uint64_t>(kPlaces) * kWorkers * kEmitsPerStrand);
}

TEST(PipelinedShuffleTest, BarrierDrainSealsOneRunPerLanePartition) {
  // A flush threshold above every lane is the degenerate barrier drain:
  // nothing ships before DeliverTo, each lane seals once, and that one
  // flush cuts exactly one run per partition the lane carried.
  ShuffleExchange shuffle(kPlaces, PipelinedOptions(kBarrierDrainFlushBytes));
  RunPlan(&shuffle, /*concurrent=*/true);
  ASSERT_TRUE(shuffle.status().ok());

  using LanePartition = std::tuple<int, int, int>;  // (src, lane, partition)
  std::multiset<LanePartition> expected;
  std::set<std::tuple<int, int, int>> lanes;  // (src, dst, lane)
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      std::set<int> partitions;
      for (int j = 0; j < kEmitsPerStrand; ++j) {
        const int p = PlanPair(place, lane, j).partition;
        const int dst = shuffle.PlaceOfPartition(p);
        if (dst == place) continue;  // local pairs never enter a lane
        partitions.insert(p);
        lanes.emplace(place, dst, lane);
      }
      for (int p : partitions) expected.emplace(place, lane, p);
    }
  }
  ShuffleExchange::Stats stats = shuffle.ComputeStats();
  EXPECT_EQ(stats.runs_shipped, lanes.size());
  EXPECT_EQ(stats.runs_compacted, 0u);
  for (int src = 0; src < kPlaces; ++src) {
    for (int dst = 0; dst < kPlaces; ++dst) {
      EXPECT_EQ(shuffle.BarrierWireBytes(src, dst),
                shuffle.WireBytes(src, dst))
          << src << "->" << dst;
      if (src != dst) {
        EXPECT_GT(shuffle.WireBytes(src, dst), 0u);
      }
    }
  }

  const auto oracle = PlanOracle();
  std::multiset<LanePartition> sealed;
  for (int p = 0; p < kPartitions; ++p) {
    std::vector<SortedRun> runs;
    EXPECT_EQ(PipelinedView(&shuffle, p, &runs), oracle[p])
        << "partition " << p;
    for (const SortedRun& run : runs) {
      EXPECT_EQ(run.seq, 0u);
      EXPECT_EQ(run.seq_last, 0u);
      sealed.emplace(run.src_place, run.worker_lane, p);
    }
  }
  EXPECT_EQ(sealed, expected);
}

TEST(PipelinedShuffleTest, RunsMergeIntoGlobalKeyOrderWithStableOrdinals) {
  ShuffleExchange shuffle(kPlaces, PipelinedOptions(/*flush_bytes=*/512));
  RunPlan(&shuffle, /*concurrent=*/false);
  ASSERT_TRUE(shuffle.status().ok());

  for (int p = 0; p < kPartitions; ++p) {
    std::vector<SortedRun> runs;
    ASSERT_TRUE(shuffle.CollectPartitionRuns(p, &runs).ok());
    ASSERT_FALSE(runs.empty());
    std::vector<serialize::DataInput> ins;
    ins.reserve(runs.size());
    uint64_t expected = 0;
    for (const SortedRun& run : runs) {
      EXPECT_GT(run.records, 0u);
      EXPECT_EQ(run.key_type, LongWritable().TypeName());
      ins.emplace_back(std::string_view(run.bytes));
      expected += run.records;
    }
    sortkit::RunMerger merger;
    for (size_t i = 0; i < ins.size(); ++i) {
      serialize::DataInput* in = &ins[i];
      merger.AddRun(
          [in](std::string_view* k, std::string_view* v) {
            if (in->AtEnd()) return false;
            *k = in->ReadStringView();
            *v = in->ReadStringView();
            return true;
          },
          RunOrdinal(runs[i].src_place, runs[i].worker_lane, runs[i].seq));
    }
    std::string prev;
    std::string_view k, v;
    uint64_t merged = 0;
    while (merger.Next(&k, &v)) {
      if (merged > 0) {
        EXPECT_LE(prev, std::string(k));
      }
      prev.assign(k.data(), k.size());
      ++merged;
    }
    EXPECT_EQ(merged, expected);
  }
}

TEST(PipelinedShuffleTest, OverBudgetPartitionsSpillWholeRunsAndReload) {
  MapSpillSink sink;
  ShuffleOptions opts = PipelinedOptions(/*flush_bytes=*/512);
  opts.partition_budget_bytes = 2048;  // far below the per-partition load
  opts.spill_sink = &sink;
  std::atomic<uint64_t> gauge{0};
  opts.resident_gauge = &gauge;
  ShuffleExchange pipelined(kPlaces, opts);
  RunPlan(&pipelined, /*concurrent=*/true);
  ASSERT_TRUE(pipelined.status().ok());

  ShuffleExchange::Stats ps = pipelined.ComputeStats();
  EXPECT_GT(ps.overflow_spills, 0u);
  EXPECT_GT(sink.spilled(), 0u);
  // The whole working set never fit the budget...
  EXPECT_GT(ps.max_partition_run_bytes, opts.partition_budget_bytes);
  // ...but no record was lost: the reloaded multiset still matches the
  // emission plan.
  const auto oracle = PlanOracle();
  for (int p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(PipelinedView(&pipelined, p), oracle[p]) << "partition " << p;
  }
  // Every partition was drained, so the external gauge is settled.
  EXPECT_EQ(gauge.load(), 0u);
}

TEST(PipelinedShuffleTest, DropDeadPlacesDiscardsDeadSourcesRuns) {
  ShuffleExchange shuffle(kPlaces, PipelinedOptions(/*flush_bytes=*/512));
  // Pre-barrier emissions from every place, enough to ship runs.
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      EmitStrand(&shuffle, place, lane);
    }
  }
  ShuffleExchange::Stats before = shuffle.ComputeStats();
  ASSERT_GT(before.runs_shipped, 0u);

  const int dead = 1;
  ShuffleExchange::RecoveryStats rs =
      shuffle.DropDeadPlaces({dead}, {0, 2, 3});
  EXPECT_GT(rs.dropped_runs, 0);
  EXPECT_GT(rs.dropped_lanes, 0);

  // Survivors drain; the dead place delivers nothing.
  for (int place : {0, 2, 3}) shuffle.DeliverTo(place);
  ASSERT_TRUE(shuffle.status().ok());
  for (int p = 0; p < kPartitions; ++p) {
    std::vector<SortedRun> runs;
    ASSERT_TRUE(shuffle.CollectPartitionRuns(p, &runs).ok());
    for (const SortedRun& run : runs) {
      EXPECT_NE(run.src_place, dead) << "dead place's run survived";
    }
  }
}

/// Pair `j` of a strand whose values are broadcast: one value object goes
/// to many partitions in a row, so under kFull its back-references cross
/// the partitions of one lane frame. Some pairs are mutable (cloned at
/// Emit, so never de-duplicated).
PlannedPair BroadcastPair(int place, int lane, int j,
                          std::vector<WritablePtr>* shared_values) {
  if (j % 16 == 0) {
    shared_values->push_back(std::make_shared<Text>(
        "shared-" + std::to_string(place) + "." + std::to_string(lane) +
        "." + std::to_string(j)));
  }
  WritablePtr value = shared_values->back();
  if (j % 5 == 0) value = std::make_shared<Text>("own-" + std::to_string(j));
  return {j % kPartitions, (j % 11) != 0,
          std::make_shared<LongWritable>((7 * j + place) % 40), value};
}

/// One reference run: records in sorted order plus the record types.
struct ReferenceRun {
  std::vector<std::pair<std::string, std::string>> records;
  std::string key_type;
  std::string value_type;
};
using RunAddress = std::tuple<int, int, uint64_t, int>;  // src, lane, seq, p

/// Seals `frame` the way runs were sealed before they were cut from wire
/// bytes: rebuild every object (ReadObject), re-serialize it
/// (SerializeToString), bucket per partition in emission order, and stable
/// sort each bucket by its serialized keys.
void SealTheOldWay(const std::string& frame, int src, int lane, uint64_t seq,
                   std::map<RunAddress, ReferenceRun>* runs) {
  std::map<int, ReferenceRun> buckets;
  serialize::DedupInputStream in(frame);
  while (!in.AtEnd()) {
    const int partition = static_cast<int>(in.ReadControl());
    WritablePtr key = in.ReadObject();
    WritablePtr value = in.ReadObject();
    ReferenceRun& b = buckets[partition];
    if (b.records.empty()) {
      b.key_type = key->TypeName();
      b.value_type = value->TypeName();
    }
    b.records.emplace_back(SerializeToString(*key),
                           SerializeToString(*value));
  }
  for (auto& [partition, b] : buckets) {
    std::vector<std::string_view> keys;
    for (const auto& record : b.records) keys.push_back(record.first);
    std::vector<uint32_t> perm =
        sortkit::StableSortPermutation(keys, sortkit::SortOptions());
    ReferenceRun sorted;
    sorted.key_type = b.key_type;
    sorted.value_type = b.value_type;
    for (uint32_t i : perm) sorted.records.push_back(b.records[i]);
    (*runs)[{src, lane, seq, partition}] = std::move(sorted);
  }
}

/// Replays the broadcast plan's remote emissions into per-lane dedup
/// streams with the exchange's flush rule, sealing each frame the old way.
std::map<RunAddress, ReferenceRun> ReferenceRuns(
    const ShuffleExchange& shuffle, serialize::DedupMode mode,
    size_t flush_bytes) {
  std::map<RunAddress, ReferenceRun> runs;
  for (int place = 0; place < kPlaces; ++place) {
    for (int lane = 0; lane < kWorkers; ++lane) {
      std::map<int, serialize::DedupOutputStream> streams;  // per dst
      std::map<int, uint64_t> seqs;
      std::vector<WritablePtr> shared_values;
      for (int j = 0; j < kEmitsPerStrand; ++j) {
        PlannedPair pair = BroadcastPair(place, lane, j, &shared_values);
        const int dst = shuffle.PlaceOfPartition(pair.partition);
        if (dst == place) continue;
        serialize::DedupOutputStream& out =
            streams.try_emplace(dst, mode).first->second;
        out.WriteControl(static_cast<uint64_t>(pair.partition));
        out.WriteObject(pair.immutable ? pair.key : pair.key->Clone());
        out.WriteObject(pair.immutable ? pair.value : pair.value->Clone());
        if (out.buffer().size() >= flush_bytes) {
          SealTheOldWay(out.TakeBuffer(), place, lane, seqs[dst]++, &runs);
          out = serialize::DedupOutputStream(mode);
        }
      }
      for (auto& [dst, out] : streams) {
        if (out.buffer().empty()) continue;
        SealTheOldWay(out.TakeBuffer(), place, lane, seqs[dst]++, &runs);
      }
    }
  }
  return runs;
}

TEST(PipelinedShuffleTest, SealedRunsAreByteIdenticalToReserializedRuns) {
  // Runs are cut straight from the lane frame's wire bytes; every one must
  // equal what rebuilding and re-serializing each object would have
  // sealed. A compacted run (seq < seq_last) must equal the stable merge
  // of its members, i.e. the stable sort of their records in seq order.
  for (serialize::DedupMode mode :
       {serialize::DedupMode::kFull, serialize::DedupMode::kOff,
        serialize::DedupMode::kConsecutive}) {
    for (size_t flush_bytes : {kBarrierDrainFlushBytes, size_t{256}}) {
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)) +
                   " flush " + std::to_string(flush_bytes));
      ShuffleOptions opts = PipelinedOptions(flush_bytes);
      opts.dedup_mode = mode;
      ShuffleExchange shuffle(kPlaces, opts);
      for (int place = 0; place < kPlaces; ++place) {
        for (int lane = 0; lane < kWorkers; ++lane) {
          std::vector<WritablePtr> shared_values;
          for (int j = 0; j < kEmitsPerStrand; ++j) {
            PlannedPair pair = BroadcastPair(place, lane, j, &shared_values);
            shuffle.Emit(place, pair.partition, pair.key, pair.value,
                         pair.immutable, lane);
          }
        }
      }
      for (int place = 0; place < kPlaces; ++place) shuffle.DeliverTo(place);
      ASSERT_TRUE(shuffle.status().ok());
      if (mode != serialize::DedupMode::kOff) {
        EXPECT_GT(shuffle.ComputeStats().deduped_objects, 0u);
      }

      const std::map<RunAddress, ReferenceRun> reference =
          ReferenceRuns(shuffle, mode, flush_bytes);
      size_t matched = 0;
      for (int p = 0; p < kPartitions; ++p) {
        std::vector<SortedRun> runs;
        ASSERT_TRUE(shuffle.CollectPartitionRuns(p, &runs).ok());
        for (const SortedRun& run : runs) {
          std::vector<std::pair<std::string, std::string>> records;
          std::string key_type, value_type;
          for (uint64_t seq = run.seq; seq <= run.seq_last; ++seq) {
            auto it = reference.find({run.src_place, run.worker_lane, seq, p});
            ASSERT_NE(it, reference.end())
                << "no reference run " << run.src_place << "#"
                << run.worker_lane << " seq " << seq << " p" << p;
            ++matched;
            records.insert(records.end(), it->second.records.begin(),
                           it->second.records.end());
            if (key_type.empty()) {
              key_type = it->second.key_type;
              value_type = it->second.value_type;
            }
          }
          std::vector<std::string_view> keys;
          for (const auto& record : records) keys.push_back(record.first);
          serialize::DataOutput expected;
          for (uint32_t i : sortkit::StableSortPermutation(
                   keys, sortkit::SortOptions())) {
            expected.WriteString(records[i].first);
            expected.WriteString(records[i].second);
          }
          EXPECT_EQ(run.bytes, expected.buffer())
              << "run " << run.src_place << "#" << run.worker_lane << " seq "
              << run.seq << ".." << run.seq_last << " p" << p;
          EXPECT_EQ(run.records, records.size());
          EXPECT_EQ(run.key_type, key_type);
          EXPECT_EQ(run.value_type, value_type);
        }
      }
      EXPECT_EQ(matched, reference.size());
      if (flush_bytes != kBarrierDrainFlushBytes) {
        EXPECT_GT(shuffle.ComputeStats().runs_compacted, 0u);
      }
    }
  }
}

TEST(PipelinedShuffleTest, EarlyFlushesRecycleWireBuffersThroughThePool) {
  BufferPool pool;
  ShuffleOptions opts = PipelinedOptions(/*flush_bytes=*/512);
  opts.workers_per_place = 1;
  opts.buffer_pool = &pool;
  ShuffleExchange shuffle(kPlaces, opts);
  // One strand, many flushes on the same lane: from the second flush on,
  // Acquire must be served from the buffers the earlier flushes released —
  // the per-run recycle contract.
  for (int j = 0; j < 2000; ++j) {
    shuffle.Emit(/*src_place=*/0, /*partition=*/1,
                 std::make_shared<LongWritable>(j),
                 std::make_shared<Text>("value-" + std::to_string(j)),
                 /*immutable=*/true, /*worker_lane=*/0);
  }
  EXPECT_GT(pool.reused(), 0u);
  EXPECT_GT(shuffle.ComputeStats().runs_shipped, 1u);
  for (int place = 0; place < kPlaces; ++place) shuffle.DeliverTo(place);
  ASSERT_TRUE(shuffle.status().ok());
}

}  // namespace
}  // namespace m3r::engine
