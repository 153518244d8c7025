#include "api/map_output_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/counters.h"
#include "common/rng.h"
#include "hadoop/spill.h"
#include "serialize/basic_writables.h"
#include "serialize/comparators.h"
#include "workloads/wordcount.h"

namespace m3r::api {
namespace {

using serialize::IntWritable;
using serialize::PairIntWritable;
using serialize::SerializeToString;
using serialize::Text;

/// Reverse byte order: a sort comparator the prefix kernel cannot serve.
class ReverseBytesComparator : public serialize::RawComparator {
 public:
  static constexpr const char* kName = "ReverseBytesComparator";
  int Compare(std::string_view a, std::string_view b) const override {
    int c = b.compare(a);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const char* Name() const override { return kName; }
};
M3R_REGISTER_COMPARATOR(ReverseBytesComparator)

/// Sorts `arena` under `cmp` as the engines do: the byte default takes the
/// prefix path, any other order its virtual Compare.
void SortArena(MapOutputArena& arena, const serialize::RawComparatorPtr& cmp) {
  sortkit::RawCompareFn custom;
  arena.Sort(SortkitOrder(cmp, &custom));
}

/// One collected record as the tests write it down: (partition, key bytes,
/// value bytes), in collect order.
using Record = std::tuple<int, std::string, std::string>;

std::vector<Record> ReadPartitions(const MapOutputArena& arena, int parts) {
  std::vector<Record> out;
  for (int p = 0; p < parts; ++p) {
    sortkit::RunCursor next = arena.Partition(p);
    std::string_view k, v;
    size_t n = 0;
    while (next(&k, &v)) {
      out.emplace_back(p, std::string(k), std::string(v));
      ++n;
    }
    EXPECT_EQ(n, arena.PartitionRecords(p)) << "partition " << p;
  }
  return out;
}

/// (group key bytes, value bytes...) per group, in group order.
using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;

Groups Drain(GroupSource& groups) {
  Groups out;
  while (groups.NextGroup()) {
    out.emplace_back(SerializeToString(*groups.Key()),
                     std::vector<std::string>());
    ValuesIterator& values = groups.Values();
    while (values.HasNext()) {
      out.back().second.push_back(SerializeToString(*values.Next()));
    }
  }
  return out;
}

TEST(MapOutputArenaTest, SortsStablyByPartitionThenKey) {
  for (const char* cmp_name :
       {serialize::BytesComparator::kName, ReverseBytesComparator::kName}) {
    SCOPED_TRACE(cmp_name);
    auto cmp = serialize::ComparatorRegistry::Instance().Create(cmp_name);
    constexpr int kParts = 5;
    MapOutputArena arena(kParts);
    std::vector<Record> collected;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
      const int p = static_cast<int>(rng.NextBelow(kParts));
      // Few distinct keys, many repeats: stability decides the order of
      // equal keys, and values record the collect order.
      Text key("k" + std::to_string(rng.NextBelow(40)));
      IntWritable value(i);
      arena.Add(p, key, value);
      collected.emplace_back(p, SerializeToString(key),
                             SerializeToString(value));
    }
    EXPECT_EQ(arena.records(), collected.size());
    std::vector<Record> expected = collected;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](const Record& a, const Record& b) {
                       if (std::get<0>(a) != std::get<0>(b)) {
                         return std::get<0>(a) < std::get<0>(b);
                       }
                       return cmp->Compare(std::get<1>(a), std::get<1>(b)) < 0;
                     });
    SortArena(arena, cmp);
    EXPECT_EQ(ReadPartitions(arena, kParts), expected);

    // Clear keeps nothing; the arena is reusable.
    arena.Clear();
    EXPECT_EQ(arena.records(), 0u);
    EXPECT_EQ(arena.bytes(), 0u);
    arena.Add(2, Text("again"), IntWritable(1));
    SortArena(arena, cmp);
    EXPECT_EQ(ReadPartitions(arena, kParts),
              (std::vector<Record>{{2, SerializeToString(Text("again")),
                                    SerializeToString(IntWritable(1))}}));
  }
}

TEST(SpanGroupSourceTest, MatchesSortedPairsGroupSourceUnderNonByteOrder) {
  // Sort and group by row only: keys with one row but different columns
  // are byte-unequal yet one group, keyed by the first collected.
  JobConf conf;
  conf.SetMapOutputKeyClass(PairIntWritable::kTypeName);
  conf.SetMapOutputValueClass(IntWritable::kTypeName);
  conf.SetSortComparatorClass(serialize::PairRowComparator::kName);
  auto cmp = SortComparator(conf);
  ASSERT_STREQ(cmp->Name(), serialize::PairRowComparator::kName);

  MapOutputArena arena(1);
  std::vector<KeyedPair> pairs;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    auto key = std::make_shared<PairIntWritable>(
        static_cast<int32_t>(rng.NextBelow(30)),
        static_cast<int32_t>(rng.NextBelow(4)));
    auto value = std::make_shared<IntWritable>(i);
    arena.Add(0, *key, *value);
    KeyedPair kp;
    kp.key_bytes = SerializeToString(*key);
    kp.key = key;
    kp.value = value;
    pairs.push_back(std::move(kp));
  }
  SortPairs(conf, &pairs);
  SortedPairsGroupSource reference(conf, &pairs);
  const Groups expected = Drain(reference);

  SortArena(arena, cmp);
  const MapOutputFactories factories(conf);
  SpanGroupSource groups(cmp, factories, arena.Partition(0));
  const Groups got = Drain(groups);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got.size(), 30u);

  // Skipping values mid-group still lands on the next group's first
  // record, and every group key is a fresh object.
  SpanGroupSource skipping(cmp, factories, arena.Partition(0));
  std::vector<std::string> keys;
  std::vector<WritablePtr> held;
  while (skipping.NextGroup()) {
    keys.push_back(SerializeToString(*skipping.Key()));
    held.push_back(skipping.Key());
    if (keys.size() % 2 == 0) skipping.Values().Next();
  }
  ASSERT_EQ(keys.size(), expected.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    EXPECT_EQ(keys[g], expected[g].first) << "group " << g;
    for (size_t h = 0; h < g; ++h) EXPECT_NE(held[g].get(), held[h].get());
  }
}

TEST(SpanGroupSourceTest, ByteGroupingSplitsEveryDistinctKey) {
  JobConf conf;
  conf.SetMapOutputKeyClass(Text::kTypeName);
  conf.SetMapOutputValueClass(IntWritable::kTypeName);
  MapOutputArena arena(1);
  for (const char* k : {"b", "a", "b", "c", "a", "b"}) {
    arena.Add(0, Text(k), IntWritable(1));
  }
  auto cmp = SortComparator(conf);
  SortArena(arena, cmp);
  const MapOutputFactories factories(conf);
  SpanGroupSource groups(cmp, factories, arena.Partition(0));
  const Groups got = Drain(groups);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, SerializeToString(Text("a")));
  EXPECT_EQ(got[0].second.size(), 2u);
  EXPECT_EQ(got[1].second.size(), 3u);
  EXPECT_EQ(got[2].second.size(), 1u);
}

TEST(MapOutputArenaTest, KeepsBytesOfObjectsMutatedAfterAdd) {
  // The reusing-mapper contract: Add serializes, so mutating the objects
  // afterwards must not change what was collected. (End to end, the
  // reuse-mapper job of CounterParity runs this path on both engines.)
  MapOutputArena arena(1);
  auto word = std::make_shared<Text>();
  auto count = std::make_shared<IntWritable>();
  for (const char* w : {"z", "y", "z", "x"}) {
    word->Set(w);
    count->Set(static_cast<int32_t>(word->Get().size()));
    arena.Add(0, *word, *count);
  }
  word->Set("mutated");
  count->Set(-1);
  auto cmp = std::make_shared<const serialize::BytesComparator>();
  SortArena(arena, cmp);
  std::vector<std::string> keys;
  for (const Record& r : ReadPartitions(arena, 1)) {
    Text t;
    serialize::DeserializeFromString(std::get<1>(r), &t);
    keys.push_back(t.Get());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"x", "y", "z", "z"}));
}

/// Serializes combiner output into a segment, as the spill does.
class SegmentCollector : public OutputCollector {
 public:
  explicit SegmentCollector(hadoop::SegmentWriter* segment)
      : segment_(segment) {}
  void Collect(const WritablePtr& key, const WritablePtr& value) override {
    segment_->Add(SerializeToString(*key), SerializeToString(*value));
  }

 private:
  hadoop::SegmentWriter* segment_;
};

/// The spill as it was built before the shared arena: per partition,
/// deserialize every record into a KeyedPair, stable-sort the pairs, group
/// them with SortedPairsGroupSource and combine into a segment.
std::vector<std::string> ReferenceSpill(const JobConf& conf,
                                        const std::vector<Record>& records,
                                        int parts) {
  const auto make_key =
      serialize::WritableRegistry::Instance().Resolve(conf.MapOutputKeyClass());
  const auto make_value = serialize::WritableRegistry::Instance().Resolve(
      conf.MapOutputValueClass());
  auto cmp = SortComparator(conf);
  Counters counters;
  CountersReporter reporter(&counters);
  std::vector<std::string> segments(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    std::vector<KeyedPair> pairs;
    for (const auto& [rp, kbytes, vbytes] : records) {
      if (rp != p) continue;
      KeyedPair kp;
      kp.key_bytes = kbytes;
      kp.key = make_key();
      serialize::DeserializeFromString(kbytes, kp.key.get());
      kp.value = make_value();
      serialize::DeserializeFromString(vbytes, kp.value.get());
      pairs.push_back(std::move(kp));
    }
    if (pairs.empty()) continue;
    SortPairs(conf, &pairs);
    SortedPairsGroupSource groups(conf, &pairs);  // grouping = sort order
    hadoop::SegmentWriter segment;
    SegmentCollector collector(&segment);
    EXPECT_TRUE(RunCombine(conf, groups, collector, reporter).ok());
    segments[static_cast<size_t>(p)] = segment.Take();
  }
  return segments;
}

TEST(MapOutputBufferTest, CombinedSpillsMatchTheDeserializingReference) {
  for (const char* cmp_name :
       {serialize::BytesComparator::kName, ReverseBytesComparator::kName}) {
    SCOPED_TRACE(cmp_name);
    JobConf conf = workloads::MakeWordCountJob("/in", "/out", 3, true);
    conf.SetSortComparatorClass(cmp_name);
    constexpr uint64_t kLimit = 600;
    conf.SetInt(hadoop::kSortBufferBytesKey, kLimit);
    constexpr int kParts = 3;
    Counters counters;
    CountersReporter reporter(&counters);
    hadoop::MapOutputBuffer buffer(conf, kParts, &reporter);
    auto partitioner = MakePartitioner(conf);

    // Replay the buffer's spill trigger to cut the reference spills.
    std::vector<std::vector<Record>> spills(1);
    uint64_t buffered = 0;
    Rng rng(3);
    auto word = std::make_shared<Text>();  // reused, as Hadoop mappers do
    auto one = std::make_shared<IntWritable>(1);
    for (int i = 0; i < 400; ++i) {
      word->Set("w" + std::to_string(rng.NextBelow(25)));
      buffer.Collect(word, one);
      const std::string k = SerializeToString(*word);
      const std::string v = SerializeToString(*one);
      spills.back().emplace_back(partitioner->GetPartition(*word, *one, kParts),
                                 k, v);
      buffered += k.size() + v.size();
      if (buffered >= kLimit) {
        spills.emplace_back();
        buffered = 0;
      }
    }
    if (spills.back().empty()) spills.pop_back();
    buffer.Flush();

    ASSERT_GE(buffer.spills().size(), 3u);
    ASSERT_EQ(buffer.spills().size(), spills.size());
    int64_t combine_in = 0;
    for (size_t s = 0; s < spills.size(); ++s) {
      SCOPED_TRACE("spill " + std::to_string(s));
      combine_in += static_cast<int64_t>(spills[s].size());
      EXPECT_EQ(buffer.spills()[s].partition_segments,
                ReferenceSpill(conf, spills[s], kParts));
    }
    EXPECT_EQ(counters.Get(counters::kTaskGroup,
                           counters::kCombineInputRecords),
              combine_in);
    EXPECT_EQ(buffer.total_records(), 400u);
  }
}

}  // namespace
}  // namespace m3r::api
