// End-to-end secondary sort (user-specified sorting and grouping
// comparators, paper §1's API inventory): keys are (group, sequence)
// pairs; the sort comparator orders by both components while the grouping
// comparator groups by the first only, so each reduce call sees its
// group's values ordered by sequence — on both engines.
#include <gtest/gtest.h>

#include "api/class_registry.h"
#include "api/sequence_file.h"
#include "dfs/local_fs.h"
#include "hadoop/hadoop_engine.h"
#include "m3r/m3r_engine.h"
#include "serialize/basic_writables.h"
#include "serialize/comparators.h"
#include "serialize/extra_writables.h"

namespace m3r {
namespace {

using serialize::IntWritable;
using serialize::PairIntWritable;
using serialize::Text;

/// Emits (group, seq) -> "g<group>#<seq>"; the reducer asserts in-order
/// arrival and outputs the concatenation per group.
class ConcatInOrderReducer : public api::mapred::Reducer,
                             public api::ImmutableOutput {
 public:
  static constexpr const char* kClassName = "ConcatInOrderReducer";
  void Reduce(const api::WritablePtr& key, api::ValuesIterator& values,
              api::OutputCollector& output,
              api::Reporter& reporter) override {
    std::string joined;
    int last_seq = -1;
    while (values.HasNext()) {
      // Hold the pointer: Next() returns the value by shared pointer, and a
      // reference bound through a temporary would dangle past this line.
      api::WritablePtr vp = values.Next();
      const auto& v = static_cast<const Text&>(*vp);
      // Value format "<seq>:payload"; verify monotone sequence.
      int seq = std::stoi(v.Get());
      if (seq <= last_seq) {
        reporter.IncrCounter("SecondarySort", "OUT_OF_ORDER", 1);
      }
      last_seq = seq;
      if (!joined.empty()) joined += ",";
      joined += v.Get();
    }
    const auto& k = static_cast<const PairIntWritable&>(*key);
    output.Collect(std::make_shared<IntWritable>(k.Row()),
                   std::make_shared<Text>(joined));
  }
};

M3R_REGISTER_CLASS_AS(api::mapred::Reducer, ConcatInOrderReducer,
                      ConcatInOrderReducer)

sim::ClusterSpec SmallCluster() {
  sim::ClusterSpec spec;
  spec.num_nodes = 4;
  spec.slots_per_node = 2;
  return spec;
}

class SecondarySortTest : public ::testing::TestWithParam<bool> {};

TEST_P(SecondarySortTest, ValuesArriveOrderedWithinGroups) {
  auto fs = dfs::MakeSimDfs(4, 64 * 1024);
  // Input: (group g, seq s) -> "s:payload", seqs deliberately shuffled
  // across files so the sort has real work.
  {
    for (int f = 0; f < 3; ++f) {
      auto w = fs->Create("/ss/in/f" + std::to_string(f), {});
      ASSERT_TRUE(w.ok());
      api::SequenceFileWriter writer(w.take(), PairIntWritable::kTypeName,
                                     Text::kTypeName);
      for (int g = 0; g < 6; ++g) {
        for (int s = f; s < 30; s += 3) {  // interleave seqs across files
          PairIntWritable key(g, s);
          Text value(std::to_string(s) + ":payload");
          ASSERT_TRUE(writer.Append(key, value).ok());
        }
      }
      ASSERT_TRUE(writer.Close().ok());
    }
  }

  api::JobConf job;
  job.SetJobName("secondary-sort");
  job.AddInputPath("/ss/in");
  job.SetOutputPath("/ss/out");
  job.SetInputFormatClass(api::SequenceFileInputFormat::kClassName);
  job.SetMapperClass(api::mapred::IdentityMapper::kClassName);
  job.SetReducerClass(ConcatInOrderReducer::kClassName);
  job.SetNumReduceTasks(3);
  job.SetOutputKeyClass(IntWritable::kTypeName);
  job.SetOutputValueClass(Text::kTypeName);
  job.SetMapOutputKeyClass(PairIntWritable::kTypeName);
  job.SetMapOutputValueClass(Text::kTypeName);
  // Sort by (group, seq); group by group only; partition by group so a
  // group's records meet at one reducer.
  job.SetSortComparatorClass(serialize::BytesComparator::kName);
  job.SetGroupingComparatorClass(serialize::PairRowComparator::kName);
  job.SetPartitionerClass("RowPartitioner");

  std::unique_ptr<api::Engine> engine;
  if (GetParam()) {
    engine = std::make_unique<engine::M3REngine>(
        fs, engine::M3REngineOptions{SmallCluster()});
  } else {
    engine = std::make_unique<hadoop::HadoopEngine>(
        fs, hadoop::HadoopEngineOptions{SmallCluster(), 0});
  }
  auto result = engine->Submit(job);
  ASSERT_TRUE(result.ok()) << result.status.ToString();

  // One reduce group per `group` value (6 groups), never out of order.
  EXPECT_EQ(result.counters.Get("SecondarySort", "OUT_OF_ORDER"), 0);
  EXPECT_EQ(result.counters.Get(api::counters::kTaskGroup,
                                api::counters::kReduceInputGroups),
            6);
  EXPECT_EQ(result.counters.Get(api::counters::kTaskGroup,
                                api::counters::kReduceOutputRecords),
            6);
}

INSTANTIATE_TEST_SUITE_P(Engines, SecondarySortTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "M3R" : "Hadoop";
                         });

/// The implicit "deserializing:<Type>" comparator sorts byte-order-
/// incompatible keys numerically.
TEST(DeserializingComparatorJobTest, VLongKeysSortNumerically) {
  auto cmp = serialize::ComparatorRegistry::Instance().Create(
      "deserializing:VLongWritable");
  serialize::VLongWritable small(3);
  serialize::VLongWritable large(1000);  // longer varint encoding
  std::string sb = serialize::SerializeToString(small);
  std::string lb = serialize::SerializeToString(large);
  // Byte order would compare lengths/content wrongly; numeric order holds.
  EXPECT_LT(cmp->Compare(sb, lb), 0);
  EXPECT_GT(cmp->Compare(lb, sb), 0);
  EXPECT_EQ(cmp->Compare(sb, sb), 0);
}

}  // namespace
}  // namespace m3r
