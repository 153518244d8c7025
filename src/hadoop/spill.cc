#include "hadoop/spill.h"

#include <algorithm>

#include "api/counters.h"
#include "common/stopwatch.h"

namespace m3r::hadoop {

namespace {

/// Collector that re-serializes combiner output into a segment.
class SegmentCollector : public api::OutputCollector {
 public:
  explicit SegmentCollector(SegmentWriter* segment) : segment_(segment) {}
  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override {
    segment_->Add(serialize::SerializeToString(*key),
                  serialize::SerializeToString(*value));
  }

 private:
  SegmentWriter* segment_;
};

}  // namespace

MapOutputBuffer::MapOutputBuffer(const api::JobConf& conf, int num_partitions,
                                 api::Reporter* reporter,
                                 const IntegrityContext* integrity)
    : conf_(conf),
      num_partitions_(num_partitions),
      reporter_(reporter),
      integrity_(integrity),
      partitioner_(api::MakePartitioner(conf)),
      sort_cmp_(api::SortComparator(conf)),
      buffer_limit_bytes_(static_cast<uint64_t>(
          conf.GetInt(kSortBufferBytesKey, kDefaultSortBufferBytes))),
      arena_(std::max(num_partitions, 1)) {
  if (conf.HasCombiner()) factories_.emplace(conf);
}

void MapOutputBuffer::Collect(const api::WritablePtr& key,
                              const api::WritablePtr& value) {
  // The HMR contract: output is serialized immediately, so the caller is
  // free to mutate and reuse the objects afterwards.
  const int partition =
      num_partitions_ > 0
          ? partitioner_->GetPartition(*key, *value, num_partitions_)
          : 0;
  M3R_CHECK(partition >= 0 &&
            (num_partitions_ == 0 || partition < num_partitions_))
      << "partitioner returned " << partition;
  const uint64_t before = arena_.bytes();
  arena_.Add(partition, *key, *value);
  total_output_bytes_ += arena_.bytes() - before;
  ++total_records_;
  if (arena_.bytes() >= buffer_limit_bytes_) SortAndSpill();
}

void MapOutputBuffer::Flush() {
  if (arena_.records() > 0 || spills_.empty()) SortAndSpill();
  api::ReportTally(*reporter_, api::counters::kTaskGroup,
                   api::counters::kMapOutputRecords,
                   static_cast<int64_t>(total_records_));
}

void MapOutputBuffer::SortAndSpill() {
  // Hadoop's in-buffer (partition, key) sort before spilling.
  CpuStopwatch sort_sw;
  sortkit::RawCompareFn custom;
  arena_.Sort(api::SortkitOrder(sort_cmp_, &custom));
  sort_seconds_ += sort_sw.ElapsedSeconds();

  const int parts = std::max(num_partitions_, 1);
  Spill spill;
  spill.partition_segments.resize(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    const size_t records = arena_.PartitionRecords(p);
    if (records == 0) continue;

    std::string& bytes = spill.partition_segments[static_cast<size_t>(p)];
    if (factories_) {
      reporter_->IncrCounter(api::counters::kTaskGroup,
                             api::counters::kCombineInputRecords,
                             static_cast<int64_t>(records));
      api::SpanGroupSource groups(sort_cmp_, *factories_, arena_.Partition(p));
      SegmentWriter segment;
      SegmentCollector collector(&segment);
      M3R_CHECK_OK(api::RunCombine(conf_, groups, collector, *reporter_));
      reporter_->IncrCounter(api::counters::kTaskGroup,
                             api::counters::kCombineOutputRecords,
                             static_cast<int64_t>(segment.records()));
      spill.records += segment.records();
      bytes = segment.Take();
    } else {
      spill.records += records;
      bytes = arena_.PartitionRun(p);
    }
    spill.bytes += bytes.size();
  }

  spilled_records_ += spill.records;
  if (integrity_ != nullptr && integrity_->enabled()) {
    spill.segment_crcs.reserve(spill.partition_segments.size());
    for (const std::string& segment : spill.partition_segments) {
      spill.segment_crcs.push_back(StampCrc(integrity_, segment));
    }
  }
  reporter_->IncrCounter(api::counters::kTaskGroup,
                         api::counters::kSpilledRecords,
                         static_cast<int64_t>(spill.records));
  spills_.push_back(std::move(spill));
  arena_.Clear();
}

}  // namespace m3r::hadoop
