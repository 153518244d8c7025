#include "hadoop/reduce_task.h"

#include <map>
#include <memory>

#include "api/class_registry.h"
#include "api/map_output_arena.h"
#include "api/multiple_io.h"
#include "api/output_format.h"
#include "api/task_runner.h"
#include "common/stopwatch.h"
#include "hadoop/merge.h"

namespace m3r::hadoop {

namespace {

class WriterCollector : public api::OutputCollector {
 public:
  explicit WriterCollector(api::RecordWriter* writer) : writer_(writer) {}
  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override {
    M3R_CHECK_OK(writer_->Write(*key, *value));
    ++records_;
  }
  /// REDUCE_OUTPUT_RECORDS so far, reported once when the reduce is done.
  int64_t records() const { return records_; }

 private:
  api::RecordWriter* writer_;
  int64_t records_ = 0;
};

class HadoopReduceNamedSink : public api::NamedOutputSink {
 public:
  HadoopReduceNamedSink(const api::JobConf& conf, dfs::FileSystem& fs,
                        int partition, int node)
      : conf_(conf), fs_(fs), partition_(partition), node_(node) {}

  ~HadoopReduceNamedSink() override {
    for (auto& [name, writer] : writers_) M3R_CHECK_OK(writer->Close());
  }

  Status WriteNamed(const std::string& name, const api::WritablePtr& key,
                    const api::WritablePtr& value) override {
    auto it = writers_.find(name);
    if (it == writers_.end()) {
      std::string format_name =
          api::MultipleOutputs::OutputFormatFor(conf_, name);
      if (format_name.empty()) {
        return Status::InvalidArgument("unknown named output: " + name);
      }
      auto format = api::ObjectRegistry<api::OutputFormat>::Instance().Create(
          format_name);
      std::string path = conf_.OutputPath() + "/" + name + "-" +
                         api::file_output::PartFileName(partition_);
      M3R_ASSIGN_OR_RETURN(std::unique_ptr<api::RecordWriter> writer,
                           format->GetRecordWriter(conf_, fs_, path, node_));
      it = writers_.emplace(name, std::move(writer)).first;
    }
    return it->second->Write(*key, *value);
  }

  uint64_t BytesWritten() const {
    uint64_t total = 0;
    for (const auto& [name, writer] : writers_) {
      total += writer->BytesWritten();
    }
    return total;
  }

 private:
  const api::JobConf& conf_;
  dfs::FileSystem& fs_;
  int partition_;
  int node_;
  std::map<std::string, std::unique_ptr<api::RecordWriter>> writers_;
};

}  // namespace

ReduceTaskResult RunHadoopReduceTask(
    const api::JobConf& conf, dfs::FileSystem& fs, int partition,
    const std::vector<const std::string*>& segments, int node, int attempt,
    FaultInjector* fault, const std::vector<uint32_t>& segment_crcs,
    const IntegrityContext* integrity) {
  ReduceTaskResult result;
  api::CountersReporter reporter(&result.counters);

  for (const std::string* s : segments) result.shuffle_bytes += s->size();
  result.counters.Increment(api::counters::kTaskGroup,
                            api::counters::kReduceShuffleBytes,
                            static_cast<int64_t>(result.shuffle_bytes));

  CpuStopwatch cpu;
  // The shuffle fetch is a checksummed hop: every map's segment is
  // verified against its map-side stamp before any of its bytes reach the
  // merge's decoder.
  std::vector<const std::string*> fetched = segments;
  std::vector<std::string> scratch(segments.size());
  if (integrity != nullptr) {
    for (size_t i = 0; i < segments.size(); ++i) {
      const std::string key = "m" + std::to_string(i) + "/p" +
                              std::to_string(partition) + "/a" +
                              std::to_string(attempt);
      uint32_t crc = i < segment_crcs.size() ? segment_crcs[i] : 0;
      result.status = ReceiveChecked(integrity, kCorruptSpill, key, crc,
                                     *segments[i], &scratch[i], &fetched[i]);
      if (!result.status.ok()) return result;
    }
  }

  // Out-of-core merge of all fetched segments into one sorted stream. The
  // merged bytes are written to and re-read from local disk in Hadoop;
  // the engine charges that via merge_bytes.
  uint64_t merged_records = 0;
  std::string merged =
      MergeSegments(fetched, api::SortComparator(conf), &merged_records);
  result.merge_bytes = merged.size();
  result.counters.Increment(api::counters::kTaskGroup,
                            api::counters::kReduceInputRecords,
                            static_cast<int64_t>(merged_records));

  auto output_format = api::MakeOutputFormat(conf);
  std::string temp_path =
      api::file_output::TempPath(conf, partition, attempt);
  auto writer_or = output_format->GetRecordWriter(conf, fs, temp_path, node);
  if (!writer_or.ok()) {
    result.status = writer_or.status();
    return result;
  }
  std::unique_ptr<api::RecordWriter> writer = writer_or.take();

  HadoopReduceNamedSink named_sink(conf, fs, partition, node);
  api::ScopedNamedOutputSink scoped_sink(&named_sink);

  const api::MapOutputFactories factories(conf);
  SegmentReader reader(&merged);
  api::SpanGroupSource groups(
      api::GroupingComparator(conf), factories,
      [&reader](std::string_view* key, std::string_view* value) {
        return reader.Next(key, value);
      });
  WriterCollector collector(writer.get());
  bool immutable_unused = false;
  result.status = api::RunReduceTask(conf, groups, collector, reporter,
                                     &immutable_unused);
  if (!result.status.ok()) return result;
  api::ReportTally(reporter, api::counters::kTaskGroup,
                   api::counters::kReduceOutputRecords, collector.records());
  result.status = writer->Close();
  if (!result.status.ok()) return result;
  result.cpu_seconds = cpu.ElapsedSeconds();
  result.output_bytes = writer->BytesWritten() + named_sink.BytesWritten();

  // Injected death between the reducer finishing and the task committing —
  // the attempt directory stays behind for the engine to abort.
  if (fault != nullptr) {
    result.status = fault->Check(
        "hadoop.reduce",
        std::to_string(partition) + "/" + std::to_string(attempt));
    if (!result.status.ok()) return result;
  }

  api::FileOutputCommitter committer;
  result.status = committer.CommitTask(conf, fs, partition, attempt);
  return result;
}

}  // namespace m3r::hadoop
