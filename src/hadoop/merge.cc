#include "hadoop/merge.h"

#include "api/task_runner.h"
#include "common/sort.h"

namespace m3r::hadoop {

std::string MergeSegments(const std::vector<const std::string*>& segments,
                          const serialize::RawComparatorPtr& cmp,
                          uint64_t* merged_records) {
  std::vector<SegmentReader> readers;
  readers.reserve(segments.size());
  for (const std::string* s : segments) readers.emplace_back(s);

  // The merge heap itself lives in sortkit (shared with the pipelined
  // shuffle); segment index doubles as the stability ordinal, so equal keys
  // drain in segment order exactly as the old in-place heap did.
  sortkit::RawCompareFn custom;
  sortkit::RunMerger merger(api::SortkitOrder(cmp, &custom));
  for (size_t i = 0; i < readers.size(); ++i) {
    SegmentReader* reader = &readers[i];
    merger.AddRun(
        [reader](std::string_view* k, std::string_view* v) {
          return reader->Next(k, v);
        },
        i);
  }

  SegmentWriter out;
  std::string_view key, value;
  while (merger.Next(&key, &value)) out.Add(key, value);
  if (merged_records != nullptr) *merged_records = out.records();
  return out.Take();
}

}  // namespace m3r::hadoop
