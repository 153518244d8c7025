#ifndef M3R_HADOOP_MERGE_H_
#define M3R_HADOOP_MERGE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/job_conf.h"
#include "api/task_runner.h"
#include "hadoop/spill.h"
#include "serialize/comparators.h"
#include "serialize/registry.h"

namespace m3r::hadoop {

/// K-way merges sorted segments into one sorted segment (the reduce-side
/// merge; also used map-side to collapse multiple spills). Stable across
/// inputs: ties preserve segment order, matching Hadoop's merge.
std::string MergeSegments(const std::vector<const std::string*>& segments,
                          const serialize::RawComparatorPtr& cmp,
                          uint64_t* merged_records);

/// Streams reduce groups out of one merged, sorted segment, deserializing
/// keys and values on demand (Hadoop's out-of-core reduce iterator, minus
/// the disk: bytes are in memory, disk cost is charged by the engine).
class SegmentGroupSource : public api::GroupSource {
 public:
  SegmentGroupSource(const api::JobConf& conf, const std::string* bytes);

  bool NextGroup() override;
  const api::WritablePtr& Key() const override;
  api::ValuesIterator& Values() override;

 private:
  class Iter : public api::ValuesIterator {
   public:
    explicit Iter(SegmentGroupSource* src) : src_(src) {}
    bool HasNext() override;
    api::WritablePtr Next() override;

   private:
    SegmentGroupSource* src_;
  };

  /// Loads the next record into pending_*; false at end of segment.
  bool Advance();
  /// True if the pending record belongs to the current group.
  bool PendingInGroup() const;

  SegmentReader reader_;
  serialize::RawComparatorPtr grouping_;
  /// Map output key/value factories, resolved once per source.
  serialize::WritableRegistry::Factory make_key_;
  serialize::WritableRegistry::Factory make_value_;

  bool has_pending_ = false;
  std::string_view pending_key_;
  std::string_view pending_value_;
  std::string group_key_bytes_;
  bool in_group_ = false;
  api::WritablePtr group_key_;
  Iter iter_{this};
};

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_MERGE_H_
