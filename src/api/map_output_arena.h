#ifndef M3R_API_MAP_OUTPUT_ARENA_H_
#define M3R_API_MAP_OUTPUT_ARENA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/job_conf.h"
#include "api/task_runner.h"
#include "common/sort.h"
#include "serialize/comparators.h"
#include "serialize/registry.h"

namespace m3r::api {

/// Buffered map output, laid out as Hadoop's kvbuffer: Add serializes each
/// collected pair into one byte arena (the HMR contract: the caller may
/// mutate its objects afterwards, so nothing is retained), and a flat index
/// records where each record's key and value bytes lie. Sort orders the
/// index by (partition, key) without moving a byte. Both engines' per-task
/// combine, Hadoop's spill and M3R's run sealing read the sorted records
/// back as spans of the arena.
class MapOutputArena {
 public:
  explicit MapOutputArena(int num_partitions);

  /// Serializes `key` then `value` under `partition`, which must be in
  /// [0, num_partitions).
  void Add(int partition, const Writable& key, const Writable& value);
  /// Copies an already serialized key and value under `partition`.
  void Add(int partition, std::string_view key, std::string_view value);

  size_t records() const { return index_.size(); }
  /// Serialized key and value bytes held (no framing).
  uint64_t bytes() const { return bytes_.size(); }

  /// Orders the records by partition, then stably by key (equal keys keep
  /// collect order, as Hadoop's sort does). A null `order` selects sortkit's
  /// raw-byte prefix path; otherwise every comparison calls it.
  void Sort(const sortkit::RawCompareFn* order);

  /// Records collected under `partition`.
  size_t PartitionRecords(int partition) const {
    return counts_[static_cast<size_t>(partition)];
  }
  /// Yields `partition`'s records in sorted order. Call after Sort; the
  /// cursor and the views it yields stay valid until the next Add or Clear.
  sortkit::RunCursor Partition(int partition) const;
  /// `partition`'s sorted records framed as one run, each as a varint key
  /// length, the key, a varint value length and the value: the format of
  /// Hadoop's spill segments and M3R's shuffle runs. Call after Sort.
  std::string PartitionRun(int partition) const;

  /// Drops every record, keeping the arena's and the index's capacity.
  void Clear();

 private:
  /// Indexes the record whose key starts at `key` and whose value starts
  /// at `value` and runs to the arena's end.
  void Index(int partition, uint64_t key, uint64_t value);

  struct Entry {
    uint64_t key;  // arena offset; the value follows the key
    uint32_t key_size;
    uint32_t value_size;
    uint32_t partition;
  };

  std::string bytes_;
  std::vector<Entry> index_;      // collect order
  std::vector<uint32_t> counts_;  // records per partition
  std::vector<uint32_t> order_;   // sorted: index_ positions
  std::vector<uint32_t> starts_;  // sorted: partition p at starts_[p]
};

/// The job's map-output key and value factories, resolved once per task.
struct MapOutputFactories {
  explicit MapOutputFactories(const JobConf& conf);
  serialize::WritableRegistry::Factory key;
  serialize::WritableRegistry::Factory value;
};

/// GroupSource over sorted serialized records: an arena partition, a merged
/// reduce segment, or one hash-combine entry's pending values. Consecutive records whose keys
/// compare equal under `grouping` form one group, whose key is the first
/// record's. Byte-equal keys never end a group and, under the raw byte
/// grouping, byte-unequal keys always do, so the common case skips the
/// virtual call. Each group's key is rebuilt once and each value on demand,
/// always into a fresh object, so a consumer may keep (or alias) what it
/// was given.
class SpanGroupSource : public GroupSource {
 public:
  /// The views `next` yields must stay valid for the source's lifetime,
  /// and `factories` must outlive it.
  SpanGroupSource(serialize::RawComparatorPtr grouping,
                  const MapOutputFactories& factories,
                  sortkit::RunCursor next);

  bool NextGroup() override;
  const WritablePtr& Key() const override { return key_; }
  ValuesIterator& Values() override { return iter_; }

 private:
  class Iter : public ValuesIterator {
   public:
    explicit Iter(SpanGroupSource* src) : src_(src) {}
    bool HasNext() override { return src_->pending_in_group_; }
    WritablePtr Next() override;

   private:
    SpanGroupSource* src_;
  };

  /// Loads the next record and decides whether it joins the current group.
  void Advance();

  serialize::RawComparatorPtr grouping_;
  bool grouping_is_bytes_;
  const MapOutputFactories& factories_;
  sortkit::RunCursor next_;

  bool has_pending_ = false;
  bool in_group_ = false;  // set by the first NextGroup
  bool pending_in_group_ = false;
  std::string_view pending_key_;
  std::string_view pending_value_;
  std::string_view group_key_;
  WritablePtr key_;
  Iter iter_{this};
};

}  // namespace m3r::api

#endif  // M3R_API_MAP_OUTPUT_ARENA_H_
