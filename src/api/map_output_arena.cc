#include "api/map_output_arena.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "serialize/io.h"

namespace m3r::api {

MapOutputArena::MapOutputArena(int num_partitions)
    : counts_(static_cast<size_t>(num_partitions), 0) {
  M3R_CHECK(num_partitions > 0) << "arena needs a partition";
}

void MapOutputArena::Add(int partition, const Writable& key,
                         const Writable& value) {
  const uint64_t key_start = bytes_.size();
  serialize::DataOutput out(&bytes_);
  key.Write(out);
  const uint64_t value_start = bytes_.size();
  value.Write(out);
  Index(partition, key_start, value_start);
}

void MapOutputArena::Add(int partition, std::string_view key,
                         std::string_view value) {
  const uint64_t key_start = bytes_.size();
  bytes_.append(key);
  bytes_.append(value);
  Index(partition, key_start, key_start + key.size());
}

void MapOutputArena::Index(int partition, uint64_t key, uint64_t value) {
  M3R_CHECK(partition >= 0 &&
            static_cast<size_t>(partition) < counts_.size())
      << "partition " << partition << " out of range";
  M3R_CHECK(index_.size() < std::numeric_limits<uint32_t>::max() &&
            bytes_.size() - key <= std::numeric_limits<uint32_t>::max())
      << "map output arena full";
  index_.push_back({key, static_cast<uint32_t>(value - key),
                    static_cast<uint32_t>(bytes_.size() - value),
                    static_cast<uint32_t>(partition)});
  ++counts_[static_cast<size_t>(partition)];
}

void MapOutputArena::Sort(const sortkit::RawCompareFn* order) {
  // Partitions are small dense ints: a stable counting sort groups the
  // index by partition, then each partition's keys go through the shared
  // prefix kernel.
  const size_t parts = counts_.size();
  starts_.assign(parts + 1, 0);
  for (size_t p = 0; p < parts; ++p) starts_[p + 1] = starts_[p] + counts_[p];
  order_.resize(index_.size());
  {
    std::vector<uint32_t> cursor(starts_.begin(), starts_.end() - 1);
    for (uint32_t i = 0; i < index_.size(); ++i) {
      order_[cursor[index_[i].partition]++] = i;
    }
  }
  sortkit::SortOptions options;  // per-task sorts stay on the task thread
  options.comparator = order;
  std::vector<std::string_view> keys;
  std::vector<uint32_t> sorted;
  for (size_t p = 0; p < parts; ++p) {
    const size_t lo = starts_[p];
    const size_t n = counts_[p];
    if (n < 2) continue;
    keys.clear();
    for (size_t k = lo; k < lo + n; ++k) {
      const Entry& e = index_[order_[k]];
      keys.emplace_back(bytes_.data() + e.key, e.key_size);
    }
    std::vector<uint32_t> perm = sortkit::StableSortPermutation(keys, options);
    sorted.resize(n);
    for (size_t j = 0; j < n; ++j) sorted[j] = order_[lo + perm[j]];
    std::memcpy(order_.data() + lo, sorted.data(), n * sizeof(uint32_t));
  }
}

sortkit::RunCursor MapOutputArena::Partition(int partition) const {
  M3R_CHECK(order_.size() == index_.size()) << "arena not sorted";
  const size_t p = static_cast<size_t>(partition);
  return [this, next = static_cast<size_t>(starts_[p]),
          end = static_cast<size_t>(starts_[p + 1])](
             std::string_view* key, std::string_view* value) mutable {
    if (next == end) return false;
    const Entry& e = index_[order_[next++]];
    *key = std::string_view(bytes_.data() + e.key, e.key_size);
    *value = std::string_view(bytes_.data() + e.key + e.key_size,
                              e.value_size);
    return true;
  };
}

std::string MapOutputArena::PartitionRun(int partition) const {
  size_t size = 0;
  std::string_view key, value;
  for (sortkit::RunCursor next = Partition(partition); next(&key, &value);) {
    size += serialize::VarU64Size(key.size()) + key.size() +
            serialize::VarU64Size(value.size()) + value.size();
  }
  std::string run;
  run.reserve(size);
  serialize::DataOutput out(&run);
  for (sortkit::RunCursor next = Partition(partition); next(&key, &value);) {
    out.WriteString(key);
    out.WriteString(value);
  }
  return run;
}

void MapOutputArena::Clear() {
  bytes_.clear();
  index_.clear();
  order_.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
}

MapOutputFactories::MapOutputFactories(const JobConf& conf) {
  const std::string key_type = conf.MapOutputKeyClass();
  const std::string value_type = conf.MapOutputValueClass();
  M3R_CHECK(!key_type.empty() && !value_type.empty())
      << "job must configure (map) output key/value classes";
  key = serialize::WritableRegistry::Instance().Resolve(key_type);
  value = serialize::WritableRegistry::Instance().Resolve(value_type);
}

SpanGroupSource::SpanGroupSource(serialize::RawComparatorPtr grouping,
                                 const MapOutputFactories& factories,
                                 sortkit::RunCursor next)
    : grouping_(std::move(grouping)),
      grouping_is_bytes_(std::string_view(grouping_->Name()) ==
                         serialize::BytesComparator::kName),
      factories_(factories),
      next_(std::move(next)) {
  Advance();
}

void SpanGroupSource::Advance() {
  has_pending_ = next_(&pending_key_, &pending_value_);
  if (!has_pending_ || !in_group_) {
    pending_in_group_ = false;
    return;
  }
  const std::string_view a = group_key_;
  const std::string_view b = pending_key_;
  const bool byte_equal =
      a.size() == b.size() &&
      (a.data() == b.data() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  pending_in_group_ = byte_equal || (!grouping_is_bytes_ &&
                                     grouping_->Compare(a, b) == 0);
}

bool SpanGroupSource::NextGroup() {
  // Drain any unconsumed values of the current group.
  while (pending_in_group_) Advance();
  if (!has_pending_) return false;
  group_key_ = pending_key_;
  in_group_ = true;
  pending_in_group_ = true;
  key_ = factories_.key();
  serialize::DeserializeFromString(group_key_, key_.get());
  return true;
}

WritablePtr SpanGroupSource::Iter::Next() {
  M3R_CHECK(src_->pending_in_group_) << "values iterator exhausted";
  WritablePtr value = src_->factories_.value();
  serialize::DeserializeFromString(src_->pending_value_, value.get());
  src_->Advance();
  return value;
}

}  // namespace m3r::api
