#include "hadoop/merge.h"

#include "common/sort.h"
#include "serialize/registry.h"

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
  const bool bytes_order =
      std::string_view(cmp->Name()) == serialize::BytesComparator::kName;
  sortkit::RawCompareFn custom = [&cmp](std::string_view a,
                                        std::string_view b) {
    return cmp->Compare(a, b);
  };
  sortkit::RunMerger merger(bytes_order ? nullptr : &custom);
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

SegmentGroupSource::SegmentGroupSource(const api::JobConf& conf,
                                       const std::string* bytes)
    : reader_(bytes),
      grouping_(api::GroupingComparator(conf)) {
  const std::string key_type = conf.MapOutputKeyClass();
  const std::string value_type = conf.MapOutputValueClass();
  M3R_CHECK(!key_type.empty() && !value_type.empty())
      << "job must configure (map) output key/value classes for reduce";
  make_key_ = serialize::WritableRegistry::Instance().Resolve(key_type);
  make_value_ = serialize::WritableRegistry::Instance().Resolve(value_type);
  has_pending_ = Advance();
}

bool SegmentGroupSource::Advance() {
  return reader_.Next(&pending_key_, &pending_value_);
}

bool SegmentGroupSource::PendingInGroup() const {
  return has_pending_ && in_group_ &&
         grouping_->Compare(group_key_bytes_, pending_key_) == 0;
}

bool SegmentGroupSource::NextGroup() {
  // Drain any unconsumed values of the current group.
  while (PendingInGroup()) has_pending_ = Advance();
  if (!has_pending_) {
    in_group_ = false;
    return false;
  }
  group_key_bytes_.assign(pending_key_.data(), pending_key_.size());
  group_key_ = make_key_();
  serialize::DeserializeFromString(group_key_bytes_, group_key_.get());
  in_group_ = true;
  return true;
}

const api::WritablePtr& SegmentGroupSource::Key() const { return group_key_; }

api::ValuesIterator& SegmentGroupSource::Values() { return iter_; }

bool SegmentGroupSource::Iter::HasNext() { return src_->PendingInGroup(); }

api::WritablePtr SegmentGroupSource::Iter::Next() {
  M3R_CHECK(HasNext()) << "values iterator exhausted";
  auto value = src_->make_value_();
  serialize::DeserializeFromString(src_->pending_value_, value.get());
  src_->has_pending_ = src_->Advance();
  return value;
}

}  // namespace m3r::hadoop
