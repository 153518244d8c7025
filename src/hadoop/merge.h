#ifndef M3R_HADOOP_MERGE_H_
#define M3R_HADOOP_MERGE_H_

#include <string>
#include <string_view>
#include <vector>

#include "hadoop/spill.h"
#include "serialize/comparators.h"

namespace m3r::hadoop {

/// K-way merges sorted segments into one sorted segment (the reduce-side
/// merge; also used map-side to collapse multiple spills). Stable across
/// inputs: ties preserve segment order, matching Hadoop's merge.
std::string MergeSegments(const std::vector<const std::string*>& segments,
                          const serialize::RawComparatorPtr& cmp,
                          uint64_t* merged_records);

}  // namespace m3r::hadoop

#endif  // M3R_HADOOP_MERGE_H_
