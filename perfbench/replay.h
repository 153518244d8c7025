// Replays of a workload's captured map output through the public entry
// points of the layers the engines build on: sortkit's sort and k-way
// merge, and the x10rt Channel that carries the M3R remote shuffle.
#ifndef M3R_PERFBENCH_REPLAY_H_
#define M3R_PERFBENCH_REPLAY_H_

#include <vector>

#include "api/job_conf.h"
#include "trace.h"

namespace m3r::perfbench {

struct ReplayCosts {
  double sort_ns_per_rec = 0;
  double merge_ns_per_rec = 0;
  double encode_ns_per_obj = 0;
  double decode_ns_per_obj = 0;
};

/// Times, on `pairs` (map output of the job `conf`), with each figure the
/// median of three passes:
///  - sortkit::StableSortPermutation over the serialized keys with the
///    job's sort comparator, serial as a spill sort runs;
///  - sortkit::RunMerger over the same keys cut into sorted runs;
///  - x10rt::Channel Send+Finish and Decode, one channel per destination
///    place (the job's partitioner, then the stable partition->place map),
///    with the engine's default full de-duplication. Decode includes the
///    type-factory lookup of every decoded object.
ReplayCosts ReplayLayers(const std::vector<CapturedPair>& pairs,
                         const api::JobConf& conf, int num_places);

}  // namespace m3r::perfbench

#endif  // M3R_PERFBENCH_REPLAY_H_
