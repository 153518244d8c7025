#include "replay.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "api/task_runner.h"
#include "common/sort.h"
#include "m3r/shuffle.h"
#include "serialize/comparators.h"
#include "x10rt/channel.h"

namespace m3r::perfbench {
namespace {

constexpr int kPasses = 3;
/// Records per sorted run in the merge replay: the order of a pipelined
/// shuffle lane's sealed run (256 KiB of small WordCount pairs).
constexpr size_t kRunRecords = 4096;

}  // namespace

ReplayCosts ReplayLayers(const std::vector<CapturedPair>& pairs,
                         const api::JobConf& conf, int num_places) {
  ReplayCosts out;
  if (pairs.empty()) return out;

  std::vector<std::string> key_bytes;
  key_bytes.reserve(pairs.size());
  for (const auto& p : pairs) {
    key_bytes.push_back(serialize::SerializeToString(*p.key));
  }
  std::vector<std::string_view> keys(key_bytes.begin(), key_bytes.end());
  serialize::RawComparatorPtr cmp = api::SortComparator(conf);
  sortkit::RawCompareFn custom;
  sortkit::SortOptions sort_opts;
  if (std::string_view(cmp->Name()) != serialize::BytesComparator::kName) {
    custom = [&cmp](std::string_view a, std::string_view b) {
      return cmp->Compare(a, b);
    };
    sort_opts.comparator = &custom;
  }
  const double n = static_cast<double>(keys.size());

  std::vector<double> sort_ns, merge_ns, encode_ns, decode_ns;
  // Runs for the merge replay, each sorted once up front.
  std::vector<std::vector<std::string_view>> runs;
  for (size_t lo = 0; lo < keys.size(); lo += kRunRecords) {
    std::vector<std::string_view> run(
        keys.begin() + lo,
        keys.begin() + std::min(keys.size(), lo + kRunRecords));
    std::vector<uint32_t> perm = sortkit::StableSortPermutation(run, sort_opts);
    std::vector<std::string_view> sorted;
    sorted.reserve(run.size());
    for (uint32_t i : perm) sorted.push_back(run[i]);
    runs.push_back(std::move(sorted));
  }

  // Destination place of every pair, as the M3R shuffle routes it.
  std::shared_ptr<api::Partitioner> partitioner = api::MakePartitioner(conf);
  const int reducers = std::max(1, conf.NumReduceTasks());
  std::vector<std::vector<size_t>> by_place(static_cast<size_t>(num_places));
  for (size_t i = 0; i < pairs.size(); ++i) {
    const int part =
        partitioner->GetPartition(*pairs[i].key, *pairs[i].value, reducers);
    by_place[static_cast<size_t>(
                 engine::StablePlaceOfPartition(part, num_places))]
        .push_back(i);
  }

  for (int pass = 0; pass < kPasses; ++pass) {
    int64_t t0 = NowNs();
    std::vector<uint32_t> perm = sortkit::StableSortPermutation(keys, sort_opts);
    sort_ns.push_back((NowNs() - t0) / n);

    sortkit::RunMerger merger(sort_opts.comparator);
    for (size_t r = 0; r < runs.size(); ++r) {
      merger.AddRun(
          [run = &runs[r], pos = size_t{0}](std::string_view* k,
                                            std::string_view* v) mutable {
            if (pos == run->size()) return false;
            *k = (*run)[pos++];
            *v = std::string_view();
            return true;
          },
          r);
    }
    std::string_view k, v;
    t0 = NowNs();
    while (merger.Next(&k, &v)) {
    }
    merge_ns.push_back((NowNs() - t0) / n);

    int64_t enc = 0, dec = 0;
    uint64_t objects = 0;
    for (const auto& idx : by_place) {
      if (idx.empty()) continue;
      t0 = NowNs();
      x10rt::Channel channel(serialize::DedupMode::kFull);
      for (size_t i : idx) {
        channel.Send(pairs[i].key);
        channel.Send(pairs[i].value);
      }
      x10rt::Channel::Wire wire = channel.Finish();
      enc += NowNs() - t0;
      objects += 2 * idx.size();
      t0 = NowNs();
      std::vector<serialize::WritablePtr> decoded =
          x10rt::Channel::Decode(wire.bytes);
      dec += NowNs() - t0;
    }
    encode_ns.push_back(static_cast<double>(enc) / objects);
    decode_ns.push_back(static_cast<double>(dec) / objects);
  }
  out.sort_ns_per_rec = Median(sort_ns);
  out.merge_ns_per_rec = Median(merge_ns);
  out.encode_ns_per_obj = Median(encode_ns);
  out.decode_ns_per_obj = Median(decode_ns);
  return out;
}

}  // namespace m3r::perfbench
