// google-benchmark micro-benchmarks for the substrates: serialization,
// the de-duplicating object stream, the distributed KV store's lock
// protocol, and place-group dispatch. These quantify the building blocks
// the engine-level numbers rest on.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "kvstore/kv_store.h"
#include "serialize/basic_writables.h"
#include "serialize/dedup.h"
#include "x10rt/place_group.h"

namespace m3r {
namespace {

using serialize::BytesWritable;
using serialize::DedupMode;
using serialize::DedupOutputStream;
using serialize::IntWritable;
using serialize::Text;

void BM_SerializeTextPairs(benchmark::State& state) {
  Text key("some-representative-word");
  IntWritable value(1);
  for (auto _ : state) {
    serialize::DataOutput out;
    key.Write(out);
    value.Write(out);
    benchmark::DoNotOptimize(out.buffer().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeTextPairs);

void BM_CloneRoundTrip(benchmark::State& state) {
  BytesWritable value(std::string(static_cast<size_t>(state.range(0)), 'v'));
  for (auto _ : state) {
    auto clone = value.Clone();
    benchmark::DoNotOptimize(clone.get());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CloneRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DedupStreamRepeats(benchmark::State& state) {
  DedupMode mode = static_cast<DedupMode>(state.range(0));
  const bool distinct = state.range(1) != 0;
  // Repeats: one 1 KiB payload written 64 times, the broadcast shape.
  // Distinct: 2048 small objects, no two alike (word keys and count
  // values), the WordCount shape: the identity table never hits, so only
  // its insert cost and the type lookups remain.
  std::vector<serialize::WritablePtr> objects;
  if (distinct) {
    for (int i = 0; i < 1024; ++i) {
      objects.push_back(std::make_shared<Text>("word" + std::to_string(i)));
      objects.push_back(std::make_shared<IntWritable>(1));
    }
  } else {
    objects.assign(64, std::make_shared<BytesWritable>(std::string(1024, 'p')));
  }
  for (auto _ : state) {
    DedupOutputStream out(mode);
    for (const auto& obj : objects) out.WriteObject(obj);
    benchmark::DoNotOptimize(out.buffer().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(objects.size()));
  state.SetLabel(std::string(mode == DedupMode::kOff
                                 ? "off"
                                 : (mode == DedupMode::kFull ? "full"
                                                             : "consecutive")) +
                 (distinct ? " distinct" : " repeats"));
}
BENCHMARK(BM_DedupStreamRepeats)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({1, 1});

void BM_KVStoreWriteReadBlock(benchmark::State& state) {
  kvstore::KVStore store(8);
  auto key = std::make_shared<IntWritable>(1);
  auto value = std::make_shared<Text>("value");
  int i = 0;
  for (auto _ : state) {
    std::string path = "/bench/f" + std::to_string(i++ % 64);
    kvstore::BlockInfo info{"0", 0, 0};
    auto writer = store.CreateWriter(path, info);
    writer->get()->Append(key, value);
    benchmark::DoNotOptimize(writer->get()->Close().ok());
    auto seq = store.CreateReader(path, info);
    benchmark::DoNotOptimize(seq->get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KVStoreWriteReadBlock);

void BM_KVStoreContendedMetadata(benchmark::State& state) {
  static kvstore::KVStore* store = new kvstore::KVStore(8);
  for (auto _ : state) {
    std::string path = "/hot/dir/child" +
                       std::to_string(state.thread_index() % 4);
    benchmark::DoNotOptimize(store->Mkdirs(path).ok());
    benchmark::DoNotOptimize(store->GetInfo(path).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KVStoreContendedMetadata)->Threads(1)->Threads(4)->Threads(8);

void BM_PlaceGroupDispatch(benchmark::State& state) {
  x10rt::PlaceGroup places(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    std::atomic<int> count{0};
    places.FinishForAll([&](int) { ++count; });
    benchmark::DoNotOptimize(count.load());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlaceGroupDispatch)->Arg(4)->Arg(20)->Arg(64);

}  // namespace
}  // namespace m3r

BENCHMARK_MAIN();
