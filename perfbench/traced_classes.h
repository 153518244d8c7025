// Wrappers the traced run puts around the boundaries the engines already
// accept: the job's Mapper/Reducer/Combiner classes (swapped in by name in
// the JobConf) with their OutputCollector and ValuesIterator, and the
// dfs::FileSystem handed to the engine. Nothing inside src/ is changed.
#ifndef M3R_PERFBENCH_TRACED_CLASSES_H_
#define M3R_PERFBENCH_TRACED_CLASSES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "api/job_conf.h"
#include "api/mr_api.h"
#include "dfs/file_system.h"
#include "trace.h"

namespace m3r::perfbench {

/// Registers a traced twin of every user class the benchmark's jobs use.
/// Idempotent.
void RegisterTracedClasses();

/// Points the job's mapper(s), combiner and reducer at their traced twins.
/// Aborts if the job names a class without a twin, so a traced run never
/// silently measures less than it claims.
void UseTracedClasses(api::JobConf* conf);

/// Layer totals of the dfs::FileSystem decorator.
struct DfsTotals {
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<int64_t> read_ns{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<int64_t> write_ns{0};
  std::atomic<uint64_t> meta_calls{0};
  std::atomic<int64_t> meta_ns{0};
  void Reset();
};

/// Forwards every FileSystem call to `base` and times it: Open counts as a
/// read of the returned bytes; Create and the writer's Append/Close as
/// writes; the remaining calls (BlockSize aside) as metadata.
class TracingFileSystem : public dfs::FileSystem {
 public:
  TracingFileSystem(std::shared_ptr<dfs::FileSystem> base, DfsTotals* totals)
      : base_(std::move(base)), totals_(totals) {}

  Result<std::unique_ptr<dfs::FileWriter>> Create(
      const std::string& path, const dfs::CreateOptions& opts) override;
  Result<std::shared_ptr<const std::string>> Open(
      const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<dfs::FileStatus> GetFileStatus(const std::string& path) override;
  Result<std::vector<dfs::FileStatus>> ListStatus(
      const std::string& dir) override;
  Status Mkdirs(const std::string& path) override;
  Status Delete(const std::string& path, bool recursive) override;
  Status Rename(const std::string& src, const std::string& dst) override;
  Result<std::vector<dfs::BlockLocation>> GetBlockLocations(
      const std::string& path) override;
  uint64_t BlockSize() const override { return base_->BlockSize(); }

 private:
  template <typename F>
  auto Meta(F&& f) {
    const int64_t t0 = NowNs();
    auto r = f();
    totals_->meta_ns += NowNs() - t0;
    ++totals_->meta_calls;
    return r;
  }

  std::shared_ptr<dfs::FileSystem> base_;
  DfsTotals* totals_;
};

namespace internal {

/// Times OutputCollector::Collect into the owning task span, keeping the
/// first Tracer::kChildSpansPerTask calls as child spans of their own.
class TimedCollector : public api::OutputCollector {
 public:
  TimedCollector(api::OutputCollector& inner, const Span& task, SpanKind kind,
                 int* sampled, bool capture, bool clone_on_capture)
      : inner_(inner),
        task_(task),
        kind_(kind),
        sampled_(sampled),
        capture_(capture),
        clone_(clone_on_capture) {}

  void Collect(const api::WritablePtr& key,
               const api::WritablePtr& value) override;

  int64_t ns = 0;
  uint64_t calls = 0;

 private:
  api::OutputCollector& inner_;
  const Span& task_;
  SpanKind kind_;
  int* sampled_;
  bool capture_;
  bool clone_;
};

class TimedValues : public api::ValuesIterator {
 public:
  TimedValues(api::ValuesIterator& inner, const Span& task, int* sampled)
      : inner_(inner), task_(task), sampled_(sampled) {}
  bool HasNext() override;
  api::WritablePtr Next() override;

  int64_t ns = 0;
  uint64_t calls = 0;

 private:
  void Sample(int64_t t0, int64_t t1);
  api::ValuesIterator& inner_;
  const Span& task_;
  int* sampled_;
};

/// Opens a task span on this thread (Configure) and records it (Close).
void OpenTask(Span* span, SpanKind kind);
void CloseTask(Span* span);

struct NoExtensions {};

/// Every extension interface of api/extensions.h that a user class can
/// carry is re-exposed by its twin, so the engines see the same promises.
/// Split-side interfaces cannot appear on mappers or reducers; the
/// static_asserts keep that true.
template <class Inner>
using ExtensionsOf =
    std::conditional_t<std::is_base_of_v<api::ImmutableOutput, Inner>,
                       api::ImmutableOutput, NoExtensions>;

template <class Inner>
constexpr bool kOnlyImmutableExtension =
    !std::is_base_of_v<api::NamedSplit, Inner> &&
    !std::is_base_of_v<api::DelegatingSplit, Inner> &&
    !std::is_base_of_v<api::PlacedSplit, Inner>;

}  // namespace internal

template <class Inner>
class TracedMapper : public api::mapred::Mapper,
                     public internal::ExtensionsOf<Inner> {
  static_assert(internal::kOnlyImmutableExtension<Inner>);

 public:
  void Configure(const api::JobConf& conf) override {
    internal::OpenTask(&span_, SpanKind::kMapTask);
    inner_.Configure(conf);
  }
  void Map(const api::WritablePtr& key, const api::WritablePtr& value,
           api::OutputCollector& output, api::Reporter& reporter) override {
    internal::TimedCollector timed(
        output, span_, SpanKind::kCollect, &sampled_,
        Tracer::Instance().capturing(),
        !std::is_base_of_v<api::ImmutableOutput, Inner>);
    const int64_t t0 = NowNs();
    inner_.Map(key, value, timed, reporter);
    span_.user_ns += NowNs() - t0 - timed.ns;
    span_.child_ns += timed.ns;
    span_.child_calls += timed.calls;
  }
  void Close() override {
    inner_.Close();
    internal::CloseTask(&span_);
  }

 private:
  Inner inner_;
  Span span_;
  int sampled_ = 0;
};

template <class Inner, SpanKind kRole>
class TracedReducer : public api::mapred::Reducer,
                      public internal::ExtensionsOf<Inner> {
  static_assert(internal::kOnlyImmutableExtension<Inner>);
  static_assert(kRole == SpanKind::kReduceTask ||
                kRole == SpanKind::kCombineTask);

 public:
  void Configure(const api::JobConf& conf) override {
    internal::OpenTask(&span_, kRole);
    inner_.Configure(conf);
  }
  void Reduce(const api::WritablePtr& key, api::ValuesIterator& values,
              api::OutputCollector& output,
              api::Reporter& reporter) override {
    internal::TimedValues timed_values(values, span_, &values_sampled_);
    internal::TimedCollector timed_out(output, span_,
                                       SpanKind::kOutputCollect,
                                       &output_sampled_, false, false);
    const int64_t t0 = NowNs();
    inner_.Reduce(key, timed_values, timed_out, reporter);
    const int64_t children = timed_values.ns + timed_out.ns;
    span_.user_ns += NowNs() - t0 - children;
    span_.child_ns += children;
    span_.values_ns += timed_values.ns;
    span_.child_calls += timed_values.calls;
    span_.output_ns += timed_out.ns;
    ++span_.groups;
  }
  void Close() override {
    inner_.Close();
    internal::CloseTask(&span_);
  }

 private:
  // Combiners run once per (map task, partition) on M3R: tens of thousands
  // of tiny tasks on WordCount. Their child calls are kept as totals only.
  static constexpr int kFirstSample =
      kRole == SpanKind::kCombineTask ? Tracer::kChildSpansPerTask : 0;

  Inner inner_;
  Span span_;
  int values_sampled_ = kFirstSample;
  int output_sampled_ = kFirstSample;
};

}  // namespace m3r::perfbench

#endif  // M3R_PERFBENCH_TRACED_CLASSES_H_
