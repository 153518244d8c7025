#include "traced_classes.h"

#include <map>
#include <mutex>

#include "api/class_registry.h"
#include "api/multiple_io.h"
#include "common/logging.h"
#include "workloads/spmv.h"
#include "workloads/wordcount.h"

namespace m3r::perfbench {
namespace internal {

void TimedCollector::Collect(const api::WritablePtr& key,
                             const api::WritablePtr& value) {
  if (capture_) {
    // Reuse-style mappers mutate what they emitted; keep a snapshot.
    if (clone_) {
      Tracer::Instance().Capture(key->Clone(), value->Clone());
    } else {
      Tracer::Instance().Capture(key, value);
    }
  }
  const int64_t t0 = NowNs();
  inner_.Collect(key, value);
  const int64_t t1 = NowNs();
  ns += t1 - t0;
  ++calls;
  if (*sampled_ < Tracer::kChildSpansPerTask) {
    ++*sampled_;
    Span s;
    s.id = Tracer::Instance().NewId();
    s.parent = task_.id;
    s.start_ns = t0;
    s.end_ns = t1;
    s.kind = kind_;
    Tracer::Instance().Record(s);
  }
}

void TimedValues::Sample(int64_t t0, int64_t t1) {
  ns += t1 - t0;
  ++calls;
  if (*sampled_ < Tracer::kChildSpansPerTask) {
    ++*sampled_;
    Span s;
    s.id = Tracer::Instance().NewId();
    s.parent = task_.id;
    s.start_ns = t0;
    s.end_ns = t1;
    s.kind = SpanKind::kValues;
    Tracer::Instance().Record(s);
  }
}

bool TimedValues::HasNext() {
  const int64_t t0 = NowNs();
  const bool more = inner_.HasNext();
  Sample(t0, NowNs());
  return more;
}

api::WritablePtr TimedValues::Next() {
  const int64_t t0 = NowNs();
  api::WritablePtr v = inner_.Next();
  Sample(t0, NowNs());
  return v;
}

void OpenTask(Span* span, SpanKind kind) {
  Tracer& t = Tracer::Instance();
  span->id = t.NewId();
  span->parent = t.CurrentParent();
  span->kind = kind;
  span->start_ns = NowNs();
  t.PushOpen(span->id);
}

void CloseTask(Span* span) {
  Tracer& t = Tracer::Instance();
  span->end_ns = NowNs();
  t.PopOpen(span->id);
  t.Record(*span);
}

}  // namespace internal

namespace {

constexpr char kMapperPrefix[] = "perfbench.traced.map:";
constexpr char kCombinerPrefix[] = "perfbench.traced.combine:";
constexpr char kReducerPrefix[] = "perfbench.traced.reduce:";
// MultipleInputs keeps its per-path (format, mapper) table under this key as
// "path;format;mapper" entries joined by ','. The key is private to
// api/multiple_io.cc, which does not offer a way to rewrite the table.
constexpr char kMultiInputsKey[] = "mapreduce.input.multipleinputs.dir.specs";

template <class Inner>
void RegisterMapper() {
  api::ObjectRegistry<api::mapred::Mapper>::Instance().Register(
      std::string(kMapperPrefix) + Inner::kClassName,
      [] { return std::make_shared<TracedMapper<Inner>>(); });
}

template <class Inner>
void RegisterReducer() {
  auto& registry = api::ObjectRegistry<api::mapred::Reducer>::Instance();
  registry.Register(std::string(kReducerPrefix) + Inner::kClassName, [] {
    return std::make_shared<TracedReducer<Inner, SpanKind::kReduceTask>>();
  });
  registry.Register(std::string(kCombinerPrefix) + Inner::kClassName, [] {
    return std::make_shared<TracedReducer<Inner, SpanKind::kCombineTask>>();
  });
}

template <class Base>
std::string Twin(const char* prefix, const std::string& name) {
  std::string twin = prefix + name;
  M3R_CHECK(api::ObjectRegistry<Base>::Instance().Contains(twin))
      << "no traced twin for user class " << name;
  return twin;
}

}  // namespace

void RegisterTracedClasses() {
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterMapper<workloads::WordCountMapperImmutable>();
    RegisterMapper<workloads::GPassMapper>();
    RegisterMapper<workloads::VBroadcastMapper>();
    RegisterMapper<workloads::SumKeyRewriteMapper>();
    RegisterReducer<workloads::WordCountReducer>();
    RegisterReducer<workloads::MultiplyReducer>();
    RegisterReducer<workloads::SumReducer>();
  });
}

void UseTracedClasses(api::JobConf* conf) {
  using api::mapred::Mapper;
  using api::mapred::Reducer;
  M3R_CHECK(!conf->UsesNewApiMapper() && !conf->UsesNewApiReducer() &&
            !conf->UsesNewApiCombiner())
      << "traced twins exist for old-API classes only";
  if (conf->Contains(api::conf::kMapredMapper)) {
    conf->SetMapperClass(
        Twin<Mapper>(kMapperPrefix, conf->Get(api::conf::kMapredMapper)));
  }
  if (conf->Contains(api::conf::kMapredCombiner)) {
    conf->SetCombinerClass(Twin<Reducer>(
        kCombinerPrefix, conf->Get(api::conf::kMapredCombiner)));
  }
  if (conf->Contains(api::conf::kMapredReducer)) {
    conf->SetReducerClass(
        Twin<Reducer>(kReducerPrefix, conf->Get(api::conf::kMapredReducer)));
  }
  if (api::MultipleInputs::IsConfigured(*conf)) {
    std::string rewritten;
    for (const std::string& spec : conf->GetStrings(kMultiInputsKey)) {
      const size_t cut = spec.rfind(';');
      M3R_CHECK(cut != std::string::npos) << "bad MultipleInputs entry";
      if (!rewritten.empty()) rewritten += ",";
      rewritten += spec.substr(0, cut + 1) +
                   Twin<Mapper>(kMapperPrefix, spec.substr(cut + 1));
    }
    conf->Set(kMultiInputsKey, rewritten);
  }
}

void DfsTotals::Reset() {
  read_bytes = 0;
  read_ns = 0;
  write_bytes = 0;
  write_ns = 0;
  meta_calls = 0;
  meta_ns = 0;
}

namespace {

class TracingWriter : public dfs::FileWriter {
 public:
  TracingWriter(std::unique_ptr<dfs::FileWriter> base, DfsTotals* totals)
      : base_(std::move(base)), totals_(totals) {}
  Status Append(std::string_view data) override {
    const int64_t t0 = NowNs();
    Status s = base_->Append(data);
    totals_->write_ns += NowNs() - t0;
    if (s.ok()) totals_->write_bytes += data.size();
    return s;
  }
  Status Close() override {
    const int64_t t0 = NowNs();
    Status s = base_->Close();
    totals_->write_ns += NowNs() - t0;
    return s;
  }
  uint64_t BytesWritten() const override { return base_->BytesWritten(); }

 private:
  std::unique_ptr<dfs::FileWriter> base_;
  DfsTotals* totals_;
};

}  // namespace

Result<std::unique_ptr<dfs::FileWriter>> TracingFileSystem::Create(
    const std::string& path, const dfs::CreateOptions& opts) {
  const int64_t t0 = NowNs();
  auto w = base_->Create(path, opts);
  totals_->write_ns += NowNs() - t0;
  if (!w.ok()) return w.status();
  return std::unique_ptr<dfs::FileWriter>(
      std::make_unique<TracingWriter>(w.take(), totals_));
}

Result<std::shared_ptr<const std::string>> TracingFileSystem::Open(
    const std::string& path) {
  const int64_t t0 = NowNs();
  auto r = base_->Open(path);
  totals_->read_ns += NowNs() - t0;
  if (r.ok()) totals_->read_bytes += (*r)->size();
  return r;
}

bool TracingFileSystem::Exists(const std::string& path) {
  return Meta([&] { return base_->Exists(path); });
}

Result<dfs::FileStatus> TracingFileSystem::GetFileStatus(
    const std::string& path) {
  return Meta([&] { return base_->GetFileStatus(path); });
}

Result<std::vector<dfs::FileStatus>> TracingFileSystem::ListStatus(
    const std::string& dir) {
  return Meta([&] { return base_->ListStatus(dir); });
}

Status TracingFileSystem::Mkdirs(const std::string& path) {
  return Meta([&] { return base_->Mkdirs(path); });
}

Status TracingFileSystem::Delete(const std::string& path, bool recursive) {
  return Meta([&] { return base_->Delete(path, recursive); });
}

Status TracingFileSystem::Rename(const std::string& src,
                                 const std::string& dst) {
  return Meta([&] { return base_->Rename(src, dst); });
}

Result<std::vector<dfs::BlockLocation>> TracingFileSystem::GetBlockLocations(
    const std::string& path) {
  return Meta([&] { return base_->GetBlockLocations(path); });
}

}  // namespace m3r::perfbench
