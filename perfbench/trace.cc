#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>

namespace m3r::perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kJob: return "job";
    case SpanKind::kMapTask: return "map-task";
    case SpanKind::kCombineTask: return "combine-task";
    case SpanKind::kReduceTask: return "reduce-task";
    case SpanKind::kCollect: return "collect";
    case SpanKind::kValues: return "values";
    case SpanKind::kOutputCollect: return "output.collect";
  }
  return "?";
}

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->index = static_cast<uint32_t>(buffers_.size());
    local = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

uint64_t Tracer::CurrentParent() {
  ThreadBuffer& b = Local();
  return b.open.empty() ? CurrentJob() : b.open.back();
}

void Tracer::PushOpen(uint64_t id) { Local().open.push_back(id); }

void Tracer::PopOpen(uint64_t id) {
  auto& open = Local().open;
  auto it = std::find(open.rbegin(), open.rend(), id);
  if (it != open.rend()) open.erase(std::next(it).base());
}

void Tracer::Record(const Span& span) {
  ThreadBuffer& b = Local();
  b.spans.push_back(span);
  b.spans.back().thread = b.index;
}

void Tracer::Capture(const serialize::WritablePtr& key,
                     const serialize::WritablePtr& value) {
  ThreadBuffer& b = Local();
  if (b.capture.size() < kCapturePerThread) b.capture.push_back({key, value});
}

std::vector<Span> Tracer::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

std::vector<CapturedPair> Tracer::TakeCapture() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CapturedPair> out;
  for (auto& b : buffers_) {
    for (auto& p : b->capture) out.push_back(std::move(p));
    b->capture.clear();
  }
  return out;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> task_intervals;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kMapTask || s.kind == SpanKind::kCombineTask ||
        s.kind == SpanKind::kReduceTask) {
      task_intervals[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    int64_t covered = s.child_ns;
    if (s.kind == SpanKind::kJob) {
      auto it = task_intervals.find(s.id);
      covered = 0;
      if (it != task_intervals.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t lo = 0, hi = 0;
        bool open = false;
        for (const auto& [a, b] : iv) {
          const int64_t start = std::max(a, s.start_ns);
          const int64_t end = std::min(b, s.end_ns);
          if (end <= start) continue;
          if (open && start <= hi) {
            hi = std::max(hi, end);
            continue;
          }
          if (open) covered += hi - lo;
          lo = start;
          hi = end;
          open = true;
        }
        if (open) covered += hi - lo;
      }
    }
    self[i] = std::max<int64_t>(0, dur - covered);
  }
  return self;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans);
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Job spans go on their own track so tasks of all threads nest under
    // them visually; everything else on its recording thread.
    const long long tid = s.kind == SpanKind::kJob ? 0 : s.thread + 1;
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"self_us\":%.3f",
        i ? ",\n" : "", SpanName(s.kind), tid, (s.start_ns - t0) / 1e3,
        (s.end_ns - s.start_ns) / 1e3, static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent), self[i] / 1e3);
    if (s.kind == SpanKind::kMapTask || s.kind == SpanKind::kCombineTask ||
        s.kind == SpanKind::kReduceTask) {
      std::fprintf(f,
                   ",\"user_us\":%.3f,\"child_us\":%.3f,\"child_calls\":%llu,"
                   "\"groups\":%llu",
                   s.user_ns / 1e3, s.child_ns / 1e3,
                   static_cast<unsigned long long>(s.child_calls),
                   static_cast<unsigned long long>(s.groups));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace m3r::perfbench
