// Span recorder for the benchmark's traced run.
//
// Spans are taken from outside the engines, at the boundaries the engines
// already accept from user code: the job (around Engine::Submit), the task
// (a wrapped Mapper/Reducer/Combiner instance, Configure..Close) and the
// calls it makes back into the engine (OutputCollector::Collect,
// ValuesIterator::HasNext/Next). Each thread appends to its own buffer, so
// recording never takes a lock the engine's strands would share; the
// buffers are merged only when the run ends.
#ifndef M3R_PERFBENCH_TRACE_H_
#define M3R_PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serialize/writable.h"

namespace m3r::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v`; the mean of the two middle values when `v.size()` is
/// even, 0 when `v` is empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

enum class SpanKind : uint8_t {
  kJob,
  kMapTask,
  kCombineTask,
  kReduceTask,
  kCollect,        // map-side OutputCollector::Collect
  kValues,         // reduce-side ValuesIterator::HasNext/Next
  kOutputCollect,  // reduce/combine-side OutputCollector::Collect
};

const char* SpanName(SpanKind kind);

/// One finished span. Task spans carry exact totals of their children in
/// `child_ns`/`child_calls`, so self time is exact even though only the
/// first few child calls of each task are kept as spans of their own.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kJob;
  uint32_t thread = 0;
  /// Task spans: time inside the task's own user code (callback time
  /// minus the child calls it made) and the per-kind child totals.
  int64_t user_ns = 0;
  int64_t child_ns = 0;
  uint64_t child_calls = 0;  // map: Collect calls; reduce: values calls
  int64_t values_ns = 0;     // reduce/combine only
  int64_t output_ns = 0;     // reduce/combine only
  uint64_t groups = 0;       // reduce/combine: Reduce() calls
};

/// One map-output pair kept for the layer replays.
struct CapturedPair {
  serialize::WritablePtr key;
  serialize::WritablePtr value;
};

/// Process-wide recorder. Only the traced twins of the user classes write
/// to it, so an untraced run records nothing.
class Tracer {
 public:
  /// Child spans kept per task and kind; the rest are folded into the
  /// task's totals. Keeps a traced WordCount's trace file a few MB instead
  /// of one event per emitted word.
  static constexpr int kChildSpansPerTask = 16;
  /// Map-output pairs captured per thread for the replays.
  static constexpr size_t kCapturePerThread = 1 << 16;

  static Tracer& Instance();

  bool capturing() const { return capture_.load(std::memory_order_relaxed); }
  void SetCapturing(bool on) { capture_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// The job span every task span recorded from now on hangs under.
  void SetCurrentJob(uint64_t id) {
    job_.store(id, std::memory_order_relaxed);
  }
  uint64_t CurrentJob() const { return job_.load(std::memory_order_relaxed); }

  /// Parent for a span opened on this thread: the innermost open task
  /// span of this thread, else the current job.
  uint64_t CurrentParent();
  void PushOpen(uint64_t id);
  void PopOpen(uint64_t id);

  void Record(const Span& span);
  void Capture(const serialize::WritablePtr& key,
               const serialize::WritablePtr& value);

  /// Drains every thread's buffer (call only when no job is running).
  std::vector<Span> TakeSpans();
  std::vector<CapturedPair> TakeCapture();

 private:
  struct ThreadBuffer {
    uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<uint64_t> open;
    std::vector<CapturedPair> capture;
  };
  ThreadBuffer& Local();

  std::atomic<bool> capture_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> job_{0};
  std::mutex mu_;  // guards buffers_ (registration and draining only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, one
/// "tid" per recording thread), readable by Perfetto and about:tracing.
/// Every event carries its id, parent id and self time in "args".
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

/// Self time of each span in nanoseconds: duration minus the part of its
/// interval covered by its children. Task spans use their exact child
/// totals; job spans use the union of their task spans' intervals.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace m3r::perfbench

#endif  // M3R_PERFBENCH_TRACE_H_
