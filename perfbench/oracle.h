// Reference results computed from the generated inputs alone, without
// either engine, and the checks of each job's output against them.
#ifndef M3R_PERFBENCH_ORACLE_H_
#define M3R_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dfs/file_system.h"

namespace m3r::engine {
class Cache;
}

namespace m3r::perfbench {

/// Outcome of checking one job's output. `digest` fingerprints the output
/// (order-independent), for comparing two runs of the same job.
struct JobCheck {
  bool correct = false;
  uint64_t digest = 0;
};

/// WordCount: counts of every word in the text files under `dir`, split
/// into lines on '\n' and into words on ' ', as the job's mapper does.
class WordCountOracle {
 public:
  static Result<WordCountOracle> FromInput(dfs::FileSystem& fs,
                                           const std::string& dir);
  /// Compares the "word\tcount" lines of every part file under `out_dir`.
  JobCheck Check(dfs::FileSystem& fs, const std::string& out_dir) const;

 private:
  std::map<std::string, int64_t> counts_;
};

/// SpMV: G as a list of nonzeros and v as a dense vector, read from the
/// generated sequence files; each iteration's partial products and new v
/// are computed here with plain loops. Values match when
/// |got - want| <= kRelTol * |want| + kAbsTol * max|want|.
class SpmvOracle {
 public:
  static constexpr double kRelTol = 1e-9;
  static constexpr double kAbsTol = 1e-12;

  static Result<SpmvOracle> FromInput(dfs::FileSystem& fs,
                                      const std::string& g_dir,
                                      const std::string& v_dir, int64_t n,
                                      int32_t block);

  /// Back to the generated v, before the first iteration.
  void Rewind() { v_ = v0_; }
  /// Advances the reference by one iteration (v <- G v), keeping the
  /// partial products (r, c) -> G(r,c) v(c) of that iteration.
  void Step();
  /// Job 1 of the current iteration: partial products under `dir`, read
  /// through `fs` or, when non-null, straight from the M3R `cache`.
  JobCheck CheckPartials(dfs::FileSystem& fs, engine::Cache* cache,
                         const std::string& dir) const;
  /// Job 2 of the current iteration: the new v under `dir`.
  JobCheck CheckVector(dfs::FileSystem& fs, engine::Cache* cache,
                       const std::string& dir) const;

 private:
  struct Entry {
    int32_t row;  // global row
    int32_t col;  // global column
    double value;
  };
  int64_t n_ = 0;
  int32_t block_ = 0;
  /// Nonzeros grouped by stored block (r, c), in storage order.
  std::map<std::pair<int32_t, int32_t>, std::vector<Entry>> blocks_;
  std::vector<double> v0_;
  std::vector<double> v_;
  std::map<std::pair<int32_t, int32_t>, std::vector<double>> partials_;
};

}  // namespace m3r::perfbench

#endif  // M3R_PERFBENCH_ORACLE_H_
