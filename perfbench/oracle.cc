#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "api/sequence_file.h"
#include "common/path.h"
#include "m3r/cache.h"
#include "m3r/cache_fs.h"
#include "serialize/basic_writables.h"
#include "workloads/spmv.h"

namespace m3r::perfbench {
namespace {

using serialize::DoubleArrayWritable;
using serialize::PairIntWritable;
using serialize::WritablePtr;
using Pairs = std::vector<std::pair<WritablePtr, WritablePtr>>;

/// 64-bit hash of a byte range, eight bytes per step (FNV-1a style
/// xor-multiply on words, then on the tail bytes). Record hashes are summed,
/// so a digest does not depend on the order files or records are read in.
uint64_t Hash(const void* data, size_t n, uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * 1099511628211ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::vector<std::string> PartFiles(dfs::FileSystem& fs,
                                   const std::string& dir) {
  std::vector<std::string> out;
  auto files = fs.ListStatus(dir);
  if (!files.ok()) return out;
  for (const auto& f : *files) {
    if (f.is_directory) continue;
    const std::string base = path::BaseName(f.path);
    if (base.empty() || base[0] == '_' || base[0] == '.') continue;
    out.push_back(f.path);
  }
  return out;
}

/// Reads a sequence file's pairs: the M3R cache's own objects when `cache`
/// holds the file (a copy through the cache record reader costs more than
/// the job that wrote them), else its bytes, else through the cache record
/// reader, which restores a spilled cache-only file.
Result<Pairs> ReadPairs(dfs::FileSystem& fs, engine::Cache* cache,
                        const std::string& file,
                        const serialize::Writable& key_proto,
                        const serialize::Writable& value_proto) {
  if (cache != nullptr) {
    auto blocks = cache->GetFileBlocks(file);
    if (blocks.ok()) {
      Pairs out;
      for (const auto& block : *blocks) {
        for (const auto& p : *block.pairs) out.emplace_back(p.first, p.second);
      }
      return out;
    }
  }
  auto bytes = fs.Open(file);
  if (bytes.ok() && !(*bytes)->empty()) return api::ReadSequenceFile(fs, file);
  auto* cache_fs = dynamic_cast<engine::CacheFS*>(&fs);
  if (cache_fs == nullptr) {
    if (bytes.ok()) return Pairs{};
    return bytes.status();
  }
  M3R_ASSIGN_OR_RETURN(std::unique_ptr<api::RecordReader> reader,
                       cache_fs->GetCacheRecordReader(file));
  Pairs out;
  for (;;) {
    WritablePtr k = key_proto.NewInstance();
    WritablePtr v = value_proto.NewInstance();
    if (!reader->Next(*k, *v)) break;
    out.emplace_back(std::move(k), std::move(v));
  }
  return out;
}

bool Close(double got, double want, double scale) {
  return std::fabs(got - want) <= SpmvOracle::kRelTol * std::fabs(want) +
                                       SpmvOracle::kAbsTol * scale;
}

double MaxAbs(const std::vector<double>& v) {
  double m = 0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

uint64_t DigestBlock(int32_t row, int32_t col, const std::vector<double>& v) {
  uint64_t h = Hash(&row, sizeof(row));
  h = Hash(&col, sizeof(col), h);
  return Hash(v.data(), v.size() * sizeof(double), h);
}

}  // namespace

Result<WordCountOracle> WordCountOracle::FromInput(dfs::FileSystem& fs,
                                                   const std::string& dir) {
  WordCountOracle oracle;
  for (const std::string& file : PartFiles(fs, dir)) {
    M3R_ASSIGN_OR_RETURN(std::string text, fs.ReadFile(file));
    size_t pos = 0;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      size_t w = pos;
      while (w < eol) {
        while (w < eol && text[w] == ' ') ++w;
        size_t end = w;
        while (end < eol && text[end] != ' ') ++end;
        if (end > w) ++oracle.counts_[text.substr(w, end - w)];
        w = end;
      }
      pos = eol + 1;
    }
  }
  if (oracle.counts_.empty()) {
    return Status::InvalidArgument("no words under " + dir);
  }
  return oracle;
}

JobCheck WordCountOracle::Check(dfs::FileSystem& fs,
                                const std::string& out_dir) const {
  JobCheck check;
  std::map<std::string, int64_t> got;
  bool well_formed = true;
  for (const std::string& file : PartFiles(fs, out_dir)) {
    auto text = fs.ReadFile(file);
    if (!text.ok()) return check;
    size_t pos = 0;
    while (pos < text->size()) {
      size_t eol = text->find('\n', pos);
      if (eol == std::string::npos) eol = text->size();
      std::string line = text->substr(pos, eol - pos);
      pos = eol + 1;
      check.digest += Hash(line.data(), line.size());
      const size_t tab = line.rfind('\t');
      if (tab == std::string::npos) {
        well_formed = false;
        continue;
      }
      char* end = nullptr;
      const long long count = std::strtoll(line.c_str() + tab + 1, &end, 10);
      // A word reported twice (by two reducers) is as wrong as a bad count.
      if (*end != '\0' || !got.emplace(line.substr(0, tab), count).second) {
        well_formed = false;
      }
    }
  }
  check.correct = well_formed && got == counts_;
  return check;
}

Result<SpmvOracle> SpmvOracle::FromInput(dfs::FileSystem& fs,
                                         const std::string& g_dir,
                                         const std::string& v_dir, int64_t n,
                                         int32_t block) {
  SpmvOracle oracle;
  oracle.n_ = n;
  oracle.block_ = block;
  for (const std::string& file : PartFiles(fs, g_dir)) {
    M3R_ASSIGN_OR_RETURN(Pairs pairs, api::ReadSequenceFile(fs, file));
    for (const auto& [k, v] : pairs) {
      const auto& key = static_cast<const PairIntWritable&>(*k);
      const auto& csc = static_cast<const workloads::CscBlockWritable&>(*v);
      auto& entries = oracle.blocks_[{key.Row(), key.Col()}];
      for (int32_t j = 0; j < csc.cols(); ++j) {
        for (int32_t i = csc.col_ptr()[static_cast<size_t>(j)];
             i < csc.col_ptr()[static_cast<size_t>(j) + 1]; ++i) {
          entries.push_back(
              {key.Row() * block + csc.row_idx()[static_cast<size_t>(i)],
               key.Col() * block + j, csc.values()[static_cast<size_t>(i)]});
        }
      }
    }
  }
  oracle.v_.assign(static_cast<size_t>(n), 0.0);
  for (const std::string& file : PartFiles(fs, v_dir)) {
    M3R_ASSIGN_OR_RETURN(Pairs pairs, api::ReadSequenceFile(fs, file));
    for (const auto& [k, v] : pairs) {
      const auto& key = static_cast<const PairIntWritable&>(*k);
      const auto& dense = static_cast<const DoubleArrayWritable&>(*v).Get();
      std::copy(dense.begin(), dense.end(),
                oracle.v_.begin() + static_cast<int64_t>(key.Row()) * block);
    }
  }
  if (oracle.blocks_.empty()) {
    return Status::InvalidArgument("no matrix blocks under " + g_dir);
  }
  oracle.v0_ = oracle.v_;
  return oracle;
}

void SpmvOracle::Step() {
  partials_.clear();
  std::vector<double> next(v_.size(), 0.0);
  for (const auto& [rc, entries] : blocks_) {
    const int64_t row0 = static_cast<int64_t>(rc.first) * block_;
    const int64_t rows = std::min<int64_t>(block_, n_ - row0);
    std::vector<double>& partial = partials_[rc];
    partial.assign(static_cast<size_t>(rows), 0.0);
    for (const Entry& e : entries) {
      partial[static_cast<size_t>(e.row - row0)] +=
          e.value * v_[static_cast<size_t>(e.col)];
    }
    for (int64_t i = 0; i < rows; ++i) {
      next[static_cast<size_t>(row0 + i)] += partial[static_cast<size_t>(i)];
    }
  }
  v_ = std::move(next);
}

JobCheck SpmvOracle::CheckPartials(dfs::FileSystem& fs, engine::Cache* cache,
                                   const std::string& dir) const {
  JobCheck check;
  size_t seen = 0;
  bool ok = true;
  for (const std::string& file : PartFiles(fs, dir)) {
    auto pairs =
        ReadPairs(fs, cache, file, PairIntWritable(), DoubleArrayWritable());
    if (!pairs.ok()) return check;
    for (const auto& [k, v] : *pairs) {
      const auto& key = static_cast<const PairIntWritable&>(*k);
      const auto& got = static_cast<const DoubleArrayWritable&>(*v).Get();
      check.digest += DigestBlock(key.Row(), key.Col(), got);
      ++seen;
      auto it = partials_.find({key.Row(), key.Col()});
      if (it == partials_.end() || it->second.size() != got.size()) {
        ok = false;
        continue;
      }
      const double scale = MaxAbs(it->second);
      for (size_t i = 0; i < got.size(); ++i) {
        if (!Close(got[i], it->second[i], scale)) ok = false;
      }
    }
  }
  check.correct = ok && seen == partials_.size();
  return check;
}

JobCheck SpmvOracle::CheckVector(dfs::FileSystem& fs, engine::Cache* cache,
                                 const std::string& dir) const {
  JobCheck check;
  std::vector<double> got(v_.size(), 0.0);
  std::vector<bool> filled(v_.size(), false);
  bool ok = true;
  for (const std::string& file : PartFiles(fs, dir)) {
    auto pairs =
        ReadPairs(fs, cache, file, PairIntWritable(), DoubleArrayWritable());
    if (!pairs.ok()) return check;
    for (const auto& [k, v] : *pairs) {
      const auto& key = static_cast<const PairIntWritable&>(*k);
      const auto& block = static_cast<const DoubleArrayWritable&>(*v).Get();
      check.digest += DigestBlock(key.Row(), key.Col(), block);
      const int64_t row0 = static_cast<int64_t>(key.Row()) * block_;
      if (key.Col() != 0 || row0 < 0 ||
          row0 + static_cast<int64_t>(block.size()) > n_) {
        ok = false;
        continue;
      }
      for (size_t i = 0; i < block.size(); ++i) {
        const size_t at = static_cast<size_t>(row0) + i;
        if (filled[at]) ok = false;
        filled[at] = true;
        got[at] = block[i];
      }
    }
  }
  // Row blocks with no stored G block get no output; their entries are 0.
  const double scale = MaxAbs(v_);
  for (size_t i = 0; i < v_.size(); ++i) {
    if (!Close(got[i], v_[i], scale)) ok = false;
  }
  check.correct = ok;
  return check;
}

}  // namespace m3r::perfbench
