#ifndef M3R_SERIALIZE_DEDUP_H_
#define M3R_SERIALIZE_DEDUP_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "serialize/registry.h"
#include "serialize/writable.h"

namespace m3r::serialize {

/// De-duplication policy for an object stream (paper §3.2.2.3 / §6.3).
enum class DedupMode {
  /// No identity tracking: every occurrence is serialized in full.
  kOff,
  /// X10-style: every object ever written to this stream is remembered; a
  /// repeat writes only a back-reference. This is what gives M3R free
  /// de-duplication of broadcast values, at the cost of keeping all written
  /// objects alive for the stream's lifetime (the memory overhead the paper
  /// discusses for WordCount).
  kFull,
  /// The relaxation proposed as future work in §6.3: "only check
  /// consecutive key/value pairs from the same mapper". Implemented as a
  /// four-object look-back window (the previous pair plus the current
  /// one), which still captures the broadcast-in-a-loop idiom with O(1)
  /// memory instead of pinning every object ever written.
  kConsecutive,
};

/// Serializes a sequence of Writable objects with identity de-duplication,
/// modelling the X10 serialization protocol used by `at (p) S`.
///
/// Wire format per object: a tag byte (kNew/kRef), then either a type id +
/// field bytes, or a varint back-reference index. Type names are written
/// once and then referenced by id (a per-stream string table).
class DedupOutputStream {
 public:
  explicit DedupOutputStream(DedupMode mode) : mode_(mode) {}
  /// Starts the stream on a recycled buffer (capacity reuse via
  /// BufferPool); contents of `recycled` are discarded.
  DedupOutputStream(DedupMode mode, std::string recycled) : mode_(mode) {
    out_.Adopt(std::move(recycled));
  }

  /// Appends `obj` to the stream. Identity (pointer equality) triggers
  /// de-duplication, mirroring X10's heap-graph serializer.
  void WriteObject(const WritablePtr& obj);

  /// Writes a raw control varint (e.g. the destination partition of the
  /// following key/value pair). The reader must consume it with
  /// ReadControl() at the matching position.
  void WriteControl(uint64_t v) { out_.WriteVarU64(v); }

  /// Bytes produced so far.
  const std::string& buffer() const { return out_.buffer(); }
  std::string TakeBuffer() { return out_.Take(); }

  /// Number of objects written (including de-duplicated repeats).
  uint64_t objects_written() const { return objects_written_; }
  /// Repeats that were encoded as back-references instead of full bytes.
  uint64_t objects_deduped() const { return objects_deduped_; }
  /// Approximate bytes that de-duplication avoided serializing.
  uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  DedupMode mode_;
  DataOutput out_;
  std::unordered_map<const Writable*, uint64_t> seen_;
  std::unordered_map<std::string, uint32_t> type_ids_;
  std::vector<WritablePtr> pinned_;  // keeps deduped objects alive (kFull)
  /// kConsecutive look-back window: (object, stream index) of the last
  /// few fully-serialized objects.
  static constexpr size_t kWindow = 4;
  std::pair<WritablePtr, uint64_t> recent_[kWindow];
  size_t recent_pos_ = 0;
  uint64_t next_index_ = 0;
  uint64_t objects_written_ = 0;
  uint64_t objects_deduped_ = 0;
  uint64_t bytes_saved_ = 0;
};

/// Deserializes a DedupOutputStream buffer. Back-references reconstruct
/// *aliases*: the same shared_ptr is returned for each repeat, exactly as
/// X10 deserialization produces multiple aliases of one copy (paper
/// §3.2.2.3).
class DedupInputStream {
 public:
  explicit DedupInputStream(std::string buffer);

  /// Reads the next object, or nullptr at end of stream.
  WritablePtr ReadObject();

  /// Reads a control varint written by WriteControl().
  uint64_t ReadControl() { return in_.ReadVarU64(); }

  bool AtEnd() const { return in_.AtEnd(); }

 private:
  std::string buffer_;
  DataInput in_;
  std::vector<WritablePtr> objects_;
  /// Factory per stream type id, resolved when the type name first
  /// appears, so later objects of the type skip the registry.
  std::vector<WritableRegistry::Factory> factories_;
};

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_DEDUP_H_
