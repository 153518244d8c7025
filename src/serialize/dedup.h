#ifndef M3R_SERIALIZE_DEDUP_H_
#define M3R_SERIALIZE_DEDUP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
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

  /// Starts a new frame on `recycled` (its contents are discarded): every
  /// identity, type id and tally restarts as in a fresh stream, so the
  /// frame decodes on its own and its bytes equal a fresh stream's, but the
  /// kFull identity table keeps its capacity instead of regrowing from
  /// empty.
  void Reset(std::string recycled);

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
  /// One kFull identity-table slot; `obj == nullptr` marks it empty.
  struct Seen {
    const Writable* obj = nullptr;
    uint64_t index = 0;
  };
  /// The slot holding `obj`, or the empty slot where it belongs.
  Seen* FindSeen(const Writable* obj);
  /// Doubles the table and re-places every entry.
  void GrowSeen();
  /// Stream type id of `type`, writing the tag and the id (or, on first
  /// sight, the name) that introduce a full object of that type.
  void WriteTypeHeader(const char* type);

  DedupMode mode_;
  DataOutput out_;
  /// kFull identity table: open addressing with linear probing over a
  /// power-of-two array, kept at most half full. Flat, so a stream's
  /// objects cost no node allocations and growth is a sequential re-place.
  std::vector<Seen> seen_;
  size_t seen_count_ = 0;
  int seen_shift_ = 0;  // 64 - log2(seen_.size()), set by GrowSeen
  /// Type-name pointers seen so far, with their stream type ids. Registry
  /// names are static strings, so a pointer match almost always settles a
  /// lookup; by-value comparison only runs for a pointer not seen yet.
  std::vector<std::pair<const char*, uint32_t>> type_ids_;
  uint32_t num_types_ = 0;
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

/// Deserializes a DedupOutputStream frame the caller owns; the frame must
/// outlive the stream and every span it returns. A stream is read one way
/// only, objects or spans, never both:
///  - ReadObject rebuilds objects. Back-references reconstruct *aliases*:
///    the same shared_ptr is returned for each repeat, exactly as X10
///    deserialization produces multiple aliases of one copy (paper
///    §3.2.2.3).
///  - ReadObjectBytes returns each object's field bytes as a slice of the
///    frame — exactly what the sender's Write() produced — without building
///    an object per record.
class DedupInputStream {
 public:
  explicit DedupInputStream(std::string_view frame)
      : in_(frame), frame_(frame) {}
  /// A temporary frame would die before the spans that point into it.
  explicit DedupInputStream(std::string&& frame) = delete;

  /// Reads the next object, or nullptr at end of stream.
  WritablePtr ReadObject();

  /// Reads the next object's field bytes (what SerializeToString of the
  /// object ReadObject would yield here) and sets `*type_id` to its stream
  /// type id. A back-reference returns the span of its first occurrence.
  /// Must not be called at end of stream.
  std::string_view ReadObjectBytes(uint32_t* type_id);

  /// Registry name of a stream type id returned by ReadObjectBytes.
  const std::string& TypeNameOf(uint32_t type_id) const;

  /// Reads a control varint written by WriteControl().
  uint64_t ReadControl() { return in_.ReadVarU64(); }

  bool AtEnd() const { return in_.AtEnd(); }

 private:
  enum class Use { kUnset, kObjects, kBytes };
  /// Parses one object header, the part both read paths share. Returns
  /// true with the back-reference index in `*id`, or false with the stream
  /// type id of the full object that follows.
  bool ReadHeader(uint64_t* id);
  void Claim(Use use);

  DataInput in_;
  std::string_view frame_;
  Use use_ = Use::kUnset;
  std::vector<WritablePtr> objects_;  // ReadObject: one per full object
  /// ReadObjectBytes: (field bytes, type id) per full object.
  std::vector<std::pair<std::string_view, uint32_t>> spans_;
  std::vector<std::string> type_names_;  // per stream type id
  /// Factory per stream type id, resolved when the type name first
  /// appears, so later objects of the type skip the registry.
  std::vector<WritableRegistry::Factory> factories_;
  /// ReadObjectBytes: one reusable instance per type id, whose ReadFields
  /// finds where each object's bytes end.
  std::vector<WritablePtr> scratch_;
};

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_DEDUP_H_
