#include "serialize/dedup.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace m3r::serialize {

namespace {
constexpr uint8_t kNew = 0;
constexpr uint8_t kRef = 1;
constexpr uint8_t kNewType = 2;  // kNew + first occurrence of the type name
/// First identity-table size; doubles whenever the table is half full.
constexpr size_t kInitialSeenSlots = 64;
}  // namespace

DedupOutputStream::Seen* DedupOutputStream::FindSeen(const Writable* obj) {
  // Fibonacci hashing: the multiply spreads the pointer's middle bits
  // (allocation alignment zeroes the low ones) into the top bits kept.
  const size_t mask = seen_.size() - 1;
  size_t i = static_cast<size_t>(
      (reinterpret_cast<uintptr_t>(obj) * 0x9E3779B97F4A7C15ull) >>
      seen_shift_);
  while (seen_[i].obj != nullptr && seen_[i].obj != obj) i = (i + 1) & mask;
  return &seen_[i];
}

void DedupOutputStream::GrowSeen() {
  std::vector<Seen> old = std::move(seen_);
  seen_.assign(old.empty() ? kInitialSeenSlots : old.size() * 2, Seen{});
  seen_shift_ = 64 - std::countr_zero(seen_.size());
  for (const Seen& s : old) {
    if (s.obj != nullptr) *FindSeen(s.obj) = s;
  }
}

void DedupOutputStream::WriteTypeHeader(const char* type) {
  for (const auto& [name, id] : type_ids_) {
    if (name == type) {
      out_.WriteByte(kNew);
      out_.WriteVarU64(id);
      return;
    }
  }
  // A name pointer not seen yet: the same name may still have arrived
  // through another pointer (registry names are compared by value).
  for (const auto& [name, id] : type_ids_) {
    if (std::strcmp(name, type) == 0) {
      type_ids_.emplace_back(type, id);
      out_.WriteByte(kNew);
      out_.WriteVarU64(id);
      return;
    }
  }
  type_ids_.emplace_back(type, num_types_++);
  out_.WriteByte(kNewType);
  out_.WriteString(type);
}

void DedupOutputStream::Reset(std::string recycled) {
  out_.Adopt(std::move(recycled));
  std::fill(seen_.begin(), seen_.end(), Seen{});
  seen_count_ = 0;
  type_ids_.clear();
  num_types_ = 0;
  pinned_.clear();
  for (auto& entry : recent_) entry = {};
  recent_pos_ = 0;
  next_index_ = 0;
  objects_written_ = 0;
  objects_deduped_ = 0;
  bytes_saved_ = 0;
}

void DedupOutputStream::WriteObject(const WritablePtr& obj) {
  ++objects_written_;
  Seen* slot = nullptr;
  if (mode_ == DedupMode::kFull) {
    if (seen_.empty()) GrowSeen();
    slot = FindSeen(obj.get());
    if (slot->obj != nullptr) {
      out_.WriteByte(kRef);
      out_.WriteVarU64(slot->index);
      ++objects_deduped_;
      bytes_saved_ += obj->SerializedSize();
      return;
    }
  } else if (mode_ == DedupMode::kConsecutive) {
    // Look back one pair's worth of objects.
    for (size_t i = 0; i < kWindow; ++i) {
      if (recent_[i].first.get() == obj.get()) {
        out_.WriteByte(kRef);
        out_.WriteVarU64(recent_[i].second);
        ++objects_deduped_;
        bytes_saved_ += obj->SerializedSize();
        // Refresh recency so a value repeated every pair stays resident.
        std::pair<WritablePtr, uint64_t> entry = recent_[i];
        recent_[recent_pos_] = std::move(entry);
        recent_pos_ = (recent_pos_ + 1) % kWindow;
        return;
      }
    }
  }

  WriteTypeHeader(obj->TypeName());
  obj->Write(out_);

  if (mode_ == DedupMode::kFull) {
    *slot = {obj.get(), next_index_};
    pinned_.push_back(obj);
    if (++seen_count_ * 2 > seen_.size()) GrowSeen();
  } else if (mode_ == DedupMode::kConsecutive) {
    recent_[recent_pos_] = {obj, next_index_};
    recent_pos_ = (recent_pos_ + 1) % kWindow;
  }
  ++next_index_;
}

void DedupInputStream::Claim(Use use) {
  M3R_CHECK(use_ == Use::kUnset || use_ == use)
      << "a dedup stream is read as objects or as spans, not both";
  use_ = use;
}

bool DedupInputStream::ReadHeader(uint64_t* id) {
  uint8_t tag = in_.ReadByte();
  if (tag == kRef) {
    *id = in_.ReadVarU64();
    return true;
  }
  if (tag == kNewType) {
    *id = factories_.size();
    type_names_.push_back(in_.ReadString());
    factories_.push_back(
        WritableRegistry::Instance().Resolve(type_names_.back()));
  } else {
    M3R_CHECK(tag == kNew) << "bad stream tag " << int(tag);
    *id = in_.ReadVarU64();
    M3R_CHECK(*id < factories_.size()) << "bad type id";
  }
  return false;
}

WritablePtr DedupInputStream::ReadObject() {
  if (in_.AtEnd()) return nullptr;
  Claim(Use::kObjects);
  uint64_t id;
  if (ReadHeader(&id)) {
    M3R_CHECK(id < objects_.size()) << "bad back-reference";
    return objects_[id];
  }
  WritablePtr obj = factories_[id]();
  obj->ReadFields(in_);
  objects_.push_back(obj);
  return obj;
}

std::string_view DedupInputStream::ReadObjectBytes(uint32_t* type_id) {
  M3R_CHECK(!in_.AtEnd()) << "read past the end of a dedup stream";
  Claim(Use::kBytes);
  uint64_t id;
  if (ReadHeader(&id)) {
    M3R_CHECK(id < spans_.size()) << "bad back-reference";
    *type_id = spans_[id].second;
    return spans_[id].first;
  }
  // Type ids are dense and first appear in order, so a new one is always
  // the next scratch slot.
  if (scratch_.size() < factories_.size()) {
    scratch_.push_back(factories_.back()());
  }
  const size_t begin = in_.position();
  scratch_[id]->ReadFields(in_);
  std::string_view bytes = frame_.substr(begin, in_.position() - begin);
  *type_id = static_cast<uint32_t>(id);
  spans_.emplace_back(bytes, *type_id);
  return bytes;
}

const std::string& DedupInputStream::TypeNameOf(uint32_t type_id) const {
  M3R_CHECK(type_id < type_names_.size()) << "bad type id";
  return type_names_[type_id];
}

}  // namespace m3r::serialize
