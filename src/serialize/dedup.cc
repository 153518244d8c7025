#include "serialize/dedup.h"

namespace m3r::serialize {

namespace {
constexpr uint8_t kNew = 0;
constexpr uint8_t kRef = 1;
constexpr uint8_t kNewType = 2;  // kNew + first occurrence of the type name
}  // namespace

void DedupOutputStream::WriteObject(const WritablePtr& obj) {
  ++objects_written_;
  if (mode_ != DedupMode::kOff) {
    if (mode_ == DedupMode::kFull) {
      auto it = seen_.find(obj.get());
      if (it != seen_.end()) {
        out_.WriteByte(kRef);
        out_.WriteVarU64(it->second);
        ++objects_deduped_;
        bytes_saved_ += obj->SerializedSize();
        return;
      }
    } else {  // kConsecutive: look back one pair's worth of objects
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
  }

  std::string type = obj->TypeName();
  auto tid = type_ids_.find(type);
  if (tid == type_ids_.end()) {
    uint32_t id = static_cast<uint32_t>(type_ids_.size());
    type_ids_.emplace(type, id);
    out_.WriteByte(kNewType);
    out_.WriteString(type);
  } else {
    out_.WriteByte(kNew);
    out_.WriteVarU64(tid->second);
  }
  obj->Write(out_);

  if (mode_ == DedupMode::kFull) {
    seen_.emplace(obj.get(), next_index_);
    pinned_.push_back(obj);
  } else if (mode_ == DedupMode::kConsecutive) {
    recent_[recent_pos_] = {obj, next_index_};
    recent_pos_ = (recent_pos_ + 1) % kWindow;
  }
  ++next_index_;
}

DedupInputStream::DedupInputStream(std::string buffer)
    : buffer_(std::move(buffer)), in_(buffer_) {}

WritablePtr DedupInputStream::ReadObject() {
  if (in_.AtEnd()) return nullptr;
  uint8_t tag = in_.ReadByte();
  if (tag == kRef) {
    uint64_t index = in_.ReadVarU64();
    M3R_CHECK(index < objects_.size()) << "bad back-reference";
    return objects_[index];
  }
  uint64_t tid = factories_.size();
  if (tag == kNewType) {
    factories_.push_back(
        WritableRegistry::Instance().Resolve(in_.ReadString()));
  } else {
    M3R_CHECK(tag == kNew) << "bad stream tag " << int(tag);
    tid = in_.ReadVarU64();
    M3R_CHECK(tid < factories_.size()) << "bad type id";
  }
  WritablePtr obj = factories_[tid]();
  obj->ReadFields(in_);
  objects_.push_back(obj);
  return obj;
}

}  // namespace m3r::serialize
