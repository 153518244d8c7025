#include "common/buffer_pool.h"

#include <algorithm>
#include <utility>

namespace m3r {

std::string BufferPool::Acquire(const std::string& category) {
  std::lock_guard<std::mutex> lock(mu_);
  ++acquired_;
  Category& cat = categories_[category];
  std::string buffer;
  if (!cat.free.empty()) {
    buffer = std::move(cat.free.back());
    cat.free.pop_back();
    resident_bytes_ -= std::min<uint64_t>(resident_bytes_, buffer.capacity());
    ++reused_;
  }
  buffer.clear();
  if (buffer.capacity() < cat.size_hint) buffer.reserve(cat.size_hint);
  return buffer;
}

void BufferPool::Release(const std::string& category, std::string buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  Category& cat = categories_[category];
  cat.size_hint = Decay(cat.size_hint, buffer.size());
  if (cat.free.size() >= kMaxFreePerCategory ||
      buffer.capacity() > kMaxRetainedCapacity) {
    return;  // drop: destructor frees it
  }
  buffer.clear();
  resident_bytes_ += buffer.capacity();
  cat.free.push_back(std::move(buffer));
}

uint64_t BufferPool::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void BufferPool::Trim() {
  std::lock_guard<std::mutex> lock(mu_);
  categories_.clear();
  resident_bytes_ = 0;
}

size_t BufferPool::SizeHint(const std::string& category) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = categories_.find(category);
  return it == categories_.end() ? 0 : it->second.size_hint;
}

uint64_t BufferPool::acquired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquired_;
}

uint64_t BufferPool::reused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reused_;
}

}  // namespace m3r
