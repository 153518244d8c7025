#include "serialize/registry.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"

namespace m3r::serialize {

struct WritableRegistry::Impl {
  std::mutex mu;
  std::unordered_map<std::string, Factory> factories;
};

WritableRegistry& WritableRegistry::Instance() {
  static WritableRegistry* instance = [] {
    auto* r = new WritableRegistry();
    r->impl_ = new Impl();
    return r;
  }();
  return *instance;
}

void WritableRegistry::Register(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->factories.emplace(name, std::move(factory));
}

WritableRegistry::Factory WritableRegistry::Resolve(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->factories.find(name);
  M3R_CHECK(it != impl_->factories.end())
      << "unregistered Writable type: " << name;
  return it->second;
}

bool WritableRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->factories.count(name) > 0;
}

std::vector<std::string> WritableRegistry::Names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> names;
  names.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace m3r::serialize
