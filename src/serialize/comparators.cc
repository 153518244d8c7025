#include "serialize/comparators.h"

#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"
#include "serialize/registry.h"

namespace m3r::serialize {

DeserializingComparator::DeserializingComparator(const std::string& key_type)
    : make_key_(WritableRegistry::Instance().Resolve(key_type)) {}

int DeserializingComparator::Compare(std::string_view a,
                                     std::string_view b) const {
  WritablePtr ka = make_key_();
  WritablePtr kb = make_key_();
  DataInput ia(a);
  DataInput ib(b);
  ka->ReadFields(ia);
  kb->ReadFields(ib);
  return ka->CompareTo(*kb);
}

struct ComparatorRegistry::Impl {
  std::mutex mu;
  std::unordered_map<std::string, Factory> factories;
};

ComparatorRegistry& ComparatorRegistry::Instance() {
  static ComparatorRegistry* instance = [] {
    auto* r = new ComparatorRegistry();
    r->impl_ = new Impl();
    return r;
  }();
  return *instance;
}

void ComparatorRegistry::Register(const std::string& name, Factory f) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->factories.emplace(name, std::move(f));
}

RawComparatorPtr ComparatorRegistry::Create(const std::string& name) const {
  constexpr char kDeserializingPrefix[] = "deserializing:";
  if (name.rfind(kDeserializingPrefix, 0) == 0) {
    std::string type = name.substr(std::strlen(kDeserializingPrefix));
    M3R_CHECK(WritableRegistry::Instance().Contains(type))
        << "deserializing comparator over unknown type: " << type;
    return std::make_shared<const DeserializingComparator>(type);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->factories.find(name);
  M3R_CHECK(it != impl_->factories.end())
      << "unregistered comparator: " << name;
  return it->second();
}

bool ComparatorRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->factories.count(name) > 0;
}

M3R_REGISTER_COMPARATOR(BytesComparator)
M3R_REGISTER_COMPARATOR(PairRowComparator)

}  // namespace m3r::serialize
