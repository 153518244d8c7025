#ifndef M3R_SERIALIZE_REGISTRY_H_
#define M3R_SERIALIZE_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "serialize/writable.h"

namespace m3r::serialize {

/// Global name -> factory map for Writable types, the analogue of Hadoop
/// resolving key/value classes by name from the job configuration.
///
/// Registration is typically done at static-initialization time via
/// M3R_REGISTER_WRITABLE; the registry itself is a leaked function-local
/// singleton so it is safe to use from other static initializers.
class WritableRegistry {
 public:
  using Factory = std::function<WritablePtr()>;

  static WritableRegistry& Instance();

  /// Registers `factory` under `name`. Re-registering the same name is
  /// idempotent (the first factory wins), which keeps duplicate static
  /// registrations across translation units harmless.
  void Register(const std::string& name, Factory factory);

  /// Looks up the factory for `name` once, so per-record decode paths
  /// build objects without touching the registry lock again. Aborts if
  /// `name` is unknown (an unknown key or value class in a job
  /// configuration is a programming error). Registrations are never
  /// removed, so the returned factory stays valid for the process lifetime.
  Factory Resolve(const std::string& name) const;

  /// Creates a fresh instance: `Resolve(name)()`.
  WritablePtr Create(const std::string& name) const { return Resolve(name)(); }

  bool Contains(const std::string& name) const;

  /// All registered type names (sorted). Used by round-trip property tests
  /// to exercise every Writable in the binary.
  std::vector<std::string> Names() const;

 private:
  WritableRegistry() = default;
  struct Impl;
  Impl* impl_;
};

/// Registers `Type` (default-constructible WritableBase subclass) under its
/// kTypeName at program start.
#define M3R_REGISTER_WRITABLE(Type)                                         \
  namespace {                                                               \
  const bool m3r_registered_##Type = [] {                                   \
    ::m3r::serialize::WritableRegistry::Instance().Register(               \
        Type::kTypeName, [] { return std::make_shared<Type>(); });          \
    return true;                                                            \
  }();                                                                      \
  }

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_REGISTRY_H_
