#ifndef M3R_SERIALIZE_COMPARATORS_H_
#define M3R_SERIALIZE_COMPARATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "serialize/writable.h"

namespace m3r::serialize {

/// Compares two serialized key byte ranges without deserializing, Hadoop's
/// RawComparator. Engines sort map output with this, so sort order is a
/// property of the *bytes*, exactly as in Hadoop's out-of-core sort.
class RawComparator {
 public:
  virtual ~RawComparator() = default;
  /// Returns <0, 0, >0 for a<b, a==b, a>b.
  virtual int Compare(std::string_view a, std::string_view b) const = 0;
  /// Registry name of this comparator.
  virtual const char* Name() const = 0;
};

using RawComparatorPtr = std::shared_ptr<const RawComparator>;

/// Lexicographic byte comparison — correct for Text and the sign-flipped
/// big-endian numeric Writables; the default sort comparator.
class BytesComparator : public RawComparator {
 public:
  static constexpr const char* kName = "BytesComparator";
  int Compare(std::string_view a, std::string_view b) const override {
    int c = a.compare(b);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const char* Name() const override { return kName; }
};

/// Deserializes both sides into `prototype`-typed objects and delegates to
/// Writable::CompareTo. Used when a user key type has a CompareTo that is
/// not byte-order-compatible.
class DeserializingComparator : public RawComparator {
 public:
  static constexpr const char* kName = "DeserializingComparator";
  /// Resolves the key type's factory here, once; aborts if it is unknown.
  explicit DeserializingComparator(const std::string& key_type);
  int Compare(std::string_view a, std::string_view b) const override;
  const char* Name() const override { return kName; }

 private:
  std::function<WritablePtr()> make_key_;
};

/// Compares only the first (row) component of a serialized PairIntWritable
/// key. As a grouping comparator it gives Hadoop's secondary-sort idiom:
/// sort by (row, col), group by row — values arrive at the reducer ordered
/// by col.
class PairRowComparator : public RawComparator {
 public:
  static constexpr const char* kName = "PairRowComparator";
  int Compare(std::string_view a, std::string_view b) const override {
    int c = a.substr(0, 4).compare(b.substr(0, 4));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const char* Name() const override { return kName; }
};

/// Global name -> comparator factory map, so job configurations can select
/// sort/grouping comparators by class name as in Hadoop.
///
/// Names of the form "deserializing:<WritableType>" are resolved
/// implicitly to a DeserializingComparator over that type — for key types
/// (e.g. VLongWritable) whose byte order differs from their CompareTo
/// order.
class ComparatorRegistry {
 public:
  using Factory = std::function<RawComparatorPtr()>;
  static ComparatorRegistry& Instance();
  void Register(const std::string& name, Factory f);
  /// Aborts on unknown name.
  RawComparatorPtr Create(const std::string& name) const;
  bool Contains(const std::string& name) const;

 private:
  ComparatorRegistry() = default;
  struct Impl;
  Impl* impl_;
};

#define M3R_REGISTER_COMPARATOR(Type)                                   \
  namespace {                                                           \
  const bool m3r_cmp_registered_##Type = [] {                           \
    ::m3r::serialize::ComparatorRegistry::Instance().Register(          \
        Type::kName, [] { return std::make_shared<const Type>(); });    \
    return true;                                                        \
  }();                                                                  \
  }

}  // namespace m3r::serialize

#endif  // M3R_SERIALIZE_COMPARATORS_H_
