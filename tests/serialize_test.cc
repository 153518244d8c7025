#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serialize/basic_writables.h"
#include "serialize/comparators.h"
#include "serialize/dedup.h"
#include "serialize/io.h"
#include "serialize/registry.h"

namespace m3r::serialize {
namespace {

TEST(DataIoTest, PrimitivesRoundTrip) {
  DataOutput out;
  out.WriteByte(0xab);
  out.WriteBool(true);
  out.WriteU16(0x1234);
  out.WriteI32(-5);
  out.WriteI64(-1234567890123ll);
  out.WriteFloat(1.5f);
  out.WriteDouble(-2.25);
  out.WriteVarU64(300);
  out.WriteVarI64(-300);
  out.WriteString("hello");

  DataInput in(out.buffer());
  EXPECT_EQ(in.ReadByte(), 0xab);
  EXPECT_TRUE(in.ReadBool());
  EXPECT_EQ(in.ReadU16(), 0x1234);
  EXPECT_EQ(in.ReadI32(), -5);
  EXPECT_EQ(in.ReadI64(), -1234567890123ll);
  EXPECT_EQ(in.ReadFloat(), 1.5f);
  EXPECT_EQ(in.ReadDouble(), -2.25);
  EXPECT_EQ(in.ReadVarU64(), 300u);
  EXPECT_EQ(in.ReadVarI64(), -300);
  EXPECT_EQ(in.ReadString(), "hello");
  EXPECT_TRUE(in.AtEnd());
}

TEST(DataIoTest, VarintBoundaries) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     ~0ull, 1ull << 63}) {
    DataOutput out;
    out.WriteVarU64(v);
    DataInput in(out.buffer());
    EXPECT_EQ(in.ReadVarU64(), v);
  }
}

TEST(WritableTest, IntOrderMatchesByteOrder) {
  // The sign-flipped big-endian encoding must sort like the integers.
  BytesComparator cmp;
  for (int32_t a : {-100, -1, 0, 1, 99, 1 << 30, -(1 << 30)}) {
    for (int32_t b : {-100, -1, 0, 1, 99, 1 << 30, -(1 << 30)}) {
      IntWritable wa(a);
      IntWritable wb(b);
      int byte_cmp = cmp.Compare(SerializeToString(wa), SerializeToString(wb));
      int num_cmp = a < b ? -1 : (a > b ? 1 : 0);
      EXPECT_EQ(byte_cmp, num_cmp) << a << " vs " << b;
    }
  }
}

TEST(WritableTest, RoundTripBasicTypes) {
  Text t("hello world");
  auto t2 = t.Clone();
  EXPECT_EQ(t2->ToString(), "hello world");
  EXPECT_TRUE(t.Equals(*t2));

  DoubleArrayWritable arr({1.0, -2.5, 3.75});
  auto arr2 = std::static_pointer_cast<DoubleArrayWritable>(arr.Clone());
  EXPECT_EQ(arr2->Get(), arr.Get());

  PairIntWritable p(3, -4);
  auto p2 = std::static_pointer_cast<PairIntWritable>(p.Clone());
  EXPECT_EQ(p2->Row(), 3);
  EXPECT_EQ(p2->Col(), -4);
}

TEST(WritableTest, PairOrdering) {
  PairIntWritable a(1, 2);
  PairIntWritable b(1, 3);
  PairIntWritable c(2, 0);
  EXPECT_LT(a.CompareTo(b), 0);
  EXPECT_LT(b.CompareTo(c), 0);
  EXPECT_EQ(a.CompareTo(a), 0);
  // Byte order agrees with CompareTo.
  BytesComparator cmp;
  EXPECT_LT(cmp.Compare(SerializeToString(a), SerializeToString(b)), 0);
  EXPECT_LT(cmp.Compare(SerializeToString(b), SerializeToString(c)), 0);
}

TEST(RegistryTest, CreatesRegisteredTypes) {
  auto& reg = WritableRegistry::Instance();
  for (const char* name :
       {"IntWritable", "LongWritable", "Text", "BytesWritable",
        "DoubleWritable", "NullWritable", "DoubleArrayWritable",
        "PairIntWritable", "GenericWritable"}) {
    ASSERT_TRUE(reg.Contains(name)) << name;
    auto w = reg.Create(name);
    EXPECT_STREQ(w->TypeName(), name);
  }
}

TEST(GenericWritableTest, WrapsAndRestoresDynamicType) {
  GenericWritable g(std::make_shared<Text>("abc"));
  std::string bytes = SerializeToString(g);
  GenericWritable g2;
  DeserializeFromString(bytes, &g2);
  auto* inner = dynamic_cast<Text*>(g2.Get().get());
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->Get(), "abc");
}

TEST(DedupTest, FullModeDeduplicatesRepeats) {
  auto shared = std::make_shared<Text>("payload");
  DedupOutputStream out(DedupMode::kFull);
  out.WriteObject(shared);
  out.WriteObject(std::make_shared<Text>("other"));
  out.WriteObject(shared);
  out.WriteObject(shared);
  EXPECT_EQ(out.objects_written(), 4u);
  EXPECT_EQ(out.objects_deduped(), 2u);
  EXPECT_GT(out.bytes_saved(), 0u);

  const std::string frame = out.TakeBuffer();
  DedupInputStream in(frame);
  auto a = in.ReadObject();
  auto b = in.ReadObject();
  auto c = in.ReadObject();
  auto d = in.ReadObject();
  EXPECT_TRUE(in.AtEnd());
  // Repeats come back as aliases of one copy (paper §3.2.2.3).
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(c.get(), d.get());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->ToString(), "payload");
  EXPECT_EQ(b->ToString(), "other");
}

TEST(DedupTest, OffModeNeverDeduplicates) {
  auto shared = std::make_shared<Text>("x");
  DedupOutputStream out(DedupMode::kOff);
  out.WriteObject(shared);
  out.WriteObject(shared);
  EXPECT_EQ(out.objects_deduped(), 0u);
  const std::string frame = out.TakeBuffer();
  DedupInputStream in(frame);
  auto a = in.ReadObject();
  auto b = in.ReadObject();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(DedupTest, ConsecutiveModeSeesOnlyAPairWindow) {
  auto shared = std::make_shared<Text>("x");
  DedupOutputStream out(DedupMode::kConsecutive);
  out.WriteObject(shared);
  out.WriteObject(shared);  // deduped: within the look-back window
  // Push five distinct objects through to evict `shared` from the window.
  for (int i = 0; i < 5; ++i) {
    out.WriteObject(std::make_shared<Text>("filler" + std::to_string(i)));
  }
  out.WriteObject(shared);  // NOT deduped: outside the window
  EXPECT_EQ(out.objects_deduped(), 1u);

  const std::string frame = out.TakeBuffer();
  DedupInputStream in(frame);
  auto a = in.ReadObject();
  auto b = in.ReadObject();
  for (int i = 0; i < 5; ++i) in.ReadObject();
  auto c = in.ReadObject();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->ToString(), "x");
}

TEST(DedupTest, ConsecutiveModeCatchesBroadcastPairIdiom) {
  // The §6.3 idiom: a loop emits (fresh key, same value) pairs. On the
  // wire that is k0,v,k1,v,... — the value repeats two objects apart and
  // must still be de-duplicated.
  auto value = std::make_shared<Text>(std::string(256, 'v'));
  DedupOutputStream out(DedupMode::kConsecutive);
  for (int i = 0; i < 8; ++i) {
    out.WriteObject(std::make_shared<IntWritable>(i));
    out.WriteObject(value);
  }
  EXPECT_EQ(out.objects_deduped(), 7u);
}

TEST(DedupTest, ControlVarintsInterleave) {
  DedupOutputStream out(DedupMode::kFull);
  out.WriteControl(7);
  out.WriteObject(std::make_shared<IntWritable>(1));
  out.WriteControl(9);
  out.WriteObject(std::make_shared<IntWritable>(2));
  const std::string frame = out.TakeBuffer();
  DedupInputStream in(frame);
  EXPECT_EQ(in.ReadControl(), 7u);
  EXPECT_EQ(static_cast<IntWritable&>(*in.ReadObject()).Get(), 1);
  EXPECT_EQ(in.ReadControl(), 9u);
  EXPECT_EQ(static_cast<IntWritable&>(*in.ReadObject()).Get(), 2);
  EXPECT_TRUE(in.AtEnd());
}

/// One object of every registered basic type, in a fixed order.
std::vector<WritablePtr> OneOfEachBasicType(int salt) {
  return {std::make_shared<NullWritable>(),
          std::make_shared<BooleanWritable>(salt % 2 == 0),
          std::make_shared<IntWritable>(-7 * salt),
          std::make_shared<LongWritable>(int64_t{1} << (salt % 40)),
          std::make_shared<DoubleWritable>(salt + 0.25),
          std::make_shared<Text>("text-" + std::to_string(salt)),
          std::make_shared<BytesWritable>(std::string(salt % 5, '\x01')),
          std::make_shared<DoubleArrayWritable>(
              std::vector<double>(static_cast<size_t>(salt % 4), -1.5)),
          std::make_shared<PairIntWritable>(salt, -salt),
          std::make_shared<GenericWritable>(
              std::make_shared<Text>("inner-" + std::to_string(salt)))};
}

TEST(DedupTest, SpansEqualReserializedObjectsInEveryMode) {
  // A frame mixing every basic type, a control varint before each object,
  // and repeats of earlier objects (back-references under kFull, and
  // under kConsecutive when the repeat is inside the window).
  for (DedupMode mode :
       {DedupMode::kFull, DedupMode::kOff, DedupMode::kConsecutive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    std::vector<WritablePtr> written;
    DedupOutputStream out(mode);
    std::vector<WritablePtr> early = OneOfEachBasicType(0);
    for (int round = 0; round < 3; ++round) {
      for (const WritablePtr& obj : OneOfEachBasicType(round + 1)) {
        written.push_back(obj);
        written.push_back(obj);  // adjacent repeat: inside every window
        written.push_back(early[written.size() % early.size()]);
      }
    }
    for (size_t i = 0; i < written.size(); ++i) {
      out.WriteControl(i * 37);
      out.WriteObject(written[i]);
    }
    if (mode == DedupMode::kOff) {
      EXPECT_EQ(out.objects_deduped(), 0u);
    } else {
      EXPECT_GT(out.objects_deduped(), 0u);
    }
    const std::string frame = out.TakeBuffer();

    DedupInputStream objects(frame);
    DedupInputStream spans(frame);
    for (size_t i = 0; i < written.size(); ++i) {
      ASSERT_EQ(objects.ReadControl(), i * 37);
      ASSERT_EQ(spans.ReadControl(), i * 37);
      WritablePtr obj = objects.ReadObject();
      uint32_t type_id = 0;
      std::string_view span = spans.ReadObjectBytes(&type_id);
      EXPECT_EQ(span, SerializeToString(*obj)) << "object " << i;
      EXPECT_EQ(span, SerializeToString(*written[i])) << "object " << i;
      EXPECT_EQ(spans.TypeNameOf(type_id), obj->TypeName());
      // Spans are slices of the caller's frame, never copies.
      EXPECT_GE(span.data(), frame.data());
      EXPECT_LE(span.data() + span.size(), frame.data() + frame.size());
    }
    EXPECT_TRUE(objects.AtEnd());
    EXPECT_TRUE(spans.AtEnd());
  }
}

TEST(DedupTest, ResetStreamWritesAFreshStreamsBytes) {
  // A lane reuses one stream across early flushes. After Reset, the next
  // frame must be what a fresh stream writes: objects and types from the
  // earlier frame are new again (frames decode independently), and the
  // tallies restart, though the kFull table kept its grown capacity.
  for (DedupMode mode :
       {DedupMode::kFull, DedupMode::kOff, DedupMode::kConsecutive}) {
    SCOPED_TRACE(static_cast<int>(mode));
    std::vector<WritablePtr> first;
    for (int i = 0; i < 500; ++i) {  // grows the kFull table several times
      for (const WritablePtr& obj : OneOfEachBasicType(i)) {
        first.push_back(obj);
      }
    }
    std::vector<WritablePtr> second;
    for (size_t i = 0; i < 40; ++i) {
      second.push_back(first[i * 7]);  // seen before the reset
      second.push_back(second.back());  // an adjacent repeat
      second.push_back(std::make_shared<LongWritable>(static_cast<int64_t>(i)));
    }
    auto write = [](DedupOutputStream& out,
                    const std::vector<WritablePtr>& objs) {
      for (size_t i = 0; i < objs.size(); ++i) {
        out.WriteControl(i);
        out.WriteObject(objs[i]);
      }
    };

    DedupOutputStream reused(mode);
    write(reused, first);
    EXPECT_FALSE(reused.TakeBuffer().empty());
    reused.Reset(std::string(4096, 'x'));  // a recycled, dirty buffer
    EXPECT_TRUE(reused.buffer().empty());
    write(reused, second);

    DedupOutputStream fresh(mode);
    write(fresh, second);
    EXPECT_EQ(reused.buffer(), fresh.buffer());
    EXPECT_EQ(reused.objects_written(), fresh.objects_written());
    EXPECT_EQ(reused.objects_deduped(), fresh.objects_deduped());
    EXPECT_EQ(reused.bytes_saved(), fresh.bytes_saved());
    if (mode != DedupMode::kOff) {
      EXPECT_GT(fresh.objects_deduped(), 0u);
    }

    // The reset frame decodes on its own.
    const std::string frame = reused.TakeBuffer();
    DedupInputStream in(frame);
    for (size_t i = 0; i < second.size(); ++i) {
      ASSERT_EQ(in.ReadControl(), i);
      EXPECT_EQ(SerializeToString(*in.ReadObject()),
                SerializeToString(*second[i]));
    }
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(DedupTest, FullModeTableGrowsPastTenThousandObjects) {
  // 12,000 distinct objects, each third one followed by a repeat of one of
  // the first hundred: the identity table must grow many times and still
  // find the early objects.
  constexpr int kDistinct = 12000;
  std::vector<WritablePtr> distinct;
  std::vector<WritablePtr> written;
  for (int i = 0; i < kDistinct; ++i) {
    distinct.push_back(std::make_shared<LongWritable>(i));
    written.push_back(distinct.back());
    if (i % 3 == 2) written.push_back(distinct[static_cast<size_t>(i % 100)]);
  }
  DedupOutputStream out(DedupMode::kFull);
  for (const WritablePtr& obj : written) out.WriteObject(obj);
  const uint64_t repeats = written.size() - kDistinct;
  EXPECT_EQ(out.objects_written(), written.size());
  EXPECT_EQ(out.objects_deduped(), repeats);
  EXPECT_EQ(out.bytes_saved(), repeats * LongWritable().SerializedSize());
  const std::string frame = out.TakeBuffer();

  DedupInputStream objects(frame);
  DedupInputStream spans(frame);
  std::vector<const Writable*> first_copy(kDistinct, nullptr);
  for (const WritablePtr& obj : written) {
    const int64_t v = static_cast<LongWritable&>(*obj).Get();
    WritablePtr read = objects.ReadObject();
    ASSERT_EQ(static_cast<LongWritable&>(*read).Get(), v);
    // Every repeat aliases the first copy decoded.
    const Writable*& first = first_copy[static_cast<size_t>(v)];
    if (first == nullptr) first = read.get();
    EXPECT_EQ(read.get(), first);
    uint32_t type_id = 0;
    EXPECT_EQ(spans.ReadObjectBytes(&type_id), SerializeToString(*obj));
  }
  EXPECT_TRUE(objects.AtEnd());
  EXPECT_TRUE(spans.AtEnd());
}

TEST(DedupDeathTest, OneStreamIsReadOneWayOnly) {
  DedupOutputStream out(DedupMode::kFull);
  out.WriteObject(std::make_shared<IntWritable>(1));
  out.WriteObject(std::make_shared<IntWritable>(2));
  const std::string frame = out.TakeBuffer();
  EXPECT_DEATH(
      {
        DedupInputStream in(frame);
        in.ReadObject();
        uint32_t type_id;
        in.ReadObjectBytes(&type_id);
      },
      "objects or as spans");
  EXPECT_DEATH(
      {
        DedupInputStream in(frame);
        uint32_t type_id;
        in.ReadObjectBytes(&type_id);
        in.ReadObject();
      },
      "objects or as spans");
}

TEST(ComparatorTest, RegistryAndDeserializing) {
  auto& reg = ComparatorRegistry::Instance();
  ASSERT_TRUE(reg.Contains(BytesComparator::kName));
  auto cmp = reg.Create(BytesComparator::kName);
  EXPECT_LT(cmp->Compare("a", "b"), 0);
  EXPECT_EQ(cmp->Compare("a", "a"), 0);

  DeserializingComparator dcmp("IntWritable");
  IntWritable a(-5);
  IntWritable b(3);
  EXPECT_LT(dcmp.Compare(SerializeToString(a), SerializeToString(b)), 0);
}

}  // namespace
}  // namespace m3r::serialize

namespace m3r::serialize {
namespace {

/// Round-trip property over EVERY registered Writable type in the binary:
/// default instance -> bytes -> fresh instance -> identical bytes.
TEST(RegistryPropertyTest, AllRegisteredTypesRoundTripDefaults) {
  auto names = WritableRegistry::Instance().Names();
  ASSERT_GT(names.size(), 10u);
  for (const std::string& name : names) {
    if (name == "GenericWritable") continue;  // needs a payload to write
    auto original = WritableRegistry::Instance().Create(name);
    std::string bytes = SerializeToString(*original);
    auto restored = WritableRegistry::Instance().Create(name);
    DeserializeFromString(bytes, restored.get());
    EXPECT_EQ(SerializeToString(*restored), bytes) << name;
    EXPECT_STREQ(restored->TypeName(), name.c_str()) << name;
    // Clone agrees with the serialize round-trip.
    EXPECT_EQ(SerializeToString(*original->Clone()), bytes) << name;
  }
}

/// Decode paths resolve a factory once and call it per record from many
/// task threads, while other threads still look types up by name or
/// re-register them (a no-op: the first factory wins). Run under
/// ThreadSanitizer by `make check-sanitize`.
TEST(RegistryConcurrencyTest, ResolveAndCreateFromEightThreads) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      WritableRegistry& reg = WritableRegistry::Instance();
      const WritableRegistry::Factory make_text = reg.Resolve("Text");
      const WritableRegistry::Factory make_int = reg.Resolve("IntWritable");
      for (int i = 0; i < kRounds; ++i) {
        reg.Register("IntWritable", [] { return std::make_shared<Text>(); });
        auto text = make_text();
        auto by_name = reg.Create("IntWritable");
        auto resolved = make_int();
        DeserializeFromString(SerializeToString(IntWritable(t * i)),
                              resolved.get());
        if (std::string(text->TypeName()) != "Text" ||
            std::string(by_name->TypeName()) != "IntWritable" ||
            static_cast<IntWritable&>(*resolved).Get() != t * i) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(RegistryConcurrencyTest, ResolveAbortsOnUnknownTypeLikeCreate) {
  EXPECT_DEATH(WritableRegistry::Instance().Resolve("NoSuchWritable"),
               "unregistered Writable type: NoSuchWritable");
  EXPECT_DEATH(WritableRegistry::Instance().Create("NoSuchWritable"),
               "unregistered Writable type: NoSuchWritable");
}

}  // namespace
}  // namespace m3r::serialize
