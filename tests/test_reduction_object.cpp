// PSF — tests for the reduction object: hash and dense layouts, concurrent
// insertion, arena placement, key offsets, merge/serialize round trips, and
// owner-exclusive (lock-free) objects against shared ones.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "pattern/reduction_object.h"
#include "support/buffer.h"
#include "support/rng.h"

namespace psf::pattern {
namespace {

void sum_reduce(void* dst, const void* src) {
  *static_cast<double*>(dst) += *static_cast<const double*>(src);
}

void max_reduce(void* dst, const void* src) {
  auto* a = static_cast<double*>(dst);
  const auto* b = static_cast<const double*>(src);
  if (*b > *a) *a = *b;
}

TEST(ReductionObject, FirstInsertCopies) {
  ReductionObject object(ObjectLayout::kHash, 16, sizeof(double), sum_reduce);
  const double value = 2.5;
  object.insert(7, &value);
  double out = 0.0;
  ASSERT_TRUE(object.lookup(7, &out));
  EXPECT_DOUBLE_EQ(out, 2.5);
  EXPECT_EQ(object.size(), 1u);
}

TEST(ReductionObject, RepeatInsertReduces) {
  ReductionObject object(ObjectLayout::kHash, 16, sizeof(double), sum_reduce);
  for (int i = 1; i <= 4; ++i) {
    const double value = i;
    object.insert(3, &value);
  }
  double out = 0.0;
  ASSERT_TRUE(object.lookup(3, &out));
  EXPECT_DOUBLE_EQ(out, 10.0);
  EXPECT_EQ(object.size(), 1u);
}

TEST(ReductionObject, LookupMissingKey) {
  ReductionObject object(ObjectLayout::kHash, 8, sizeof(double), sum_reduce);
  double out = 0.0;
  EXPECT_FALSE(object.lookup(5, &out));
  EXPECT_EQ(object.find(5), nullptr);
}

TEST(ReductionObject, ManyKeysWithCollisions) {
  // Capacity == key count forces probe chains to wrap.
  constexpr std::size_t kKeys = 64;
  ReductionObject object(ObjectLayout::kHash, kKeys, sizeof(double),
                         sum_reduce);
  for (std::size_t k = 0; k < kKeys; ++k) {
    const double value = static_cast<double>(k);
    object.insert(k * 1000, &value);
  }
  EXPECT_EQ(object.size(), kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    double out = -1.0;
    ASSERT_TRUE(object.lookup(k * 1000, &out));
    EXPECT_DOUBLE_EQ(out, static_cast<double>(k));
  }
}

TEST(ReductionObject, TryInsertFullTable) {
  ReductionObject object(ObjectLayout::kHash, 4, sizeof(double), sum_reduce);
  const double value = 1.0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(object.try_insert(k, &value));
  }
  EXPECT_FALSE(object.try_insert(99, &value));       // new key: full
  EXPECT_TRUE(object.try_insert(2, &value));         // existing key: fine
}

TEST(ReductionObject, DenseLayoutUsesKeyAsSlot) {
  ReductionObject object(ObjectLayout::kDense, 10, sizeof(double),
                         sum_reduce);
  const double value = 4.0;
  object.insert(9, &value);
  object.insert(9, &value);
  double out = 0.0;
  ASSERT_TRUE(object.lookup(9, &out));
  EXPECT_DOUBLE_EQ(out, 8.0);
  EXPECT_FALSE(object.lookup(8, &out));
}

TEST(ReductionObject, DenseKeyOffset) {
  ReductionObject object(ObjectLayout::kDense, 8, sizeof(double), sum_reduce);
  object.set_key_offset(100);
  const double value = 1.5;
  object.insert(100, &value);
  object.insert(107, &value);
  double out = 0.0;
  ASSERT_TRUE(object.lookup(100, &out));
  EXPECT_DOUBLE_EQ(out, 1.5);
  ASSERT_TRUE(object.lookup(107, &out));
  EXPECT_FALSE(object.lookup(99, &out));   // below the window
  EXPECT_FALSE(object.lookup(108, &out));  // above the window
  // for_each must report the ORIGINAL keys.
  std::vector<std::uint64_t> keys;
  object.for_each([&](std::uint64_t key, const void*) { keys.push_back(key); });
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{100, 107}));
}

TEST(ReductionObject, UserReduceFunctionIsHonored) {
  ReductionObject object(ObjectLayout::kHash, 8, sizeof(double), max_reduce);
  for (double value : {3.0, 9.0, 1.0}) {
    object.insert(1, &value);
  }
  double out = 0.0;
  ASSERT_TRUE(object.lookup(1, &out));
  EXPECT_DOUBLE_EQ(out, 9.0);
}

TEST(ReductionObject, StructuredValues) {
  struct Accum {
    double sum;
    long count;
  };
  auto reduce = +[](void* dst, const void* src) {
    auto* a = static_cast<Accum*>(dst);
    const auto* b = static_cast<const Accum*>(src);
    a->sum += b->sum;
    a->count += b->count;
  };
  ReductionObject object(ObjectLayout::kHash, 8, sizeof(Accum), reduce);
  for (int i = 1; i <= 3; ++i) {
    Accum accum{static_cast<double>(i), 1};
    object.insert(0, &accum);
  }
  Accum out{};
  ASSERT_TRUE(object.lookup(0, &out));
  EXPECT_DOUBLE_EQ(out.sum, 6.0);
  EXPECT_EQ(out.count, 3);
}

TEST(ReductionObject, ConcurrentInsertsSameKey) {
  ReductionObject object(ObjectLayout::kHash, 8, sizeof(double), sum_reduce);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const double one = 1.0;
      for (int i = 0; i < kPerThread; ++i) object.insert(5, &one);
    });
  }
  for (auto& thread : threads) thread.join();
  double out = 0.0;
  ASSERT_TRUE(object.lookup(5, &out));
  EXPECT_DOUBLE_EQ(out, kThreads * kPerThread);
}

TEST(ReductionObject, ConcurrentInsertsManyKeys) {
  constexpr std::size_t kKeys = 128;
  ReductionObject object(ObjectLayout::kHash, kKeys * 2, sizeof(double),
                         sum_reduce);
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      support::Xoshiro256 rng(static_cast<std::uint64_t>(t));
      const double one = 1.0;
      for (int i = 0; i < 5000; ++i) {
        object.insert(rng.next_below(kKeys), &one);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double total = 0.0;
  object.for_each([&](std::uint64_t, const void* value) {
    total += *static_cast<const double*>(value);
  });
  EXPECT_DOUBLE_EQ(total, 6 * 5000.0);
}

TEST(ReductionObject, ArenaPlacement) {
  const std::size_t bytes = ReductionObject::required_bytes(16, sizeof(double));
  support::AlignedBuffer arena(bytes);
  ReductionObject object(ObjectLayout::kHash, 16, sizeof(double), sum_reduce,
                         arena.bytes());
  const double value = 5.0;
  object.insert(11, &value);
  double out = 0.0;
  ASSERT_TRUE(object.lookup(11, &out));
  EXPECT_DOUBLE_EQ(out, 5.0);
}

TEST(ReductionObject, RequiredBytesScalesWithCapacity) {
  EXPECT_GT(ReductionObject::required_bytes(64, 8),
            ReductionObject::required_bytes(32, 8));
  // keys(8) + lock(1) + value(8) per slot, plus padding
  EXPECT_GE(ReductionObject::required_bytes(10, 8), 10u * 17);
}

TEST(ReductionObject, MergeFromCombines) {
  ReductionObject a(ObjectLayout::kHash, 16, sizeof(double), sum_reduce);
  ReductionObject b(ObjectLayout::kHash, 16, sizeof(double), sum_reduce);
  const double one = 1.0;
  const double two = 2.0;
  a.insert(1, &one);
  a.insert(2, &one);
  b.insert(2, &two);
  b.insert(3, &two);
  a.merge_from(b);
  double out = 0.0;
  ASSERT_TRUE(a.lookup(2, &out));
  EXPECT_DOUBLE_EQ(out, 3.0);
  EXPECT_EQ(a.size(), 3u);
}

TEST(ReductionObject, MergeDenseIntoHash) {
  ReductionObject dense(ObjectLayout::kDense, 8, sizeof(double), sum_reduce);
  dense.set_key_offset(4);
  ReductionObject hash(ObjectLayout::kHash, 32, sizeof(double), sum_reduce);
  const double v = 7.0;
  dense.insert(6, &v);
  hash.merge_from(dense);
  double out = 0.0;
  ASSERT_TRUE(hash.lookup(6, &out));
  EXPECT_DOUBLE_EQ(out, 7.0);
}

TEST(ReductionObject, SerializeRoundTrip) {
  ReductionObject object(ObjectLayout::kHash, 32, sizeof(double), sum_reduce);
  std::map<std::uint64_t, double> expected;
  support::Xoshiro256 rng(17);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t key = rng.next_below(1000);
    const double value = rng.next_double();
    object.insert(key, &value);
    expected[key] += value;
  }
  const auto blob = object.serialize();
  ReductionObject copy(ObjectLayout::kHash, 32, sizeof(double), sum_reduce);
  copy.merge_serialized(blob);
  EXPECT_EQ(copy.size(), expected.size());
  for (const auto& [key, value] : expected) {
    double out = 0.0;
    ASSERT_TRUE(copy.lookup(key, &out));
    EXPECT_NEAR(out, value, 1e-12);
  }
}

TEST(ReductionObject, SerializeEmpty) {
  ReductionObject object(ObjectLayout::kHash, 8, sizeof(double), sum_reduce);
  const auto blob = object.serialize();
  EXPECT_EQ(blob.size(), sizeof(std::uint64_t));
  ReductionObject copy(ObjectLayout::kHash, 8, sizeof(double), sum_reduce);
  copy.merge_serialized(blob);
  EXPECT_EQ(copy.size(), 0u);
}

TEST(ReductionObject, ClearEmpties) {
  ReductionObject object(ObjectLayout::kHash, 8, sizeof(double), sum_reduce);
  const double value = 1.0;
  object.insert(1, &value);
  object.clear();
  EXPECT_EQ(object.size(), 0u);
  double out = 0.0;
  EXPECT_FALSE(object.lookup(1, &out));
}

/// One seeded insert sequence (keys below `keys`, doubles in [0, 1)) into
/// `object`; the sums are order-sensitive, so equal bytes mean equal order.
void insert_sequence(ReductionObject& object, std::uint64_t keys,
                     std::uint64_t key_offset, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  for (int i = 0; i < 4000; ++i) {
    const double value = rng.next_double();
    object.insert(key_offset + rng.next_below(keys), &value);
  }
}

TEST(ReductionObject, ExclusiveAndSharedSerializeIdentically) {
  for (const auto layout : {ObjectLayout::kHash, ObjectLayout::kDense}) {
    const std::uint64_t offset = layout == ObjectLayout::kDense ? 100 : 0;
    ReductionObject shared(layout, 256, sizeof(double), sum_reduce);
    ReductionObject exclusive(layout, 256, sizeof(double), sum_reduce,
                              Sharing::kExclusive);
    if (layout == ObjectLayout::kDense) {
      shared.set_key_offset(offset);
      exclusive.set_key_offset(offset);
    }
    EXPECT_EQ(shared.sharing(), Sharing::kShared);
    EXPECT_EQ(exclusive.sharing(), Sharing::kExclusive);
    insert_sequence(shared, 200, offset, 31);
    insert_sequence(exclusive, 200, offset, 31);
    EXPECT_EQ(shared.serialize(), exclusive.serialize());

    // Arena placement keeps the layout of an owned object of either kind.
    support::AlignedBuffer arena(
        ReductionObject::required_bytes(256, sizeof(double)));
    ReductionObject placed(layout, 256, sizeof(double), sum_reduce,
                           arena.bytes(), Sharing::kExclusive);
    if (layout == ObjectLayout::kDense) placed.set_key_offset(offset);
    insert_sequence(placed, 200, offset, 31);
    EXPECT_EQ(shared.serialize(), placed.serialize());
  }
}

TEST(ReductionObject, MergeExclusiveIntoShared) {
  // Per-block exclusive objects merged into a shared result give the bytes
  // of the same merges between shared objects.
  ReductionObject via_exclusive(ObjectLayout::kHash, 128, sizeof(double),
                                sum_reduce);
  ReductionObject via_shared(ObjectLayout::kHash, 128, sizeof(double),
                             sum_reduce);
  for (std::uint64_t block = 0; block < 4; ++block) {
    ReductionObject exclusive(ObjectLayout::kHash, 128, sizeof(double),
                              sum_reduce, Sharing::kExclusive);
    ReductionObject shared(ObjectLayout::kHash, 128, sizeof(double),
                           sum_reduce);
    insert_sequence(exclusive, 90, 0, 50 + block);
    insert_sequence(shared, 90, 0, 50 + block);
    via_exclusive.merge_from(exclusive);
    via_shared.merge_from(shared);
  }
  EXPECT_EQ(via_exclusive.serialize(), via_shared.serialize());
  EXPECT_EQ(via_exclusive.size(), 90u);
}

TEST(ReductionObject, ClearedObjectMatchesFreshOne) {
  // Runtimes reuse their private objects across passes: clear() must leave
  // nothing a later insert sequence can observe.
  for (const auto layout : {ObjectLayout::kHash, ObjectLayout::kDense}) {
    ReductionObject reused(layout, 64, sizeof(double), sum_reduce,
                           Sharing::kExclusive);
    insert_sequence(reused, 64, 0, 7);
    reused.clear();
    insert_sequence(reused, 40, 0, 8);
    ReductionObject fresh(layout, 64, sizeof(double), sum_reduce,
                          Sharing::kExclusive);
    insert_sequence(fresh, 40, 0, 8);
    EXPECT_EQ(reused.serialize(), fresh.serialize());
  }
}

}  // namespace
}  // namespace psf::pattern
