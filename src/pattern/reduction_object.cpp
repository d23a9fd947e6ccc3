#include "pattern/reduction_object.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "support/metrics.h"

namespace psf::pattern {

namespace {
constexpr std::int64_t kEmpty = -1;

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}
}  // namespace

std::size_t ReductionObject::required_bytes(std::size_t capacity,
                                            std::size_t value_size) {
  const std::size_t keys_bytes = capacity * sizeof(std::int64_t);
  const std::size_t locks_bytes = capacity;
  return align_up(keys_bytes + locks_bytes, 8) + capacity * value_size;
}

ReductionObject::ReductionObject(ObjectLayout layout, std::size_t capacity,
                                 std::size_t value_size, ReduceFn reduce,
                                 Sharing sharing)
    : layout_(layout),
      capacity_(capacity),
      value_size_(value_size),
      reduce_(reduce),
      sharing_(sharing) {
  PSF_CHECK_MSG(capacity > 0, "reduction object needs capacity");
  PSF_CHECK_MSG(value_size > 0, "reduction object needs a value size");
  PSF_CHECK_MSG(reduce != nullptr, "reduction object needs a reduce function");
  owned_.resize(required_bytes(capacity, value_size));
  bind(owned_.bytes());
}

ReductionObject::ReductionObject(ObjectLayout layout, std::size_t capacity,
                                 std::size_t value_size, ReduceFn reduce,
                                 std::span<std::byte> arena, Sharing sharing)
    : layout_(layout),
      capacity_(capacity),
      value_size_(value_size),
      reduce_(reduce),
      sharing_(sharing) {
  PSF_CHECK_MSG(capacity > 0, "reduction object needs capacity");
  PSF_CHECK_MSG(reduce != nullptr, "reduction object needs a reduce function");
  PSF_CHECK_MSG(arena.size() >= required_bytes(capacity, value_size),
                "arena too small: " << arena.size() << " < "
                                    << required_bytes(capacity, value_size));
  bind(arena);
}

void ReductionObject::bind(std::span<std::byte> storage) {
  base_ = storage.data();
  values_offset_ =
      align_up(capacity_ * sizeof(std::int64_t) + capacity_, 8);
  clear();
}

void ReductionObject::clear() {
  std::fill_n(keys(), capacity_, kEmpty);
  std::memset(locks(), 0, capacity_);
}

std::uint64_t ReductionObject::hash_key(std::uint64_t key) noexcept {
  // splitmix64 finalizer — strong enough to avoid clustering for dense ids.
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

void ReductionObject::lock_slot(std::size_t slot) const noexcept {
  std::atomic_ref<std::uint8_t> lock(locks()[slot]);
  for (;;) {
    std::uint8_t expected = 0;
    if (lock.compare_exchange_weak(expected, 1, std::memory_order_acquire)) {
      return;
    }
    while (lock.load(std::memory_order_relaxed) != 0) {
      std::this_thread::yield();
    }
  }
}

void ReductionObject::unlock_slot(std::size_t slot) const noexcept {
  std::atomic_ref<std::uint8_t> lock(locks()[slot]);
  lock.store(0, std::memory_order_release);
}

template <bool kLocked>
bool ReductionObject::insert_slots(std::uint64_t key, const void* value) {
  if (layout_ == ObjectLayout::kDense) {
    PSF_CHECK_MSG(key >= key_offset_ && key - key_offset_ < capacity_,
                  "dense key " << key << " outside [" << key_offset_ << ", "
                               << key_offset_ + capacity_ << ")");
    const std::size_t slot = static_cast<std::size_t>(key - key_offset_);
    if constexpr (kLocked) lock_slot(slot);
    if (keys()[slot] == kEmpty) {
      keys()[slot] = static_cast<std::int64_t>(key);
      std::memcpy(value_at(slot), value, value_size_);
    } else {
      reduce_(value_at(slot), value);
    }
    if constexpr (kLocked) unlock_slot(slot);
    return true;
  }

  // Hash layout: linear probing over at most `capacity_` slots.
  std::size_t slot = static_cast<std::size_t>(hash_key(key) % capacity_);
  for (std::size_t probes = 0; probes < capacity_; ++probes) {
    if constexpr (kLocked) lock_slot(slot);
    const std::int64_t stored = keys()[slot];
    if (stored == kEmpty) {
      keys()[slot] = static_cast<std::int64_t>(key);
      std::memcpy(value_at(slot), value, value_size_);
      if constexpr (kLocked) unlock_slot(slot);
      return true;
    }
    if (stored == static_cast<std::int64_t>(key)) {
      reduce_(value_at(slot), value);
      if constexpr (kLocked) unlock_slot(slot);
      return true;
    }
    if constexpr (kLocked) unlock_slot(slot);
    slot = slot + 1 == capacity_ ? 0 : slot + 1;
  }
  return false;  // table full
}

bool ReductionObject::insert_impl(std::uint64_t key, const void* value) {
  PSF_CHECK_MSG(key <= static_cast<std::uint64_t>(INT64_MAX),
                "keys must fit in 63 bits");
  return sharing_ == Sharing::kShared ? insert_slots<true>(key, value)
                                      : insert_slots<false>(key, value);
}

void ReductionObject::insert(std::uint64_t key, const void* value) {
  PSF_CHECK_MSG(insert_impl(key, value),
                "reduction object overflow (capacity " << capacity_
                                                       << "); size it for the"
                                                          " key universe");
}

bool ReductionObject::try_insert(std::uint64_t key, const void* value) {
  return insert_impl(key, value);
}

const void* ReductionObject::find(std::uint64_t key) const {
  if (layout_ == ObjectLayout::kDense) {
    if (key < key_offset_ || key - key_offset_ >= capacity_) return nullptr;
    const std::size_t slot = static_cast<std::size_t>(key - key_offset_);
    return keys()[slot] == kEmpty ? nullptr : value_at(slot);
  }
  std::size_t slot = static_cast<std::size_t>(hash_key(key) % capacity_);
  for (std::size_t probes = 0; probes < capacity_; ++probes) {
    const std::int64_t stored = keys()[slot];
    if (stored == kEmpty) return nullptr;
    if (stored == static_cast<std::int64_t>(key)) return value_at(slot);
    slot = slot + 1 == capacity_ ? 0 : slot + 1;
  }
  return nullptr;
}

bool ReductionObject::lookup(std::uint64_t key, void* out) const {
  const void* value = find(key);
  if (value == nullptr) return false;
  std::memcpy(out, value, value_size_);
  return true;
}

std::size_t ReductionObject::size() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (keys()[i] != kEmpty) ++count;
  }
  return count;
}

void ReductionObject::for_each(
    const std::function<void(std::uint64_t, const void*)>& visit) const {
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (keys()[i] != kEmpty) {
      visit(static_cast<std::uint64_t>(keys()[i]), value_at(i));
    }
  }
}

void ReductionObject::merge_from(const ReductionObject& other) {
  PSF_CHECK_MSG(other.value_size_ == value_size_,
                "merging reduction objects of different value sizes");
  PSF_METRIC_ADD("pattern.gr.object_merges", 1);
  const std::int64_t* other_keys = other.keys();
  for (std::size_t i = 0; i < other.capacity_; ++i) {
    if (other_keys[i] != kEmpty) {
      insert(static_cast<std::uint64_t>(other_keys[i]), other.value_at(i));
    }
  }
}

std::vector<std::byte> ReductionObject::serialize() const {
  std::vector<std::byte> blob(serialized_size());
  serialize_into(blob);
  return blob;
}

std::size_t ReductionObject::serialized_size() const {
  const std::size_t entry = sizeof(std::uint64_t) + value_size_;
  return sizeof(std::uint64_t) + size() * entry;
}

void ReductionObject::serialize_into(std::span<std::byte> out) const {
  const std::size_t count = size();
  const std::size_t entry = sizeof(std::uint64_t) + value_size_;
  PSF_CHECK_MSG(out.size() == sizeof(std::uint64_t) + count * entry,
                "serialize_into buffer must be serialized_size() bytes");
  std::uint64_t count64 = count;
  std::memcpy(out.data(), &count64, sizeof(count64));
  std::size_t offset = sizeof(count64);
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (keys()[i] == kEmpty) continue;
    std::memcpy(out.data() + offset, &keys()[i], sizeof(std::int64_t));
    std::memcpy(out.data() + offset + sizeof(std::int64_t), value_at(i),
                value_size_);
    offset += entry;
  }
  PSF_CHECK(offset == out.size());
}

void ReductionObject::merge_serialized(std::span<const std::byte> blob) {
  PSF_CHECK_MSG(blob.size() >= sizeof(std::uint64_t),
                "serialized reduction blob truncated");
  std::uint64_t count = 0;
  std::memcpy(&count, blob.data(), sizeof(count));
  const std::size_t entry = sizeof(std::uint64_t) + value_size_;
  PSF_CHECK_MSG(blob.size() == sizeof(count) + count * entry,
                "serialized reduction blob has wrong length");
  std::size_t offset = sizeof(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    std::memcpy(&key, blob.data() + offset, sizeof(key));
    insert(key, blob.data() + offset + sizeof(key));
    offset += entry;
  }
}

}  // namespace psf::pattern
