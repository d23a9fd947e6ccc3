// PSF — Pattern Specification Framework
// The reduction object (paper Section II-A): a system-defined container
// accumulating (key, value) reduction results with support for parallel
// insertion. Generalized reductions use the hash layout (arbitrary keys);
// irregular reductions use the dense layout (key = local node id), whose
// per-device partitions are simply concatenated, matching the paper's
// reduction-space partitioning.
//
// The object can live in owned host/device memory or be placed over an
// external arena — the latter realizes the paper's GPU *shared-memory*
// reduction objects and the per-CPU-core private objects ("reduction
// localization", Section III-E).
//
// Thread-safety contract, fixed when an object is constructed:
//   * Sharing::kShared (the default) — any number of threads may insert or
//     merge into the object at once; every slot update takes that slot's
//     lock, the paper's atomic-operation scheme.
//   * Sharing::kExclusive — one thread writes the object at a time, as with
//     the block-private staging objects, shared-memory sub-objects and
//     per-device results the runtimes own. Inserts skip the slot locks; the
//     paper's private objects merged at the end need none.
// Both kinds have the same memory layout and produce the same bytes for the
// same insert sequence. Reads (find, lookup, for_each, serialize) are never
// synchronized against concurrent writers in either kind.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/buffer.h"
#include "support/error.h"

namespace psf::pattern {

/// User-defined combine: reduces `src` into `dst` (both point at one value
/// of value_size bytes). Must be commutative and associative, as the paper
/// requires. Matches `gr_reduce_fp` / `ir_node_reduce_fp` in Table I.
using ReduceFn = void (*)(void* dst, const void* src);

/// Storage discipline of a ReductionObject.
enum class ObjectLayout : std::uint8_t {
  kHash,   ///< open addressing on 64-bit keys (generalized reductions)
  kDense,  ///< key IS the slot index (irregular reduction spaces)
};

/// Who may write a ReductionObject concurrently (see the header comment).
enum class Sharing : std::uint8_t {
  kShared,     ///< concurrent writers; per-slot locks on every update
  kExclusive,  ///< one writer at a time; no locks taken
};

/// Fixed-capacity reduction table.
///
/// Memory layout (over owned storage or an external arena), the same for
/// both Sharing kinds:
///   [int64_t keys[capacity]]      -1 = empty slot
///   [uint8_t  locks[capacity]]    per-slot spin bytes (kShared only)
///   [pad to 8] [value bytes capacity * value_size]
class ReductionObject {
 public:
  /// Bytes required for a table of `capacity` slots of `value_size` bytes.
  static std::size_t required_bytes(std::size_t capacity,
                                    std::size_t value_size);

  /// Owning constructor.
  ReductionObject(ObjectLayout layout, std::size_t capacity,
                  std::size_t value_size, ReduceFn reduce,
                  Sharing sharing = Sharing::kShared);

  /// Arena-placed constructor (non-owning). The arena must be zeroed by the
  /// caller before use (Device::run_blocks zeroes block arenas); this
  /// constructor formats the key slots to empty.
  ReductionObject(ObjectLayout layout, std::size_t capacity,
                  std::size_t value_size, ReduceFn reduce,
                  std::span<std::byte> arena,
                  Sharing sharing = Sharing::kShared);

  ReductionObject(ReductionObject&&) noexcept = default;
  ReductionObject& operator=(ReductionObject&&) noexcept = default;
  ReductionObject(const ReductionObject&) = delete;
  ReductionObject& operator=(const ReductionObject&) = delete;

  /// Dense layout only: slot = key - offset. Lets a tile-local object
  /// (reduction-space partition held in SM shared memory) accept the same
  /// local node ids the user code inserts everywhere else.
  void set_key_offset(std::uint64_t offset) noexcept {
    PSF_CHECK(layout_ == ObjectLayout::kDense);
    key_offset_ = offset;
  }
  [[nodiscard]] std::uint64_t key_offset() const noexcept {
    return key_offset_;
  }

  [[nodiscard]] ObjectLayout layout() const noexcept { return layout_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t value_size() const noexcept { return value_size_; }
  [[nodiscard]] ReduceFn reduce_fn() const noexcept { return reduce_; }
  [[nodiscard]] Sharing sharing() const noexcept { return sharing_; }

  /// Insert (key, value): the first insert of a key copies the value, later
  /// inserts combine through the reduce function. Aborts when a hash table
  /// overflows (the user sizes the object, as in the paper).
  void insert(std::uint64_t key, const void* value);

  /// Like insert but returns false instead of aborting on a full table.
  [[nodiscard]] bool try_insert(std::uint64_t key, const void* value);

  /// Read a key's value into `out`; false if absent.
  [[nodiscard]] bool lookup(std::uint64_t key, void* out) const;

  /// Pointer to a key's value (nullptr if absent). Not synchronized against
  /// concurrent inserts; call only after the parallel phase.
  [[nodiscard]] const void* find(std::uint64_t key) const;

  /// Number of occupied slots.
  [[nodiscard]] std::size_t size() const;

  /// Visit every (key, value) pair. Post-parallel-phase only.
  void for_each(
      const std::function<void(std::uint64_t, const void*)>& visit) const;

  /// Merge all entries of `other` into this object (combine on collision),
  /// visiting `other`'s slots in order. `other` must not be written
  /// concurrently.
  void merge_from(const ReductionObject& other);

  /// Serialize occupied entries as [count][key, value]... for the tree-based
  /// global combination.
  [[nodiscard]] std::vector<std::byte> serialize() const;

  /// Exact byte count serialize() / serialize_into() produces right now.
  [[nodiscard]] std::size_t serialized_size() const;

  /// Allocation-free variant of serialize(): write the entry stream into
  /// `out`, which must be exactly serialized_size() bytes (the combine path
  /// packs into pooled message payloads).
  void serialize_into(std::span<std::byte> out) const;

  /// Merge a serialized entry stream produced by serialize().
  void merge_serialized(std::span<const std::byte> blob);

  /// Reset to empty (keys to sentinel, locks released). The value bytes of
  /// empty slots are never read, so they are left as they are.
  void clear();

 private:
  void bind(std::span<std::byte> storage);
  [[nodiscard]] bool insert_impl(std::uint64_t key, const void* value);
  template <bool kLocked>
  [[nodiscard]] bool insert_slots(std::uint64_t key, const void* value);

  [[nodiscard]] std::int64_t* keys() const noexcept {
    return reinterpret_cast<std::int64_t*>(base_);
  }
  [[nodiscard]] std::uint8_t* locks() const noexcept {
    return reinterpret_cast<std::uint8_t*>(base_ +
                                           capacity_ * sizeof(std::int64_t));
  }
  [[nodiscard]] std::byte* values() const noexcept {
    return base_ + values_offset_;
  }
  [[nodiscard]] std::byte* value_at(std::size_t slot) const noexcept {
    return values() + slot * value_size_;
  }

  void lock_slot(std::size_t slot) const noexcept;
  void unlock_slot(std::size_t slot) const noexcept;

  static std::uint64_t hash_key(std::uint64_t key) noexcept;

  ObjectLayout layout_;
  std::size_t capacity_;
  std::size_t value_size_;
  ReduceFn reduce_;
  Sharing sharing_;
  std::uint64_t key_offset_ = 0;
  std::size_t values_offset_ = 0;
  std::byte* base_ = nullptr;
  support::AlignedBuffer owned_;  // empty when arena-placed
};

}  // namespace psf::pattern
