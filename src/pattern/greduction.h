// PSF — Pattern Specification Framework
// Generalized reduction runtime (paper Table I, Sections III-C/D/E).
//
// The user supplies an emit function (processes one input unit, inserts
// key-value pairs into the reduction object) and a reduce function (the
// commutative/associative combine). The runtime:
//   * evenly partitions the input units across processes,
//   * dynamically schedules chunks over the node's CPU and GPU devices
//     (two pipelined streams per GPU for the input copies),
//   * localizes reductions in per-CPU-core private objects and per-SM
//     shared-memory objects, merged into a per-device then per-process
//     object ("reduction localization"),
//   * combines process results in parallel binary tree order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "devsim/device.h"
#include "pattern/reduction_object.h"
#include "pattern/scheduler.h"
#include "support/error.h"

namespace psf::minimpi {
class Communicator;
}
namespace psf::timemodel {
class TraceRecorder;
}

namespace psf::pattern {

class RuntimeEnv;

/// Relative throughput of a device whose reduction updates go straight to
/// the device-level object (no shared-memory localization): the paper's
/// companion work (Chen et al., HPDC'12) measured 2-3x slowdowns from
/// global-memory atomics on small key sets.
inline constexpr double kNoLocalizationThroughput = 0.45;

/// User-defined emit function for generalized reductions (Table I):
/// processes the input unit starting at `index` and inserts the resulting
/// key-value pair(s) into `obj`. `input` points at the unit's bytes.
using GrEmitFn = void (*)(ReductionObject* obj, const void* input,
                          std::size_t index, const void* parameter);

/// Generalized reduction pattern runtime. Obtain from RuntimeEnv::get_GR();
/// reusable across kernels by resetting the configuration (paper II-B).
class GReductionRuntime {
 public:
  explicit GReductionRuntime(RuntimeEnv& env);
  ~GReductionRuntime();

  GReductionRuntime(const GReductionRuntime&) = delete;
  GReductionRuntime& operator=(const GReductionRuntime&) = delete;

  // --- configuration --------------------------------------------------------

  /// Emit and reduce function pointers: the lowering target of
  /// TypedGReduce (pattern/typed.h), which applications use to register
  /// typed, captureless callables.
  void set_emit_func(GrEmitFn emit) { emit_ = emit; }
  void set_reduce_func(ReduceFn reduce) { reduce_ = reduce; }

  /// The global input: `num_units` units of `unit_bytes` each, contiguous at
  /// `data`. Every process sees the full input (the simulated shared file
  /// system) and fetches only its own partition, as in the paper.
  void set_input(const void* data, std::size_t unit_bytes,
                 std::size_t num_units);

  /// Opaque pointer forwarded to the emit function (e.g. cluster centers).
  void set_parameter(const void* parameter) { parameter_ = parameter; }

  /// Size the reduction object: `capacity` distinct keys of
  /// `value_size`-byte values. Small objects are localized in GPU shared
  /// memory automatically (paper III-E).
  void configure_object(std::size_t capacity, std::size_t value_size);

  /// Sub-objects per thread block to split update contention; 0 = auto
  /// (as many as fit in shared memory, capped at 8).
  void set_objects_per_block(int count) { objects_per_block_ = count; }

  // --- execution --------------------------------------------------------------

  /// Run the local reduction pass (partitioning, scheduling, emit, local
  /// combines). Returns an error if the configuration is incomplete.
  support::Status start();

  /// Local (per-process) reduction result; valid after start().
  [[nodiscard]] const ReductionObject& get_local_reduction() const;

  /// Combine all processes' results in binary tree order and broadcast, so
  /// the returned object is valid on every rank. Collective call.
  const ReductionObject& get_global_reduction();

  // --- introspection ----------------------------------------------------------

  struct Stats {
    std::vector<std::size_t> device_units;  ///< work units per device
    std::vector<double> device_finish;      ///< virtual lane end per device
    double local_makespan = 0.0;            ///< virtual time after local pass
    double combine_vtime = 0.0;             ///< tree-combine virtual cost
    std::size_t num_chunks = 0;
    bool used_shared_memory = false;  ///< objects fit in the SM arenas
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  support::Status validate() const;
  /// Run one device's chunk list (its lane) and return the per-device
  /// reduction object, or nullptr when the device drew no chunks. Device
  /// lanes run concurrently on the rank executor; the caller merges the
  /// returned objects in device order so results are schedule-independent.
  [[nodiscard]] std::unique_ptr<ReductionObject> execute_device_chunks(
      int spec_index, std::size_t device_begin_unit,
      const ScheduleResult& schedule);
  /// Sub-objects per block for contention splitting on `device`.
  [[nodiscard]] int sub_objects_for(const devsim::Device& device) const;
  /// True when the configured object fits this device's on-chip arena.
  [[nodiscard]] bool localizes_on(const devsim::Device& device) const;

  RuntimeEnv* env_;
  GrEmitFn emit_ = nullptr;
  ReduceFn reduce_ = nullptr;
  const std::byte* input_ = nullptr;
  std::size_t unit_bytes_ = 0;
  std::size_t num_units_ = 0;
  const void* parameter_ = nullptr;
  std::size_t object_capacity_ = 0;
  std::size_t value_size_ = 0;
  int objects_per_block_ = 0;

  std::unique_ptr<ReductionObject> local_result_;
  std::unique_ptr<ReductionObject> global_result_;
  bool have_global_ = false;
  Stats stats_;
  /// Pattern-iteration counter driving `device:...@iter=N` fault triggers
  /// (one start() = one iteration).
  int gr_epoch_ = 0;
  /// Combine-boundary counter + per-clause fired flags for `rank:...`
  /// fault triggers (one get_global_reduction() = one boundary).
  int combine_epoch_ = 0;
  std::vector<bool> rank_fault_fired_;
  /// Trace span ids of the latest start()'s per-device chunk spans, so the
  /// global combine can record chunk -> combine dependency edges.
  std::vector<std::uint64_t> chunk_span_ids_;
};

/// Combine `object` across all ranks of `comm` in binary tree order (the
/// paper's parallel combination, Section III-C) and broadcast the result, so
/// on return every rank's `object` holds the global reduction. Collective
/// call; the tree shape depends only on the communicator size, so the merge
/// order — and therefore the result bytes — is identical at every executor
/// width. Shared by GReductionRuntime::get_global_reduction() and the
/// composition layer's StencilReduce. Records one `span_name` trace span
/// per rank when `trace` is non-null and returns its id (0 otherwise).
std::uint64_t combine_and_broadcast(minimpi::Communicator& comm,
                                    ReductionObject& object,
                                    timemodel::TraceRecorder* trace,
                                    const char* span_name);

}  // namespace psf::pattern
