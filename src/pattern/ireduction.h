// PSF — Pattern Specification Framework
// Irregular reduction runtime (paper Sections II-A, III-C/D/E).
//
// Computation space = edges, reduction space = nodes. Nodes are block-
// partitioned across processes; an edge is assigned to the owner of each of
// its endpoints (so a cross edge is processed by both owners, each updating
// only its own endpoint). Remote endpoint data is replicated after the local
// nodes in the layout of paper Figure 3, refreshed by the six-step exchange
// protocol whenever node data changes. Local-edge computation overlaps with
// the exchange. Within a node, the local reduction space is adaptively
// split across devices by profiled speed, and further tiled so each tile's
// reduction values fit in GPU shared memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pattern/partition.h"
#include "pattern/reduction_object.h"
#include "pattern/scheduler.h"
#include "support/error.h"

namespace psf::pattern {

class RuntimeEnv;

/// A global input edge: the indirection array entry connecting two nodes.
struct Edge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

/// The edge handed to the user compute function. Node indices are LOCAL
/// (indexes into the node_data array the function receives, which holds the
/// local partition followed by replicated remote nodes). `update[k]` tells
/// the user whether endpoint k belongs to the current reduction-space
/// partition — only then may it be inserted into the reduction object.
struct EdgeView {
  std::uint64_t id = 0;        ///< global edge id
  std::uint32_t node[2] = {};  ///< local node indices
  bool update[2] = {};         ///< endpoint ownership in this partition
};

/// User-defined edge compute function (Table I): processes one edge and
/// inserts per-node contributions keyed by LOCAL node index into `obj`.
using IrEdgeComputeFn = void (*)(ReductionObject* obj, const EdgeView& edge,
                                 const void* edge_data, const void* node_data,
                                 const void* parameter);

/// Callback applied per local node by update_nodedata: combines the node's
/// accumulated reduction value into its node data.
using IrNodeUpdateFn = void (*)(void* node_data, const void* value,
                                const void* parameter);

/// Irregular reduction pattern runtime. Obtain from RuntimeEnv::get_IR().
class IReductionRuntime {
 public:
  explicit IReductionRuntime(RuntimeEnv& env);
  ~IReductionRuntime();

  IReductionRuntime(const IReductionRuntime&) = delete;
  IReductionRuntime& operator=(const IReductionRuntime&) = delete;

  // --- configuration --------------------------------------------------------

  /// Edge-compute and node-reduce function pointers: the lowering target of
  /// TypedIReduce (pattern/typed.h), which applications use to register
  /// typed, captureless callables.
  void set_edge_comp_func(IrEdgeComputeFn fn) { edge_compute_ = fn; }
  void set_node_reduc_func(ReduceFn fn) { node_reduce_ = fn; }

  /// Global node array: `num_nodes` records of `node_bytes` each. The
  /// runtime reads the local partition from it and update_nodedata writes
  /// results back to it (the simulated distributed result files).
  void set_nodes(void* node_data, std::size_t node_bytes,
                 std::size_t num_nodes);

  /// Global indirection array (+ optional per-edge attributes).
  void set_edges(const Edge* edges, std::size_t num_edges,
                 const void* edge_data, std::size_t edge_bytes);

  /// Bytes of one reduction value (per node).
  void configure_value(std::size_t value_size) { value_size_ = value_size; }

  void set_parameter(const void* parameter) { parameter_ = parameter; }

  /// Declare that connectivity changed (e.g. a rebuilt neighbor list):
  /// the next start() redoes the partitioning and the id-exchange
  /// (protocol steps 1-4), not just the data exchange (steps 5-6).
  void reset_edges(const Edge* edges, std::size_t num_edges,
                   const void* edge_data, std::size_t edge_bytes);

  // --- execution --------------------------------------------------------------

  /// Run one reduction pass (one time step's kernel launch).
  support::Status start();

  /// Dense per-local-node reduction result (key = local node index).
  [[nodiscard]] const ReductionObject& get_local_reduction() const;

  /// Apply `update(node, value, parameter)` to every local node that
  /// accumulated a value, write the new node data back to the global array,
  /// and mark replicas dirty so the next start() re-exchanges (steps 5-6).
  void update_nodedata(IrNodeUpdateFn update);

  // --- introspection ----------------------------------------------------------

  /// Number of nodes in this rank's partition (valid after first start()).
  [[nodiscard]] std::size_t local_nodes() const noexcept { return num_local_; }
  /// Replicated remote nodes (Figure 3 tail section).
  [[nodiscard]] std::size_t remote_nodes() const noexcept {
    return remote_globals_.size();
  }
  /// Translate a local index back to the global node id.
  [[nodiscard]] std::uint64_t local_to_global(std::uint32_t local) const;

  struct Stats {
    std::size_t local_edges = 0;   ///< edges with both endpoints local
    std::size_t cross_edges = 0;   ///< edges touching a remote node
    std::size_t id_exchange_runs = 0;    ///< protocol steps 1-4 executions
    std::size_t data_exchange_runs = 0;  ///< protocol steps 5-6 executions
    double last_exchange_vtime = 0.0;    ///< virtual cost of the last 5-6
    double last_compute_vtime = 0.0;     ///< virtual cost of the last pass
    std::vector<double> device_seconds;  ///< per-device virtual busy time
    std::vector<std::size_t> device_edges;
    std::vector<double> device_split;    ///< adaptive node-share per device
    std::size_t shared_memory_tiles = 0; ///< reduction-space tiles (GPU)
    int iterations = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// An edge instance assigned to one device partition.
  struct DeviceEdge {
    std::uint64_t id = 0;
    std::uint32_t node[2] = {};
    bool update[2] = {};
  };

  /// One device's edges of one kind (rank-local or cross). On a tiled GPU
  /// the list is grouped by shared-memory tile once per plan: tile t's
  /// edges are edges[tile_begin[t], tile_begin[t + 1]), and an edge that
  /// crosses tiles appears once per tile, updating only that tile's
  /// endpoint.
  struct EdgeList {
    std::vector<DeviceEdge> edges;
    std::vector<std::size_t> tile_begin;  ///< empty = untiled
    std::size_t assigned = 0;  ///< edges assigned to the device (priced)
  };

  struct DevicePlan {
    EdgeList local;  ///< endpoints all rank-local
    EdgeList cross;  ///< touch remote replicas
    std::size_t node_begin = 0;  ///< local reduction-space range [begin,end)
    std::size_t node_end = 0;
    /// Reduction-space tiles sized to shared memory (GPU devices): tile t
    /// covers local nodes [node_begin + t*tile_nodes, ...). 0 = untiled.
    std::size_t tile_nodes = 0;
  };

  support::Status validate() const;
  void build_partition();        ///< rank-level split + id exchange (1-4)
  void build_device_plans(const std::vector<double>& weights);
  static void group_by_tile(EdgeList& list, std::size_t node_begin,
                            std::size_t tile_nodes, std::size_t dev_nodes);
  void exchange_node_data(bool overlap_with_local_compute);
  double compute_edges(bool local_only, bool cross_only, double start_time);
  void run_device_edges(int device_index, const EdgeList& list);

  RuntimeEnv* env_;
  IrEdgeComputeFn edge_compute_ = nullptr;
  ReduceFn node_reduce_ = nullptr;
  std::byte* nodes_ = nullptr;
  std::size_t node_bytes_ = 0;
  std::size_t num_nodes_ = 0;
  const Edge* edges_ = nullptr;
  std::size_t num_edges_ = 0;
  const std::byte* edge_data_ = nullptr;
  std::size_t edge_bytes_ = 0;
  std::size_t value_size_ = 0;
  const void* parameter_ = nullptr;

  // Partition state (built lazily, rebuilt on reset_edges).
  bool partitioned_ = false;
  bool replicas_dirty_ = true;
  std::size_t local_begin_ = 0;  ///< first global node id owned
  std::size_t num_local_ = 0;
  std::vector<std::uint64_t> remote_globals_;  ///< per Figure 3, grouped
  std::vector<std::vector<std::uint32_t>> send_locals_;  ///< per peer rank
  std::vector<std::size_t> remote_offsets_;  ///< slot of each peer's block
  support::AlignedBuffer local_node_data_;   ///< local + remote replicas

  /// Rank-level edge lists in local indices (update flags = rank ownership);
  /// device plans are rebuilt from these when the adaptive split changes.
  std::vector<DeviceEdge> rank_local_edges_;
  std::vector<DeviceEdge> rank_cross_edges_;
  bool charge_rebuild_ = false;  ///< reset_edges() mid-run is charged

  std::vector<DevicePlan> device_plans_;
  /// Block-private dense staging objects of each device's untiled
  /// launches, per device and block. They live across start() calls: a
  /// block clears its object on entry (so a host replay is idempotent), and
  /// an object is rebuilt only when the device window, value size or reduce
  /// function changed.
  std::vector<std::vector<std::unique_ptr<ReductionObject>>> staging_;
  std::vector<double> iteration_device_seconds_;
  std::vector<std::size_t> iteration_device_edges_;
  AdaptivePartitioner partitioner_{1};
  std::unique_ptr<ReductionObject> local_result_;
  Stats stats_;
  /// Monotone pattern-iteration counter driving `device:...@iter=N` fault
  /// triggers (never reset by connectivity rebuilds, unlike
  /// stats_.iterations).
  int ir_epoch_ = 0;
  /// Trace span id of the latest node-data exchange, consumed by the next
  /// cross-edge compute pass to record an exchange -> compute edge.
  std::uint64_t last_exchange_span_ = 0;
};

}  // namespace psf::pattern
