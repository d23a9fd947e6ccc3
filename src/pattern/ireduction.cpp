#include "pattern/ireduction.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>

#include "exec/parallel_for.h"
#include "fault/fault.h"
#include "pattern/runtime_env.h"
#include "support/log.h"
#include "support/metrics.h"
#include "telemetry/prof.h"
#include "timemodel/timeline.h"

namespace psf::pattern {

namespace {
constexpr int kCountTag = 0x4a0001;  ///< protocol step 1: request counts
constexpr int kIdTag = 0x4a0002;     ///< protocol steps 3-4: node ids
constexpr int kDataTag = 0x4a0003;   ///< protocol steps 5-6: node data

/// Host memory bandwidth for pack/unpack (bytes/s). Packing is spread
/// across the node's CPU cores, so the effective rate is the multithreaded
/// copy bandwidth.
constexpr double kHostCopyBw = 2.0e10;

/// The reduction-space rule, applied at every level (devices, shared-memory
/// tiles): an edge goes to the part owning each endpoint it updates
/// (`part[k]`, -1 when endpoint k is not updated) — once when one part owns
/// both, otherwise once per part with only that part's endpoint updated.
template <typename EdgeT, typename Emit>
void split_by_owner(const EdgeT& edge,
                    const std::array<std::ptrdiff_t, 2>& part, Emit&& emit) {
  if (part[0] >= 0 && part[0] == part[1]) {
    emit(part[0], edge);
    return;
  }
  for (int k = 0; k < 2; ++k) {
    if (part[k] < 0) continue;
    EdgeT copy = edge;
    copy.update[1 - k] = false;
    emit(part[k], copy);
  }
}

/// Leave `object` an empty dense object of the given shape: cleared when it
/// already has that shape, rebuilt otherwise (first use, a new window after
/// a repartition or reset, a new value type).
void reset_dense(std::unique_ptr<ReductionObject>& object,
                 std::size_t capacity, std::size_t value_size,
                 ReduceFn reduce, Sharing sharing) {
  if (object && object->capacity() == capacity &&
      object->value_size() == value_size && object->reduce_fn() == reduce) {
    object->clear();
    return;
  }
  object = std::make_unique<ReductionObject>(ObjectLayout::kDense, capacity,
                                             value_size, reduce, sharing);
}
}  // namespace

IReductionRuntime::IReductionRuntime(RuntimeEnv& env) : env_(&env) {}
IReductionRuntime::~IReductionRuntime() = default;

void IReductionRuntime::set_nodes(void* node_data, std::size_t node_bytes,
                                  std::size_t num_nodes) {
  nodes_ = static_cast<std::byte*>(node_data);
  node_bytes_ = node_bytes;
  num_nodes_ = num_nodes;
  partitioned_ = false;
  replicas_dirty_ = true;
}

void IReductionRuntime::set_edges(const Edge* edges, std::size_t num_edges,
                                  const void* edge_data,
                                  std::size_t edge_bytes) {
  edges_ = edges;
  num_edges_ = num_edges;
  edge_data_ = static_cast<const std::byte*>(edge_data);
  edge_bytes_ = edge_bytes;
  partitioned_ = false;
  replicas_dirty_ = true;
}

void IReductionRuntime::reset_edges(const Edge* edges, std::size_t num_edges,
                                    const void* edge_data,
                                    std::size_t edge_bytes) {
  set_edges(edges, num_edges, edge_data, edge_bytes);
  charge_rebuild_ = true;
}

support::Status IReductionRuntime::validate() const {
  // A failed init() built no devices; nothing below may run.
  PSF_RETURN_IF_ERROR(env_->init());
  if (edge_compute_ == nullptr || node_reduce_ == nullptr) {
    return support::Status::failed_precondition(
        "irregular reduction: compute/reduce functions not set");
  }
  if (nodes_ == nullptr || node_bytes_ == 0 || num_nodes_ == 0) {
    return support::Status::failed_precondition(
        "irregular reduction: node data not set");
  }
  if (edges_ == nullptr) {
    return support::Status::failed_precondition(
        "irregular reduction: edges not set");
  }
  if (value_size_ == 0) {
    return support::Status::failed_precondition(
        "irregular reduction: value size not configured");
  }
  return support::Status::ok();
}

std::uint64_t IReductionRuntime::local_to_global(std::uint32_t local) const {
  if (local < num_local_) return local_begin_ + local;
  const std::size_t remote = local - num_local_;
  PSF_CHECK(remote < remote_globals_.size());
  return remote_globals_[remote];
}

void IReductionRuntime::build_partition() {
  auto& comm = env_->comm();
  const int size = comm.size();
  const int rank = comm.rank();
  const BlockPartition node_split(num_nodes_, size);
  local_begin_ = node_split.begin(rank);
  num_local_ = node_split.size(rank);

  // Inspect all input edges, keeping those that touch the local partition
  // (each process "fetches" only its own computation space). Ownership is
  // a range check against the contiguous local block. A first pass counts,
  // so the second writes each kept edge once into an exactly reserved list.
  const auto is_local = [this](std::uint32_t node) {
    return node - local_begin_ < num_local_;  // wraps for node < begin
  };
  std::size_t local_count = 0;
  std::size_t cross_count = 0;
  for (std::size_t e = 0; e < num_edges_; ++e) {
    const Edge edge = edges_[e];
    PSF_CHECK_MSG(edge.u < num_nodes_ && edge.v < num_nodes_,
                  "edge " << e << " references node outside the graph");
    const bool u_local = is_local(edge.u);
    const bool v_local = is_local(edge.v);
    local_count += u_local && v_local ? 1 : 0;
    cross_count += u_local != v_local ? 1 : 0;
  }
  rank_local_edges_.clear();
  rank_cross_edges_.clear();
  remote_globals_.clear();
  rank_local_edges_.reserve(local_count);
  rank_cross_edges_.reserve(cross_count);
  remote_globals_.reserve(cross_count);  // one remote endpoint per cross edge
  const auto local_index = [this](std::uint32_t global) {
    return static_cast<std::uint32_t>(global - local_begin_);
  };
  for (std::size_t e = 0; e < num_edges_; ++e) {
    const Edge edge = edges_[e];
    const bool u_local = is_local(edge.u);
    const bool v_local = is_local(edge.v);
    if (u_local && v_local) {
      rank_local_edges_.push_back(
          {e, {local_index(edge.u), local_index(edge.v)}, {true, true}});
    } else if (u_local || v_local) {
      // The remote endpoint keeps its global id until the replica slots
      // are known (below).
      rank_cross_edges_.push_back(
          {e,
           {u_local ? local_index(edge.u) : edge.u,
            v_local ? local_index(edge.v) : edge.v},
           {u_local, v_local}});
      remote_globals_.push_back(u_local ? edge.v : edge.u);
    }
  }

  // Remote nodes: sorted unique global ids. Because ownership is a block
  // partition, ascending id order is also grouped-by-owner order, giving
  // the Figure 3 layout (local nodes first, then per-process remote blocks).
  std::sort(remote_globals_.begin(), remote_globals_.end());
  remote_globals_.erase(
      std::unique(remote_globals_.begin(), remote_globals_.end()),
      remote_globals_.end());

  remote_offsets_.assign(static_cast<std::size_t>(size) + 1, 0);
  {
    std::size_t j = 0;
    for (int p = 0; p < size; ++p) {
      while (j < remote_globals_.size() &&
             node_split.owner(remote_globals_[j]) < p) {
        ++j;
      }
      remote_offsets_[static_cast<std::size_t>(p)] = j;
    }
    remote_offsets_[static_cast<std::size_t>(size)] = remote_globals_.size();
  }

  // Point each cross edge's remote endpoint at its replica slot.
  for (auto& edge : rank_cross_edges_) {
    const int k = edge.update[0] ? 1 : 0;
    const auto it = std::lower_bound(remote_globals_.begin(),
                                     remote_globals_.end(), edge.node[k]);
    PSF_CHECK(it != remote_globals_.end() && *it == edge.node[k]);
    edge.node[k] = static_cast<std::uint32_t>(
        num_local_ + static_cast<std::size_t>(it - remote_globals_.begin()));
  }
  stats_.local_edges = rank_local_edges_.size();
  stats_.cross_edges = rank_cross_edges_.size();

  // Local node data array: local partition followed by remote replicas.
  local_node_data_.resize((num_local_ + remote_globals_.size()) *
                          node_bytes_);
  if (num_local_ > 0) {  // a rank may own no node (more ranks than nodes)
    std::memcpy(local_node_data_.data(), nodes_ + local_begin_ * node_bytes_,
                num_local_ * node_bytes_);
  }

  // Protocol steps 1-4: exchange request counts, then the requested ids.
  send_locals_.assign(static_cast<std::size_t>(size), {});
  std::vector<std::uint64_t> their_counts(static_cast<std::size_t>(size), 0);
  for (int p = 0; p < size; ++p) {
    if (p == rank) continue;
    const std::uint64_t count =
        remote_offsets_[static_cast<std::size_t>(p) + 1] -
        remote_offsets_[static_cast<std::size_t>(p)];
    comm.send_value<std::uint64_t>(p, kCountTag, count);  // step 1
  }
  for (int p = 0; p < size; ++p) {
    if (p == rank) continue;
    their_counts[static_cast<std::size_t>(p)] =
        comm.recv_value<std::uint64_t>(p, kCountTag);  // step 2
  }
  for (int p = 0; p < size; ++p) {
    if (p == rank) continue;
    const std::size_t lo = remote_offsets_[static_cast<std::size_t>(p)];
    const std::size_t hi = remote_offsets_[static_cast<std::size_t>(p) + 1];
    if (hi > lo) {
      comm.send_span<std::uint64_t>(
          p, kIdTag,
          std::span<const std::uint64_t>(remote_globals_.data() + lo,
                                         hi - lo));  // step 3
    }
  }
  for (int p = 0; p < size; ++p) {
    if (p == rank) continue;
    const std::uint64_t count = their_counts[static_cast<std::size_t>(p)];
    if (count == 0) continue;
    std::vector<std::uint64_t> ids(count);
    comm.recv_span<std::uint64_t>(p, kIdTag, ids);  // step 4
    auto& locals = send_locals_[static_cast<std::size_t>(p)];
    locals.reserve(ids.size());
    for (std::uint64_t id : ids) {
      PSF_CHECK_MSG(id >= local_begin_ && id - local_begin_ < num_local_,
                    "peer requested node " << id << " this rank does not own");
      locals.push_back(static_cast<std::uint32_t>(id - local_begin_));
    }
  }

  // Mid-run connectivity rebuilds (e.g. MiniMD neighbor lists) are charged;
  // the initial setup is excluded, matching the paper's reported timings.
  // The rebuild itself is a distributed, multithreaded operation: each
  // process rebuilds its own region with its CPU cores.
  if (charge_rebuild_) {
    const double scale = env_->options().workload_scale;
    const double workers = static_cast<double>(comm.size()) *
                           env_->options().preset.cpu_cores_per_node *
                           env_->options().preset.cpu_parallel_eff;
    comm.timeline().advance(static_cast<double>(num_edges_) * scale /
                            (1.0e8 * workers));
    charge_rebuild_ = false;
  }

  // Keep profiled device speeds across connectivity rebuilds: the relative
  // device performance is a property of the application, not of one edge
  // set (paper III-D keeps the ratio until re-profiled).
  const int num_devices = static_cast<int>(env_->active_devices().size());
  if (static_cast<int>(partitioner_.speeds().size()) != num_devices) {
    partitioner_ = AdaptivePartitioner(num_devices);
  }
  build_device_plans(partitioner_.speeds());
  partitioned_ = true;
  replicas_dirty_ = true;
  stats_.iterations = 0;
  ++stats_.id_exchange_runs;
  PSF_METRIC_ADD("pattern.ir.id_exchanges", 1);
  PSF_METRIC_ADD("pattern.ir.local_edges", rank_local_edges_.size());
  PSF_METRIC_ADD("pattern.ir.cross_edges", rank_cross_edges_.size());
  PSF_METRIC_ADD("pattern.ir.remote_replicas", remote_globals_.size());
  PSF_LOG(kDebug, "ireduction")
      << "rank " << rank << ": " << num_local_ << " local nodes, "
      << remote_globals_.size() << " remote replicas, "
      << rank_local_edges_.size() << " local / " << rank_cross_edges_.size()
      << " cross edges";
}

void IReductionRuntime::build_device_plans(
    const std::vector<double>& weights) {
  const auto devices = env_->active_devices();
  const int num_devices = static_cast<int>(devices.size());
  // Plans are cleared in place, so a rebuild (the adaptive repartition, a
  // connectivity reset) reuses the lists' storage.
  device_plans_.resize(static_cast<std::size_t>(num_devices));
  for (auto& plan : device_plans_) {
    for (EdgeList* list : {&plan.local, &plan.cross}) {
      list->edges.clear();
      list->tile_begin.clear();
      list->assigned = 0;
    }
    plan.node_begin = plan.node_end = plan.tile_nodes = 0;
  }

  stats_.device_split.assign(weights.size(), 0.0);
  const double weight_sum =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    stats_.device_split[i] = weights[i] / weight_sum;
  }
#ifndef PSF_DISABLE_METRICS
  {
    auto& registry = metrics::Registry::current();
    for (std::size_t i = 0; i < weights.size(); ++i) {
      registry.gauge("pattern.ir.split." + devices[i]->descriptor().name())
          .set(stats_.device_split[i]);
    }
  }
#endif

  if (num_local_ == 0) return;
  const WeightedPartition dev_split(num_local_, weights);
  for (int d = 0; d < num_devices; ++d) {
    device_plans_[static_cast<std::size_t>(d)].node_begin = dev_split.begin(d);
    device_plans_[static_cast<std::size_t>(d)].node_end = dev_split.end(d);
  }

  // Assign each rank-level edge to the device(s) owning its updated
  // endpoint(s) — the same reduction-space rule applied one level down.
  // Counting first lets every list be reserved exactly.
  auto owners = [&](const DeviceEdge& edge) {
    const auto owner = [&](int k) -> std::ptrdiff_t {
      return edge.update[k] ? dev_split.owner(edge.node[k]) : -1;
    };
    return std::array<std::ptrdiff_t, 2>{owner(0), owner(1)};
  };
  auto distribute = [&](const std::vector<DeviceEdge>& edges,
                        EdgeList DevicePlan::*kind) {
    auto list = [&](std::ptrdiff_t d) -> EdgeList& {
      return device_plans_[static_cast<std::size_t>(d)].*kind;
    };
    for (const auto& edge : edges) {
      split_by_owner(edge, owners(edge),
                     [&](std::ptrdiff_t d, const DeviceEdge&) {
                       ++list(d).assigned;
                     });
    }
    for (int d = 0; d < num_devices; ++d) {
      list(d).edges.reserve(list(d).assigned);
    }
    for (const auto& edge : edges) {
      split_by_owner(edge, owners(edge),
                     [&](std::ptrdiff_t d, const DeviceEdge& part) {
                       list(d).edges.push_back(part);
                     });
    }
  };
  distribute(rank_local_edges_, &DevicePlan::local);
  distribute(rank_cross_edges_, &DevicePlan::cross);

  // Shared-memory reduction-space tiling on GPUs (paper III-E):
  // num_parts = num_nodes / (shared_memory_size / reduction_element_size).
  stats_.shared_memory_tiles = 0;
  for (int d = 0; d < num_devices; ++d) {
    auto& plan = device_plans_[static_cast<std::size_t>(d)];
    if (!devices[static_cast<std::size_t>(d)]->is_gpu() ||
        !env_->options().reduction_localization || value_size_ == 0) {
      continue;
    }
    const std::size_t capacity_limit =
        devices[static_cast<std::size_t>(d)]->usable_shared_memory();
    // Largest power-of-two tile whose reduction object (keys + locks +
    // values) fits the on-chip arena; fall back to untiled execution when
    // even a handful of values exceed it.
    std::size_t tile_cap = 64;
    while (tile_cap > 1 &&
           ReductionObject::required_bytes(tile_cap, value_size_) >
               capacity_limit) {
      tile_cap /= 2;
    }
    if (ReductionObject::required_bytes(tile_cap, value_size_) >
        capacity_limit) {
      continue;  // values too large for shared memory: no tiling
    }
    while (ReductionObject::required_bytes(tile_cap * 2, value_size_) <=
           capacity_limit) {
      tile_cap *= 2;
    }
    plan.tile_nodes = tile_cap;
    const std::size_t dev_nodes = plan.node_end - plan.node_begin;
    if (dev_nodes > 0) {
      stats_.shared_memory_tiles += (dev_nodes + tile_cap - 1) / tile_cap;
    }
    if (dev_nodes > tile_cap) {
      group_by_tile(plan.local, plan.node_begin, tile_cap, dev_nodes);
      group_by_tile(plan.cross, plan.node_begin, tile_cap, dev_nodes);
    }
  }
}

void IReductionRuntime::group_by_tile(EdgeList& list, std::size_t node_begin,
                                      std::size_t tile_nodes,
                                      std::size_t dev_nodes) {
  // A stable counting sort: within a tile, edges keep their list order.
  auto tiles = [&](const DeviceEdge& edge) {
    const auto tile = [&](int k) -> std::ptrdiff_t {
      return edge.update[k] ? static_cast<std::ptrdiff_t>(
                                  (edge.node[k] - node_begin) / tile_nodes)
                            : -1;
    };
    return std::array<std::ptrdiff_t, 2>{tile(0), tile(1)};
  };
  const std::size_t num_tiles = (dev_nodes + tile_nodes - 1) / tile_nodes;
  list.tile_begin.assign(num_tiles + 1, 0);
  for (const auto& edge : list.edges) {
    split_by_owner(edge, tiles(edge), [&](std::ptrdiff_t t, const DeviceEdge&) {
      ++list.tile_begin[static_cast<std::size_t>(t) + 1];
    });
  }
  std::partial_sum(list.tile_begin.begin(), list.tile_begin.end(),
                   list.tile_begin.begin());
  std::vector<DeviceEdge> grouped(list.tile_begin.back());
  std::vector<std::size_t> cursor(list.tile_begin.begin(),
                                  list.tile_begin.end() - 1);
  for (const auto& edge : list.edges) {
    split_by_owner(edge, tiles(edge),
                   [&](std::ptrdiff_t t, const DeviceEdge& part) {
                     grouped[cursor[static_cast<std::size_t>(t)]++] = part;
                   });
  }
  list.edges.swap(grouped);
}

void IReductionRuntime::exchange_node_data(bool overlap_with_local_compute) {
  auto& comm = env_->comm();
  const int size = comm.size();
  const int rank = comm.rank();
  // Exchanged node data is a partition-surface quantity.
  const double scale = env_->options().effective_comm_scale();
  const double t0 = comm.timeline().now();

  // Step 5: pack and send the node data each peer requested. The gather
  // packs straight into a pooled payload, so the per-iteration exchange
  // neither allocates nor stages through an intermediate buffer.
  for (int p = 0; p < size; ++p) {
    if (p == rank) continue;
    const auto& locals = send_locals_[static_cast<std::size_t>(p)];
    if (locals.empty()) continue;
    auto buffer = comm.acquire_buffer(locals.size() * node_bytes_);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      std::memcpy(buffer.data() + i * node_bytes_,
                  local_node_data_.data() + locals[i] * node_bytes_,
                  node_bytes_);
    }
    comm.timeline().advance(static_cast<double>(buffer.size()) * scale /
                            kHostCopyBw);
    comm.isend_pooled(p, kDataTag, std::move(buffer));
  }

  // Overlapped execution: local edges depend only on local nodes, so their
  // computation runs concurrently with the exchange (paper III-C).
  if (overlap_with_local_compute) {
    compute_edges(/*include_local=*/true, /*include_cross=*/false,
                  comm.timeline().now());
  }

  // Step 6: receive remote node data into the Figure 3 replica slots.
  for (int p = 0; p < size; ++p) {
    if (p == rank) continue;
    const std::size_t lo = remote_offsets_[static_cast<std::size_t>(p)];
    const std::size_t hi = remote_offsets_[static_cast<std::size_t>(p) + 1];
    if (hi == lo) continue;
    auto message = comm.recv_any(p, kDataTag);
    PSF_CHECK_MSG(message.payload.size() == (hi - lo) * node_bytes_,
                  "node data exchange size mismatch from rank " << p);
    std::memcpy(local_node_data_.data() + (num_local_ + lo) * node_bytes_,
                message.payload.data(), message.payload.size());
    comm.timeline().advance(
        static_cast<double>(message.payload.size()) * scale / kHostCopyBw);
  }

  stats_.last_exchange_vtime = comm.timeline().now() - t0;
  ++stats_.data_exchange_runs;
  PSF_METRIC_ADD("pattern.ir.data_exchanges", 1);
  PSF_METRIC_OBSERVE("pattern.ir.exchange_vtime", stats_.last_exchange_vtime);
  if (auto* trace = env_->options().trace) {
    last_exchange_span_ =
        trace->record("ir node-data exchange", "comm", comm.rank(), 0, t0,
                      comm.timeline().now());
  }
}

double IReductionRuntime::compute_edges(bool include_local,
                                        bool include_cross,
                                        double start_time) {
  auto& comm = env_->comm();
  const auto devices = env_->active_devices();
  const auto specs = env_->device_specs(/*gpu_resident_data=*/true);
  const double scale = env_->options().workload_scale;
  const auto& overheads = env_->options().preset.overheads;

  // Functional pass: device lanes run concurrently on the rank executor.
  // Each edge copy updates only endpoints owned by its device (the update
  // flags are masked in build_device_plans), so cross-device writes into
  // the dense local result are disjoint and the outcome is independent of
  // lane interleaving.
  exec::parallel_for(env_->executor(), devices.size(), [&](std::size_t d) {
    PSF_PROF_SCOPE("ir.edges");
    const auto& plan = device_plans_[d];
    if (include_local) {
      run_device_edges(static_cast<int>(d), plan.local);
    }
    if (include_cross) {
      run_device_edges(static_cast<int>(d), plan.cross);
    }
  });

  // Pricing pass: unchanged from the serial engine, on the calling thread,
  // in device order — virtual time never depends on the executor width.
  //
  // Lost devices are priced at the first survivor's rate (their edges are
  // replayed on the host), but the CANONICAL per-device seconds fed to the
  // adaptive partitioner keep the device's own rate: the edge->device split
  // must stay identical to a fault-free run so the per-node contribution
  // order — and therefore the result bytes — never change under faults.
  const bool faulty = env_->fault_plan() != nullptr;
  double survivor_rate = 0.0;
  if (faulty) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (!devices[d]->lost()) {
        survivor_rate = specs[d].units_per_s;
        break;
      }
    }
  }
  timemodel::LaneSet lanes(devices.size(), start_time);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& plan = device_plans_[d];
    std::size_t edge_count = 0;
    if (include_local) edge_count += plan.local.assigned;
    if (include_cross) edge_count += plan.cross.assigned;
    if (edge_count == 0) continue;
    const double launch = devices[d]->is_accelerator()
                              ? overheads.kernel_launch_s
                              : overheads.thread_fork_s;
    const double busy =
        launch + static_cast<double>(edge_count) * scale / specs[d].units_per_s;
    double priced_busy = busy;
    if (faulty && devices[d]->lost()) {
      PSF_CHECK_MSG(survivor_rate > 0.0,
                    "irregular reduction: every device is lost");
      priced_busy = launch +
                    static_cast<double>(edge_count) * scale / survivor_rate;
    }
    lanes.advance(d, priced_busy);
    iteration_device_seconds_[d] += busy;
    iteration_device_edges_[d] += edge_count;
    if (auto* trace = env_->options().trace) {
      const std::uint64_t span =
          trace->record(include_cross ? (include_local ? "ir edges"
                                                       : "ir cross edges")
                                      : "ir local edges",
                        "compute", comm.rank(), static_cast<int>(d) + 1,
                        start_time, lanes.time(d));
      // Cross edges read replica slots the node-data exchange filled.
      if (include_cross) {
        trace->record_edge(last_exchange_span_, span, "exchange");
      }
    }
  }
  if (include_cross) last_exchange_span_ = 0;
  return lanes.join(comm.timeline());
}

void IReductionRuntime::run_device_edges(int device_index,
                                         const EdgeList& list) {
  if (list.edges.empty()) return;
  auto devices = env_->active_devices();
  devsim::Device& device = *devices[static_cast<std::size_t>(device_index)];
  const auto& plan = device_plans_[static_cast<std::size_t>(device_index)];
  const std::byte* node_data = local_node_data_.data();
  const std::vector<DeviceEdge>& edges = list.edges;

  auto run_edge = [&](ReductionObject* target, const DeviceEdge& edge) {
    EdgeView view;
    view.id = edge.id;
    view.node[0] = edge.node[0];
    view.node[1] = edge.node[1];
    view.update[0] = edge.update[0];
    view.update[1] = edge.update[1];
    const void* attrs =
        edge_data_ == nullptr ? nullptr : edge_data_ + edge.id * edge_bytes_;
    edge_compute_(target, view, attrs, node_data, parameter_);
  };

  if (list.tile_begin.empty()) {
    // Blocks split the edge list; each block accumulates into a private
    // dense staging object windowed on this device's node range, and the
    // staging objects of the blocks that ran merge into the local result in
    // BLOCK order after the launch. The combine tree therefore depends only
    // on the block count (a device property) — results are bit-identical
    // for every num_threads.
    const int blocks = device.descriptor().compute_units;
    const BlockPartition split(edges.size(), blocks);
    const std::size_t window =
        std::max<std::size_t>(plan.node_end - plan.node_begin, 1);
    auto& staging = staging_[static_cast<std::size_t>(device_index)];
    staging.resize(static_cast<std::size_t>(blocks));
    auto body = [&](const devsim::BlockContext& ctx) {
      const std::size_t from = split.begin(ctx.block_id);
      const std::size_t to = split.end(ctx.block_id);
      if (from == to) return;
      auto& staged = staging[static_cast<std::size_t>(ctx.block_id)];
      reset_dense(staged, window, value_size_, node_reduce_,
                  Sharing::kExclusive);
      staged->set_key_offset(plan.node_begin);
      for (std::size_t e = from; e < to; ++e) {
        run_edge(staged.get(), edges[e]);
      }
    };
    device.run_blocks(blocks, 0, body);
    // Clean-loss death executes ZERO blocks (devsim contract), so the
    // host replay runs every block exactly once and the block-order merge
    // below is unchanged — the bytes match the fault-free run. Either way
    // exactly the blocks with edges ran; the others hold stale objects.
    if (device.lost()) device.host_replay(blocks, 0, body);
    for (int b = 0; b < blocks; ++b) {
      if (split.size(b) > 0) {
        local_result_->merge_from(*staging[static_cast<std::size_t>(b)]);
      }
    }
    return;
  }

  // Reduction-space tiling: the plan grouped this list by the tile of each
  // updated endpoint; each tile reduces inside the shared-memory arena and
  // the results concatenate into the local result.
  const std::size_t tile_nodes = plan.tile_nodes;
  const std::size_t num_tiles = list.tile_begin.size() - 1;
  const std::size_t arena_bytes =
      ReductionObject::required_bytes(tile_nodes, value_size_);
  auto body = [&](const devsim::BlockContext& ctx) {
    const std::size_t tile = static_cast<std::size_t>(ctx.block_id);
    const std::size_t from = list.tile_begin[tile];
    const std::size_t to = list.tile_begin[tile + 1];
    if (from == to) return;
    ReductionObject tile_object(ObjectLayout::kDense, tile_nodes, value_size_,
                                node_reduce_, ctx.shared,
                                Sharing::kExclusive);
    tile_object.set_key_offset(plan.node_begin + tile * tile_nodes);
    for (std::size_t e = from; e < to; ++e) {
      run_edge(&tile_object, edges[e]);
    }
    // Concatenate: tiles own disjoint reduction-space ranges, so this
    // merge is contention-free by construction (the local result, written
    // by every tile and device lane, keeps its slot locks).
    local_result_->merge_from(tile_object);
  };
  device.run_blocks(static_cast<int>(num_tiles), arena_bytes, body);
  // Tile bodies merge straight into local_result_, so a partial launch
  // would double-merge on replay; the zero-block clean-loss contract is
  // what makes this replay idempotent.
  if (device.lost()) device.host_replay(static_cast<int>(num_tiles),
                                        arena_bytes, body);
}

support::Status IReductionRuntime::start() {
  PSF_RETURN_IF_ERROR(validate());
  if (!partitioned_) build_partition();

  auto& comm = env_->comm();
  const auto devices = env_->active_devices();
  const double scale = env_->options().workload_scale;
  const double t0 = comm.timeline().now();

  // The local result lives across passes: it is rebuilt only when its
  // shape changed, and cleared otherwise. Device lanes and tiles merge into
  // it concurrently (disjoint slots), so it keeps its slot locks.
  reset_dense(local_result_, std::max<std::size_t>(num_local_, 1),
              value_size_, node_reduce_, Sharing::kShared);
  staging_.resize(devices.size());
  iteration_device_seconds_.assign(devices.size(), 0.0);
  iteration_device_edges_.assign(devices.size(), 0);

  // Arm a planned device loss for this pattern iteration. An already-lost
  // device stays lost (its edges keep replaying on the host); a device with
  // no edges this pass is skipped so the loss fires on a deterministic
  // launch.
  const int iteration = ++ir_epoch_;
  int armed = -1;
  if (const auto* plan = env_->fault_plan(); plan != nullptr) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (devices[d]->lost()) continue;
      const auto& dev_plan = device_plans_[d];
      if (dev_plan.local.assigned == 0 && dev_plan.cross.assigned == 0) {
        continue;
      }
      if (plan->device_fault_due(comm.rank(),
                                 devices[d]->descriptor().name(),
                                 iteration)) {
        devices[d]->fail_at(1);
        armed = static_cast<int>(d);
      }
    }
  }

  // Refresh each GPU's full node-data copy when node data changed
  // (paper III-D: "the node data has a full copy on each device").
  if (replicas_dirty_) {
    const double node_bytes_total = static_cast<double>(
        (num_local_ + remote_globals_.size()) * node_bytes_);
    const double node_scale = env_->options().effective_node_scale();
    double upload = 0.0;
    for (auto* device : devices) {
      if (device->is_accelerator()) {
        upload = std::max(
            upload,
            device->descriptor().h2d_link.cost(static_cast<std::size_t>(
                node_bytes_total * node_scale)));
      }
    }
    comm.timeline().advance(upload);
  }

  if (replicas_dirty_ && comm.size() > 1) {
    if (env_->options().overlap) {
      // Local edges overlap with the node-data exchange; cross edges wait.
      exchange_node_data(/*overlap_with_local_compute=*/true);
      compute_edges(/*include_local=*/false, /*include_cross=*/true,
                    comm.timeline().now());
    } else {
      exchange_node_data(/*overlap_with_local_compute=*/false);
      compute_edges(true, true, comm.timeline().now());
    }
    replicas_dirty_ = false;
  } else {
    replicas_dirty_ = false;
    compute_edges(true, true, comm.timeline().now());
  }

  // A device armed this iteration died on launch and its edges were
  // replayed on the host: charge the detection latency once. There is NO
  // repartition after a loss — the edge->device decomposition is preserved
  // (replayed by the host) precisely so the per-node contribution order,
  // and therefore the result bytes, match the fault-free run.
  if (armed >= 0 &&
      devices[static_cast<std::size_t>(armed)]->lost()) {
    const double detect_begin = comm.timeline().now();
    comm.timeline().advance(fault::kDeviceLossDetectS);
    PSF_METRIC_ADD("fault.recoveries", 1);
    if (auto* trace = env_->options().trace) {
      trace->record("device loss recovery", "fault", comm.rank(), 0,
                    detect_begin, comm.timeline().now());
    }
    fault::FaultLog::current().record(
        comm.rank(),
        "ir recover " +
            devices[static_cast<std::size_t>(armed)]->descriptor().name() +
            " iter=" + std::to_string(iteration));
  }

  // Adaptive partitioning: after the first (even-split) iteration, observe
  // device speeds and regroup the edges once (paper III-D).
  ++stats_.iterations;
  stats_.device_seconds = iteration_device_seconds_;
  stats_.device_edges = iteration_device_edges_;
  if (stats_.iterations == 1 && devices.size() > 1) {
    PSF_METRIC_ADD("pattern.ir.repartitions", 1);
    partitioner_.observe(iteration_device_edges_, iteration_device_seconds_);
    build_device_plans(partitioner_.speeds());
    // Regrouped edges are re-staged into each GPU's device memory.
    double restage = 0.0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (!devices[d]->is_accelerator()) continue;
      const auto& plan = device_plans_[d];
      const std::size_t edge_bytes_total =
          (plan.local.assigned + plan.cross.assigned) *
          sizeof(DeviceEdge);
      restage = std::max(
          restage, devices[d]->descriptor().h2d_link.cost(
                       static_cast<std::size_t>(
                           static_cast<double>(edge_bytes_total) * scale)));
    }
    comm.timeline().advance(restage);
  }

  stats_.last_compute_vtime = comm.timeline().now() - t0;
#ifndef PSF_DISABLE_METRICS
  PSF_METRIC_ADD("pattern.ir.runs", 1);
  PSF_METRIC_OBSERVE("pattern.ir.compute_vtime", stats_.last_compute_vtime);
  {
    auto& registry = metrics::Registry::current();
    for (std::size_t d = 0; d < devices.size(); ++d) {
      registry.counter("pattern.ir.edges." + devices[d]->descriptor().name())
          .add(iteration_device_edges_[d]);
    }
  }
#endif
  return support::Status::ok();
}

const ReductionObject& IReductionRuntime::get_local_reduction() const {
  PSF_CHECK_MSG(local_result_ != nullptr,
                "get_local_reduction() before start()");
  return *local_result_;
}

void IReductionRuntime::update_nodedata(IrNodeUpdateFn update) {
  PSF_CHECK_MSG(local_result_ != nullptr, "update_nodedata() before start()");
  const double scale = env_->options().effective_node_scale();
  // Every local node is updated; nodes that accumulated no contribution get
  // a null value (e.g. molecules with no in-cutoff neighbor still move).
  for (std::size_t n = 0; n < num_local_; ++n) {
    std::byte* node = local_node_data_.data() + n * node_bytes_;
    update(node, local_result_->find(n), parameter_);
    // Write back to the global array — the simulated distributed result
    // files, also read by follow-on generalized reduction kernels.
    std::memcpy(nodes_ + (local_begin_ + n) * node_bytes_, node, node_bytes_);
  }
  env_->comm().timeline().advance(
      static_cast<double>(num_local_ * node_bytes_) * scale / kHostCopyBw);
  replicas_dirty_ = true;
}

}  // namespace psf::pattern
