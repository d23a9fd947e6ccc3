#include "pattern/stencil.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <string>

#include "exec/latch.h"
#include "fault/fault.h"
#include "exec/parallel_for.h"
#include "pattern/partition.h"
#include "pattern/runtime_env.h"
#include "support/log.h"
#include "support/metrics.h"
#include "telemetry/prof.h"
#include "timemodel/timeline.h"

namespace psf::pattern {

namespace {
constexpr int kHaloTagBase = 0x5c0010;  ///< + 2*dim + direction
constexpr int kGatherTag = kHaloTagBase + 6;  ///< after the six halo tags
constexpr double kHostCopyBw = 2.0e10;  ///< multithreaded pack bandwidth

// Checkpoint blob framing (docs/RESILIENCE.md): "PSFSTCKP" + version.
constexpr std::uint64_t kCheckpointMagic = 0x50534653'54434B50ULL;
constexpr std::uint32_t kCheckpointVersion = 1;

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
bool read_pod(std::span<const std::byte>& in, T& value) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

/// Grid extents padded to three dimensions with 1s.
std::array<std::size_t, 3> extents3(const std::vector<std::size_t>& dims) {
  std::array<std::size_t, 3> out = {1, 1, 1};
  std::copy(dims.begin(), dims.end(), out.begin());
  return out;
}

/// Calls `fn(c)` with the first cell of every line of the box [lo, hi)
/// along `line_dim`, in row-major order. Lines run along the last user
/// dimension: its cells are contiguous in every row-major layout of the grid
/// (the internal dimensions after it have extent 1), so one line is one
/// memcpy.
template <typename T, typename Fn>
void for_each_line(const std::array<T, 3>& lo, std::array<T, 3> hi,
                   std::size_t line_dim, Fn fn) {
  hi[line_dim] = lo[line_dim] + 1;
  std::array<T, 3> c{};
  for (c[0] = lo[0]; c[0] < hi[0]; ++c[0]) {
    for (c[1] = lo[1]; c[1] < hi[1]; ++c[1]) {
      for (c[2] = lo[2]; c[2] < hi[2]; ++c[2]) fn(c);
    }
  }
}

/// Copy a box of `ext` cells at global offset `off` into the row-major
/// global grid of extents `dims`, one line at a time; `line(c)` points at
/// the source of the line starting at box coordinate `c`.
template <typename LineSource>
void store_box(std::byte* out, const std::array<std::size_t, 3>& dims,
               const std::array<std::size_t, 3>& off,
               const std::array<std::size_t, 3>& ext, std::size_t line_dim,
               std::size_t elem_bytes, LineSource line) {
  const std::size_t line_bytes = ext[line_dim] * elem_bytes;
  for_each_line<std::size_t>({0, 0, 0}, ext, line_dim, [&](const auto& c) {
    const std::size_t dst =
        ((off[0] + c[0]) * dims[1] + (off[1] + c[1])) * dims[2] + off[2] +
        c[2];
    std::memcpy(out + dst * elem_bytes, line(c), line_bytes);
  });
}
}  // namespace

StencilRuntime::StencilRuntime(RuntimeEnv& env) : env_(&env) {}
StencilRuntime::~StencilRuntime() = default;

void StencilRuntime::set_grid(const void* global_grid, std::size_t elem_bytes,
                              const std::vector<std::size_t>& dims) {
  global_grid_ = static_cast<const std::byte*>(global_grid);
  elem_bytes_ = elem_bytes;
  global_dims_ = dims;
  ready_ = false;
}

support::Status StencilRuntime::validate() const {
  // A failed init() built no devices; nothing below may run.
  PSF_RETURN_IF_ERROR(env_->init());
  if (kernel_ == nullptr) {
    return support::Status::failed_precondition(
        "stencil: stencil kernel not set");
  }
  if (global_grid_ == nullptr || elem_bytes_ == 0) {
    return support::Status::failed_precondition("stencil: grid not set");
  }
  if (global_dims_.empty() || global_dims_.size() > kMaxDims) {
    return support::Status::invalid_argument(
        "stencil: grid must have 1-3 dimensions");
  }
  if (halo_ < 1) {
    return support::Status::invalid_argument(
        "stencil: halo width must be >= 1");
  }
  return support::Status::ok();
}

void StencilRuntime::setup() {
  auto& comm = env_->comm();
  ndims_ = static_cast<int>(global_dims_.size());

  std::vector<int> topo = topology_;
  if (topo.empty()) {
    topo = minimpi::CartComm::choose_dims(comm.size(), ndims_);
  }
  PSF_CHECK_MSG(static_cast<int>(topo.size()) == ndims_,
                "topology rank must equal grid dimensionality");
  std::vector<bool> periodic(static_cast<std::size_t>(ndims_), false);
  if (!periodic_.empty()) {
    PSF_CHECK_MSG(periodic_.size() == static_cast<std::size_t>(ndims_),
                  "periodic flags must match grid dimensionality");
    periodic = periodic_;
  }
  for (int d = 0; d < ndims_; ++d) {
    wrap_[static_cast<std::size_t>(d)] = periodic[static_cast<std::size_t>(d)];
  }
  cart_ = std::make_unique<minimpi::CartComm>(comm, topo, periodic);

  local_ext_.assign(static_cast<std::size_t>(ndims_), 0);
  global_off_.assign(static_cast<std::size_t>(ndims_), 0);
  ext3_ = {1, 1, 1};
  padded_ = {1, 1, 1};
  halo3_ = {0, 0, 0};
  goff3_ = {0, 0, 0};
  neighbor_lo_ = {minimpi::kNoNeighbor, minimpi::kNoNeighbor,
                  minimpi::kNoNeighbor};
  neighbor_hi_ = {minimpi::kNoNeighbor, minimpi::kNoNeighbor,
                  minimpi::kNoNeighbor};

  for (int d = 0; d < ndims_; ++d) {
    const BlockPartition split(global_dims_[static_cast<std::size_t>(d)],
                               topo[static_cast<std::size_t>(d)]);
    const int coord = cart_->coords()[static_cast<std::size_t>(d)];
    local_ext_[static_cast<std::size_t>(d)] = split.size(coord);
    global_off_[static_cast<std::size_t>(d)] = split.begin(coord);
    PSF_CHECK_MSG(split.size(coord) >= static_cast<std::size_t>(halo_),
                  "sub-grid extent smaller than the halo width; use fewer "
                  "processes or a smaller halo");
    ext3_[static_cast<std::size_t>(d)] = split.size(coord);
    goff3_[static_cast<std::size_t>(d)] = split.begin(coord);
    halo3_[static_cast<std::size_t>(d)] = halo_;
    padded_[static_cast<std::size_t>(d)] =
        split.size(coord) + 2 * static_cast<std::size_t>(halo_);
    neighbor_lo_[static_cast<std::size_t>(d)] = cart_->neighbor(d, -1);
    neighbor_hi_[static_cast<std::size_t>(d)] = cart_->neighbor(d, +1);
  }

  const std::size_t cells = padded_[0] * padded_[1] * padded_[2];
  in_.resize(cells * elem_bytes_);
  out_.resize(cells * elem_bytes_);

  // Scatter: copy every padded cell whose global image exists. This also
  // seeds halos (refreshed by exchanges) and the fixed global border. Every
  // padded line maps onto the same runs of consecutive global cells (one
  // clipped run, or up to three when a periodic halo wraps around); each
  // run is one memcpy per line.
  const std::size_t line_dim = static_cast<std::size_t>(ndims_ - 1);
  const auto gdims = extents3(global_dims_);
  // Global coordinate of padded coordinate c along d; -1 outside a
  // non-periodic grid.
  const auto global_of = [&](std::size_t d, std::size_t c) -> long long {
    const long long n = static_cast<long long>(gdims[d]);
    const long long g = static_cast<long long>(goff3_[d] + c) - halo3_[d];
    if (wrap_[d]) return ((g % n) + n) % n;
    return g >= 0 && g < n ? g : -1;
  };
  struct Run {
    std::size_t first;  ///< padded coordinate
    long long global;   ///< its global coordinate
    std::size_t length;
  };
  std::vector<Run> runs;
  for (std::size_t c = 0; c < padded_[line_dim]; ++c) {
    const long long g = global_of(line_dim, c);
    if (g < 0) continue;
    if (!runs.empty() && runs.back().first + runs.back().length == c &&
        runs.back().global + static_cast<long long>(runs.back().length) ==
            g) {
      ++runs.back().length;
    } else {
      runs.push_back({c, g, 1});
    }
  }
  for_each_line<std::size_t>({0, 0, 0}, padded_, line_dim, [&](auto c) {
    std::array<long long, kMaxDims> g{};
    for (std::size_t d = 0; d < kMaxDims; ++d) {
      if (d == line_dim) continue;
      g[d] = global_of(d, c[d]);
      if (g[d] < 0) return;
    }
    for (const Run& run : runs) {
      c[line_dim] = run.first;
      g[line_dim] = run.global;
      const std::size_t src =
          ((static_cast<std::size_t>(g[0]) * gdims[1] +
            static_cast<std::size_t>(g[1])) *
               gdims[2] +
           static_cast<std::size_t>(g[2])) *
          elem_bytes_;
      const std::size_t dst =
          ((c[0] * padded_[1] + c[1]) * padded_[2] + c[2]) * elem_bytes_;
      std::memcpy(in_.data() + dst, global_grid_ + src,
                  run.length * elem_bytes_);
    }
  });
  std::memcpy(out_.data(), in_.data(), in_.size());

  const int num_devices = static_cast<int>(env_->active_devices().size());
  partitioner_ = AdaptivePartitioner(num_devices);
  const WeightedPartition rows(ext3_[0], partitioner_.speeds());
  device_row_bounds_.assign(static_cast<std::size_t>(num_devices) + 1, 0);
  for (int d = 0; d < num_devices; ++d) {
    device_row_bounds_[static_cast<std::size_t>(d)] = rows.begin(d);
  }
  device_row_bounds_.back() = ext3_[0];
  stats_ = {};
  stats_.device_split.assign(static_cast<std::size_t>(num_devices),
                             1.0 / num_devices);

  // GPUs prefer L1 for stencils (paper III-E).
  for (auto* device : env_->active_devices()) {
    if (device->is_gpu()) {
      device->set_cache_preference(devsim::CachePreference::kPreferL1);
    }
  }

  // Segment cut points and cell-class counts, once per geometry. Along
  // dimension d a cell is fixed when it lies within `halo_` of a
  // non-periodic global border, and boundary when it lies within the halo
  // width of a face that has a neighbor rank (it reads halo data). The
  // inner box is the product of the per-dimension inner runs.
  stats_.inner_cells = 1;
  for (int d = 0; d < kMaxDims; ++d) {
    const std::size_t dd = static_cast<std::size_t>(d);
    if (d >= ndims_) {
      segment_cuts_[dd] = {0, 0, 0, 1, 1, 1};
      continue;
    }
    const int h = halo3_[dd];
    const int ext = static_cast<int>(ext3_[dd]);
    const int first = h;
    const int last = h + ext;
    const int inner_lo = neighbor_lo_[dd] != minimpi::kNoNeighbor ? 2 * h : h;
    const int inner_hi = neighbor_hi_[dd] != minimpi::kNoNeighbor ? ext : last;
    int fixed_lo = first;
    int fixed_hi = last;
    if (!wrap_[dd]) {
      // Padded coordinate c has global coordinate goff + c - h.
      const long long goff = static_cast<long long>(goff3_[dd]);
      const long long global = static_cast<long long>(global_dims_[dd]);
      fixed_lo = static_cast<int>(
          std::clamp<long long>(halo_ - goff + h, first, last));
      fixed_hi = static_cast<int>(
          std::clamp<long long>(global - halo_ - goff + h, fixed_lo, last));
    }
    const int cut_lo = std::clamp(inner_lo, fixed_lo, fixed_hi);
    const int cut_hi = std::clamp(inner_hi, cut_lo, fixed_hi);
    segment_cuts_[dd] = {first, fixed_lo, cut_lo, cut_hi, fixed_hi, last};
    stats_.inner_cells *=
        static_cast<std::size_t>(std::max(0, inner_hi - inner_lo));
  }
  stats_.boundary_cells = ext3_[0] * ext3_[1] * ext3_[2] - stats_.inner_cells;

  PSF_LOG(kDebug, "stencil")
      << "rank " << comm.rank() << ": sub-grid " << ext3_[0] << "x"
      << ext3_[1] << "x" << ext3_[2] << " at (" << goff3_[0] << ","
      << goff3_[1] << "," << goff3_[2] << "), " << stats_.inner_cells
      << " inner / " << stats_.boundary_cells << " boundary cells";
  ready_ = true;
}

void StencilRuntime::pack_box(const std::array<int, kMaxDims>& lo,
                              const std::array<int, kMaxDims>& hi,
                              std::byte* dst) const {
  const std::size_t line_dim = static_cast<std::size_t>(ndims_ - 1);
  const std::size_t line_bytes =
      static_cast<std::size_t>(hi[line_dim] - lo[line_dim]) * elem_bytes_;
  for_each_line(lo, hi, line_dim, [&](const auto& c) {
    std::memcpy(dst, in_.data() + padded_index(c) * elem_bytes_, line_bytes);
    dst += line_bytes;
  });
}

void StencilRuntime::unpack_box(const std::array<int, kMaxDims>& lo,
                                const std::array<int, kMaxDims>& hi,
                                const std::byte* src) {
  const std::size_t line_dim = static_cast<std::size_t>(ndims_ - 1);
  const std::size_t line_bytes =
      static_cast<std::size_t>(hi[line_dim] - lo[line_dim]) * elem_bytes_;
  for_each_line(lo, hi, line_dim, [&](const auto& c) {
    std::memcpy(in_.data() + padded_index(c) * elem_bytes_, src, line_bytes);
    src += line_bytes;
  });
}

std::size_t StencilRuntime::exchange_dim(int dim) {
  auto& comm = env_->comm();
  const std::size_t dd = static_cast<std::size_t>(dim);
  const int h = halo3_[dd];
  if (h == 0) return 0;
  const int lo_rank = neighbor_lo_[dd];
  const int hi_rank = neighbor_hi_[dd];
  if (lo_rank == minimpi::kNoNeighbor && hi_rank == minimpi::kNoNeighbor) {
    return 0;
  }
  // Halo planes are surface quantities: price with the comm scale.
  const double scale = env_->options().effective_comm_scale();
  const bool any_gpu = env_->options().use_gpus > 0;
  const auto& overheads = env_->options().preset.overheads;

  // Face boxes span the FULL padded extent of the other dimensions so that
  // corner halo values propagate through the dimension-by-dimension sweep.
  auto face = [&](bool low, bool halo_region, std::array<int, kMaxDims>& lo,
                  std::array<int, kMaxDims>& hi) {
    for (int d = 0; d < kMaxDims; ++d) {
      lo[static_cast<std::size_t>(d)] = 0;
      hi[static_cast<std::size_t>(d)] =
          static_cast<int>(padded_[static_cast<std::size_t>(d)]);
    }
    const int extent = static_cast<int>(ext3_[dd]);
    if (halo_region) {
      lo[dd] = low ? 0 : extent + h;
      hi[dd] = low ? h : extent + 2 * h;
    } else {
      lo[dd] = low ? h : extent;
      hi[dd] = low ? 2 * h : extent + h;
    }
  };

  auto box_bytes = [&](const std::array<int, kMaxDims>& lo,
                       const std::array<int, kMaxDims>& hi) {
    return static_cast<std::size_t>(hi[0] - lo[0]) *
           static_cast<std::size_t>(hi[1] - lo[1]) *
           static_cast<std::size_t>(hi[2] - lo[2]) * elem_bytes_;
  };

  const int tag_lo = kHaloTagBase + 2 * dim;      // data travelling downward
  const int tag_hi = kHaloTagBase + 2 * dim + 1;  // data travelling upward
  std::size_t sent = 0;

  std::array<int, kMaxDims> lo{};
  std::array<int, kMaxDims> hi{};

  // Step 1-2: pack the (possibly non-contiguous) boundary strips directly
  // into pooled payloads — the staging buffer IS the message, so after the
  // first iteration warms the pool no halo send allocates or double-copies.
  // GPUs pack through a zero-copy kernel into a host-mapped buffer.
  if (lo_rank != minimpi::kNoNeighbor) {
    face(/*low=*/true, /*halo_region=*/false, lo, hi);
    auto staged = comm.acquire_buffer(box_bytes(lo, hi));
    pack_box(lo, hi, staged.data());
    comm.timeline().advance(
        (any_gpu ? overheads.kernel_launch_s : 0.0) +
        static_cast<double>(staged.size()) * scale / kHostCopyBw);
    sent += staged.size();
    comm.isend_pooled(lo_rank, tag_lo, std::move(staged));
  }
  if (hi_rank != minimpi::kNoNeighbor) {
    face(/*low=*/false, /*halo_region=*/false, lo, hi);
    auto staged = comm.acquire_buffer(box_bytes(lo, hi));
    pack_box(lo, hi, staged.data());
    comm.timeline().advance(
        (any_gpu ? overheads.kernel_launch_s : 0.0) +
        static_cast<double>(staged.size()) * scale / kHostCopyBw);
    sent += staged.size();
    comm.isend_pooled(hi_rank, tag_hi, std::move(staged));
  }

  // Steps 4-5: receive and unpack into the halo regions (for GPUs via the
  // host-mapped buffer and an unpack kernel). Under
  // EnvOptions::stream_pipeline the PCIe upload and the unpack kernel ride
  // the accelerator's double-buffered streams asynchronously — they overlap
  // the recv waits of later dims and the concurrent inner tiles, and the
  // host only waits for them at the boundary-pass drain in start(). The
  // host-side staging copy stays on the host timeline either way.
  const auto& pcie = env_->options().preset.pcie;
  devsim::StreamPipeline* pipeline =
      (any_gpu && env_->options().stream_pipeline) ? halo_pipeline() : nullptr;
  auto price_unpack = [&](std::size_t payload_bytes) {
    comm.timeline().advance(static_cast<double>(payload_bytes) * scale /
                            kHostCopyBw);
    if (!any_gpu) return;
    const auto upload_bytes = static_cast<std::size_t>(
        static_cast<double>(payload_bytes) * scale);
    if (pipeline != nullptr) {
      pipeline->step(upload_bytes, overheads.kernel_launch_s, "halo unpack");
    } else {
      comm.timeline().advance(overheads.kernel_launch_s +
                              pcie.cost(upload_bytes));
    }
  };
  if (lo_rank != minimpi::kNoNeighbor) {
    auto message = comm.recv_any(lo_rank, tag_hi);
    face(/*low=*/true, /*halo_region=*/true, lo, hi);
    PSF_CHECK_MSG(message.payload.size() == box_bytes(lo, hi),
                  "halo size mismatch on dim " << dim);
    unpack_box(lo, hi, message.payload.data());
    price_unpack(message.payload.size());
  }
  if (hi_rank != minimpi::kNoNeighbor) {
    auto message = comm.recv_any(hi_rank, tag_lo);
    face(/*low=*/false, /*halo_region=*/true, lo, hi);
    PSF_CHECK_MSG(message.payload.size() == box_bytes(lo, hi),
                  "halo size mismatch on dim " << dim);
    unpack_box(lo, hi, message.payload.data());
    price_unpack(message.payload.size());
  }
  return sent;
}

devsim::StreamPipeline* StencilRuntime::halo_pipeline() {
  if (!halo_pipeline_probed_) {
    halo_pipeline_probed_ = true;
    for (auto* device : env_->active_devices()) {
      if (device->is_accelerator()) {
        halo_pipeline_ = std::make_unique<devsim::StreamPipeline>(*device);
        break;
      }
    }
  }
  return halo_pipeline_.get();
}

void StencilRuntime::compute_rows(int device_index, std::size_t row_begin,
                                  std::size_t row_end, bool want_inner) {
  walk_rows(device_index, row_begin, row_end, want_inner,
            /*apply_stencil=*/true, fused_emit_, fused_emit_parameter_,
            fused_sink_, in_.data(), out_.data());
}

void StencilRuntime::walk_rows(int device_index, std::size_t row_begin,
                               std::size_t row_end, bool want_inner,
                               bool apply_stencil, CellEmitFn emit,
                               const void* emit_parameter,
                               StencilEmitSink* sink,
                               const std::byte* old_grid,
                               std::byte* new_grid) {
  if (row_begin >= row_end) return;
  auto devices = env_->active_devices();
  devsim::Device& device = *devices[static_cast<std::size_t>(device_index)];

  const int blocks = device.descriptor().compute_units;
  const BlockPartition split(row_end - row_begin, blocks);
  const std::byte* in = old_grid;
  std::byte* out = new_grid;

  // Lines run along the last user dimension, contiguous in padded memory
  // (the internal dimensions after it have the single coordinate 0).
  const std::size_t line_dim = static_cast<std::size_t>(ndims_ - 1);
  const auto& cuts = segment_cuts_;
  constexpr int kInner = 0;
  constexpr int kBoundary = 1;
  constexpr int kFixed = 2;
  constexpr std::array<int, 5> kRunClass = {kFixed, kBoundary, kInner,
                                            kBoundary, kFixed};
  const auto coord_class = [&](std::size_t d, int coord) {
    std::size_t run = 0;
    while (run < 4 && coord >= cuts[d][run + 1]) ++run;
    return kRunClass[run];
  };

  const auto body = [&](const devsim::BlockContext& ctx) {
    // A fresh staging object per block launch keeps host replay after a
    // device loss idempotent (the sink resets the slot on fetch).
    ReductionObject* staged =
        (emit != nullptr && sink != nullptr)
            ? sink->block_object(device_index, ctx.block_id, want_inner)
            : nullptr;
    int size_user[kMaxDims] = {0, 0, 0};
    for (int d = 0; d < ndims_; ++d) {
      size_user[d] = static_cast<int>(padded_[static_cast<std::size_t>(d)]);
    }
    // The block's range: its rows in dim 0, the whole interior elsewhere.
    std::array<int, kMaxDims> lo{};
    std::array<int, kMaxDims> hi{};
    for (std::size_t d = 0; d < kMaxDims; ++d) {
      lo[d] = cuts[d].front();
      hi[d] = cuts[d].back();
    }
    lo[0] = static_cast<int>(row_begin + split.begin(ctx.block_id)) +
            halo3_[0];
    hi[0] = static_cast<int>(row_begin + split.end(ctx.block_id)) + halo3_[0];
    const int line_lo = lo[line_dim];
    const int line_hi = hi[line_dim];
    lo[line_dim] = 0;  // the outer loops below take one pass over the line
    hi[line_dim] = 1;

    std::array<int, kMaxDims> c{};
    int& pos = c[line_dim];
    // One segment: cells [begin, end) of the line at `c`, all of class cls.
    const auto visit = [&](int cls, int begin, int end) {
      if ((cls == kInner) != want_inner) return;
      pos = begin;
      if (apply_stencil) {
        if (cls == kFixed) {
          // Fixed global border: copied through on the boundary pass.
          const std::size_t base = padded_index(c) * elem_bytes_;
          std::memcpy(out + base, in + base,
                      static_cast<std::size_t>(end - begin) * elem_bytes_);
        } else {
          kernel_(in, out, c.data(), size_user, end - begin, parameter_);
        }
      }
      if (staged == nullptr) return;
      // Each emit reads only its own cell, which the kernel has written.
      for (pos = begin; pos < end; ++pos) {
        emit(staged, old_grid, new_grid, c.data(), size_user, emit_parameter);
      }
    };

    for (int c0 = lo[0]; c0 < hi[0]; ++c0) {
      const int class0 = line_dim > 0 ? coord_class(0, c0) : kInner;
      for (int c1 = lo[1]; c1 < hi[1]; ++c1) {
        const int outer_class =
            std::max(class0, line_dim > 1 ? coord_class(1, c1) : kInner);
        c = {c0, c1, 0};
        // The line's five runs, clipped to the block, with adjacent runs of
        // the same class merged into one segment.
        int seg_class = -1;
        int seg_begin = line_lo;
        for (std::size_t run = 0; run < kRunClass.size(); ++run) {
          const int begin = std::max(cuts[line_dim][run], line_lo);
          const int end = std::min(cuts[line_dim][run + 1], line_hi);
          if (begin >= end) continue;
          const int cls = std::max(outer_class, kRunClass[run]);
          if (cls == seg_class) continue;
          if (seg_class >= 0) visit(seg_class, seg_begin, begin);
          seg_class = cls;
          seg_begin = begin;
        }
        if (seg_class >= 0) visit(seg_class, seg_begin, line_hi);
      }
    }
  };
  device.run_blocks(blocks, 0, body);
  if (device.lost()) {
    // The aborted launch ran zero blocks (clean-loss semantics, devsim);
    // replay it on the host. Stencil cells are pure functions of `in_`, so
    // re-execution writes the exact bytes the device would have.
    device.host_replay(blocks, 0, body);
  }
}

support::Status StencilRuntime::reduce_pass(CellEmitFn emit,
                                            const void* emit_parameter,
                                            StencilEmitSink* sink) {
  if (emit == nullptr || sink == nullptr) {
    return support::Status::invalid_argument(
        "stencil: reduce_pass() needs a cell emit function and a staging "
        "sink; see pattern/compose.h (StencilReduce runs this for you)");
  }
  if (!ready_ || stats_.iterations == 0 || last_sweep_row_bounds_.empty()) {
    return support::Status::failed_precondition(
        "stencil: reduce_pass() must follow a completed sweep — call "
        "start() first");
  }

  auto& comm = env_->comm();
  const auto devices = env_->active_devices();
  const auto specs = env_->device_specs(/*gpu_resident_data=*/true);
  const double scale = env_->options().workload_scale;
  const auto& overheads = env_->options().preset.overheads;
  const double fork = comm.timeline().now();

  // After start()'s buffer swap the sweep's OUTPUT lives in in_ and its
  // input in out_, so the emit sees (old = out_, new = in_). The walk
  // repeats the sweep's exact device/block/inner-then-boundary structure
  // over the sweep's row split, so the per-key combine order matches the
  // fused path bit for bit. A device lost during the sweep executes
  // nothing here and walk_rows host-replays its blocks, same as the sweep.
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_inner = pass == 0;
    exec::parallel_for(env_->executor(), devices.size(), [&](std::size_t d) {
      PSF_PROF_SCOPE("st.emit");
      walk_rows(static_cast<int>(d), last_sweep_row_bounds_[d],
                last_sweep_row_bounds_[d + 1], want_inner,
                /*apply_stencil=*/false, emit, emit_parameter, sink,
                out_.data(), in_.data());
    });
  }

  // Price a full extra grid pass: per device one launch plus every interior
  // cell of its rows, on a forked lane set joined at the end — the pass (and
  // barrier) the fused emit eliminates. Deliberately NOT fed into
  // iteration_device_seconds_, so the adaptive repartition sees identical
  // profiles in fused and unfused modes. Lost devices are priced at the
  // first survivor's (host) rate, mirroring price_pass.
  double host_rate = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (!devices[d]->lost()) {
      host_rate = specs[d].units_per_s;
      break;
    }
  }
  const double interior_plane =
      static_cast<double>(ext3_[1]) * static_cast<double>(ext3_[2]);
  timemodel::LaneSet lanes(devices.size(), fork);
  reduce_span_ids_.assign(devices.size(), 0);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const double rows = static_cast<double>(last_sweep_row_bounds_[d + 1] -
                                            last_sweep_row_bounds_[d]);
    if (rows == 0.0) continue;
    const double cells = rows * interior_plane;
    double rate = specs[d].units_per_s;
    if (devices[d]->lost()) {
      PSF_CHECK_MSG(host_rate > 0.0, "stencil: every device is lost");
      rate = host_rate;
    }
    const double launches = devices[d]->is_accelerator()
                                ? overheads.kernel_launch_s
                                : overheads.thread_fork_s;
    lanes.advance(d, launches + cells * scale / rate);
  }
  if (auto* trace = env_->options().trace) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (last_sweep_row_bounds_[d + 1] == last_sweep_row_bounds_[d]) continue;
      reduce_span_ids_[d] =
          trace->record("reduce pass", "compute", comm.rank(),
                        static_cast<int>(d) + 1, fork, lanes.time(d));
    }
  }
  lanes.join(comm.timeline());
  last_reduce_pass_vtime_ = comm.timeline().now() - fork;
  PSF_METRIC_ADD("pattern.st.reduce_passes", 1);
  PSF_METRIC_OBSERVE("pattern.st.reduce_pass_vtime", last_reduce_pass_vtime_);
  return support::Status::ok();
}

support::Status StencilRuntime::start() {
  PSF_RETURN_IF_ERROR(validate());
  if (!ready_) setup();

  auto& comm = env_->comm();
  const auto devices = env_->active_devices();
  const auto specs = env_->device_specs(/*gpu_resident_data=*/true);
  const double scale = env_->options().workload_scale;
  const auto& overheads = env_->options().preset.overheads;
  const bool tiling = env_->options().tiling;
  const double t0 = comm.timeline().now();

  iteration_device_seconds_.assign(devices.size(), 0.0);
  // Snapshot the row split this sweep computes with: a following
  // reduce_pass (unfused stencil_reduce) must walk the same structure even
  // after the end-of-sweep repartition or a device drop moves the bounds.
  last_sweep_row_bounds_ = device_row_bounds_;
  boundary_span_ids_.assign(devices.size(), 0);

  // Device-loss injection: arm any loss due this sweep. The armed device
  // dies on its first launch (executing nothing); compute_rows replays its
  // rows on the host and price_pass below charges them at the host rate.
  const fault::FaultPlan* plan = env_->fault_plan();
  int armed = -1;
  if (plan != nullptr && !plan->device_faults().empty()) {
    const int iteration = stats_.iterations + 1;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (devices[d]->lost()) continue;
      if (device_row_bounds_[d + 1] == device_row_bounds_[d]) continue;
      if (plan->device_fault_due(comm.rank(), devices[d]->descriptor().name(),
                                 iteration) != nullptr) {
        devices[d]->fail_at(1);
        armed = static_cast<int>(d);
        break;
      }
    }
  }

  // Per-device cell tallies for pricing (geometry-derived; the functional
  // pass computes exactly these cells).
  const double interior_plane =
      static_cast<double>(ext3_[1]) * static_cast<double>(ext3_[2]);
  const double total_cells = static_cast<double>(stats_.inner_cells) +
                             static_cast<double>(stats_.boundary_cells);
  const double boundary_fraction =
      total_cells > 0.0
          ? static_cast<double>(stats_.boundary_cells) / total_cells
          : 0.0;

  auto price_pass = [&](timemodel::LaneSet& lanes, bool inner_pass) {
    // A lost device's rows were replayed by the host, so they are priced at
    // the first survivor's rate. Fault-free runs never take this branch.
    double host_rate = 0.0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (!devices[d]->lost()) {
        host_rate = specs[d].units_per_s;
        break;
      }
    }
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const double rows = static_cast<double>(device_row_bounds_[d + 1] -
                                              device_row_bounds_[d]);
      if (rows == 0.0) continue;
      double cells = rows * interior_plane;
      cells *= inner_pass ? (1.0 - boundary_fraction) : boundary_fraction;
      double rate = specs[d].units_per_s;
      if (devices[d]->lost()) {
        PSF_CHECK_MSG(host_rate > 0.0, "stencil: every device is lost");
        rate = host_rate;
      }
      double launches = devices[d]->is_accelerator()
                            ? overheads.kernel_launch_s
                            : overheads.thread_fork_s;
      if (!tiling) {
        // Without tiling both device kinds lose neighbor-reuse locality
        // (CPU cache lines, GPU L1 under PreferL1), and each boundary
        // plane needs its own kernel launch (paper III-E).
        rate /= 1.2;
        if (!inner_pass && devices[d]->is_gpu()) {
          launches *= static_cast<double>(2 * ndims_);
        }
      }
      lanes.advance(d, launches + cells * scale / rate);
      iteration_device_seconds_[d] += launches + cells * scale / rate;
    }
  };

  const bool overlap = env_->options().overlap;
  std::size_t halo_bytes = 0;
  double exchange_end = comm.timeline().now();
  // Span ids carried forward so the boundary pass can record its causal
  // dependencies (exchange -> boundary, inner_d -> boundary_d).
  std::uint64_t exchange_span = 0;
  std::uint64_t sync_span = 0;
  std::vector<std::uint64_t> inner_spans(devices.size(), 0);

  if (overlap) {
    // Steps 1-3: pack, asynchronous exchange, inner tiles concurrently.
    // With a concurrent executor the inner tiles really do run while the
    // rank thread drives the halo exchange: inner cells never read the halo
    // regions the exchange unpacks into (that is what makes them "inner"),
    // so the two proceed race-free. Virtual-time pricing is identical to
    // the serial engine either way.
    const double fork = comm.timeline().now();
    auto& pool = env_->executor();
    const bool concurrent = pool.concurrent();
    exec::Latch inner_done(concurrent ? devices.size() : 0);
    std::mutex error_mutex;
    std::exception_ptr inner_error;
    if (concurrent) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        pool.submit([&, d] {
          try {
            compute_rows(static_cast<int>(d), device_row_bounds_[d],
                         device_row_bounds_[d + 1], /*want_inner=*/true);
          } catch (...) {
            std::lock_guard<std::mutex> guard(error_mutex);
            if (!inner_error) inner_error = std::current_exception();
          }
          inner_done.count_down();
        });
      }
    }
    for (int d = 0; d < ndims_; ++d) halo_bytes += exchange_dim(d);
    exchange_end = comm.timeline().now();
    stats_.last_exchange_vtime = exchange_end - fork;
    if (concurrent) {
      // Help the pool with the in-flight tiles instead of blocking.
      pool.help_while([&] { return inner_done.try_wait(); });
      if (inner_error) std::rethrow_exception(inner_error);
    } else {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        compute_rows(static_cast<int>(d), device_row_bounds_[d],
                     device_row_bounds_[d + 1], /*want_inner=*/true);
      }
    }

    timemodel::LaneSet lanes(devices.size(), fork);
    price_pass(lanes, /*inner_pass=*/true);
#ifndef PSF_DISABLE_METRICS
    // Overlap efficiency: the fraction of the halo exchange hidden under
    // inner-tile compute. Both spans start at `fork`, so the overlapped
    // portion is the shorter of the two.
    if (exchange_end > fork) {
      double inner_end = fork;
      for (std::size_t d = 0; d < devices.size(); ++d) {
        inner_end = std::max(inner_end, lanes.time(d));
      }
      PSF_METRIC_GAUGE_SET(
          "pattern.st.overlap_efficiency",
          (std::min(exchange_end, inner_end) - fork) / (exchange_end - fork));
    }
#endif
    if (auto* trace = env_->options().trace) {
      exchange_span = trace->record("halo exchange", "comm", comm.rank(), 0,
                                    fork, exchange_end);
      for (std::size_t d = 0; d < devices.size(); ++d) {
        inner_spans[d] =
            trace->record("inner tiles", "compute", comm.rank(),
                          static_cast<int>(d) + 1, fork, lanes.time(d));
      }
    }
    lanes.join(comm.timeline());
  } else {
    const double ex0 = comm.timeline().now();
    for (int d = 0; d < ndims_; ++d) halo_bytes += exchange_dim(d);
    exchange_end = comm.timeline().now();
    stats_.last_exchange_vtime = exchange_end - ex0;

    // Device lanes run concurrently; rows are disjoint between devices.
    exec::parallel_for(env_->executor(), devices.size(), [&](std::size_t d) {
      PSF_PROF_SCOPE("st.inner");
      compute_rows(static_cast<int>(d), device_row_bounds_[d],
                   device_row_bounds_[d + 1], /*want_inner=*/true);
    });
    const double fork = comm.timeline().now();
    timemodel::LaneSet lanes(devices.size(), fork);
    price_pass(lanes, /*inner_pass=*/true);
    if (auto* trace = env_->options().trace) {
      exchange_span = trace->record("halo exchange", "comm", comm.rank(), 0,
                                    ex0, exchange_end);
      for (std::size_t d = 0; d < devices.size(); ++d) {
        inner_spans[d] =
            trace->record("inner tiles", "compute", comm.rank(),
                          static_cast<int>(d) + 1, fork, lanes.time(d));
      }
    }
    lanes.join(comm.timeline());
  }

  // Step 6: inter-device boundary exchange (CPU<->GPU over PCIe, GPU<->GPU
  // via peer copies). Functionally the devices share the local sub-grid;
  // the transfers are priced here.
  if (devices.size() > 1) {
    const std::size_t plane_bytes = static_cast<std::size_t>(
        static_cast<double>(ext3_[1] * ext3_[2] *
                            static_cast<std::size_t>(halo_) * elem_bytes_) *
        env_->options().effective_comm_scale());
    double cost = 0.0;
    for (std::size_t d = 0; d + 1 < devices.size(); ++d) {
      const bool gpu_pair =
          devices[d]->is_gpu() && devices[d + 1]->is_gpu();
      const auto& link = gpu_pair ? env_->options().preset.peer
                                  : env_->options().preset.pcie;
      cost = std::max(cost, link.cost(plane_bytes));
    }
    const double sync_begin = comm.timeline().now();
    comm.timeline().advance(cost);
    if (auto* trace = env_->options().trace) {
      sync_span = trace->record("boundary sync", "copy", comm.rank(), 0,
                                sync_begin, comm.timeline().now());
    }
  }

  // Pipelined halo uploads drain here: boundary tiles read the halos, so
  // the host waits for the copy/unpack streams only now — everything that
  // ran since each upload was enqueued (later exchange dims, inner tiles,
  // the inter-device sync) hid that transfer time.
  if (halo_pipeline_ != nullptr && env_->options().stream_pipeline) {
    halo_pipeline_->drain(comm.timeline());
  }

  // Step 7: boundary tiles (grouped into one launch when tiling is on).
  {
    const double fork = comm.timeline().now();
    timemodel::LaneSet lanes(devices.size(), fork);
    exec::parallel_for(env_->executor(), devices.size(), [&](std::size_t d) {
      PSF_PROF_SCOPE("st.boundary");
      compute_rows(static_cast<int>(d), device_row_bounds_[d],
                   device_row_bounds_[d + 1], /*want_inner=*/false);
    });
    price_pass(lanes, /*inner_pass=*/false);
    if (auto* trace = env_->options().trace) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        const std::uint64_t span =
            trace->record("boundary tiles", "compute", comm.rank(),
                          static_cast<int>(d) + 1, fork, lanes.time(d));
        boundary_span_ids_[d] = span;
        // Boundary cells read the halo the exchange delivered and the rows
        // the inner pass of this device produced.
        trace->record_edge(exchange_span, span, "exchange");
        trace->record_edge(sync_span, span, "exchange");
        trace->record_edge(inner_spans[d], span, "join");
      }
    }
    lanes.join(comm.timeline());
  }

  std::swap(in_, out_);
  ++stats_.iterations;
  stats_.halo_bytes_sent = halo_bytes;
  stats_.device_seconds = iteration_device_seconds_;
  stats_.last_iteration_vtime = comm.timeline().now() - t0;

#ifndef PSF_DISABLE_METRICS
  PSF_METRIC_ADD("pattern.st.iterations", 1);
  PSF_METRIC_ADD("pattern.st.halo_bytes", halo_bytes);
  PSF_METRIC_OBSERVE("pattern.st.exchange_vtime", stats_.last_exchange_vtime);
  PSF_METRIC_OBSERVE("pattern.st.iteration_vtime",
                     stats_.last_iteration_vtime);
  {
    auto& registry = metrics::Registry::current();
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const std::string name = devices[d]->descriptor().name();
      registry.counter("pattern.st.rows." + name)
          .add(device_row_bounds_[d + 1] - device_row_bounds_[d]);
    }
  }
#endif

  // Adaptive repartition along the highest dimension after iteration 1.
  if (stats_.iterations == 1 && devices.size() > 1) {
    PSF_METRIC_ADD("pattern.st.repartitions", 1);
    std::vector<std::size_t> rows(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      rows[d] = device_row_bounds_[d + 1] - device_row_bounds_[d];
    }
    partitioner_.observe(rows, iteration_device_seconds_);
    const WeightedPartition split(ext3_[0], partitioner_.speeds());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      device_row_bounds_[d] = split.begin(static_cast<int>(d));
    }
    device_row_bounds_.back() = ext3_[0];
    const double sum = std::accumulate(partitioner_.speeds().begin(),
                                       partitioner_.speeds().end(), 0.0);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      stats_.device_split[d] = partitioner_.speeds()[d] / sum;
#ifndef PSF_DISABLE_METRICS
      metrics::Registry::current()
          .gauge("pattern.st.split." + devices[d]->descriptor().name())
          .set(stats_.device_split[d]);
#endif
    }
  }

  // Device-loss recovery accounting: the runtime notices the loss after the
  // sweep's launches, charges the detection latency, and re-splits the rows
  // over the survivors for the following sweeps.
  if (armed >= 0 && devices[static_cast<std::size_t>(armed)]->lost()) {
    const double detect_t0 = comm.timeline().now();
    comm.timeline().advance(fault::kDeviceLossDetectS);
    PSF_METRIC_ADD("fault.recoveries", 1);
    if (auto* trace = env_->options().trace) {
      trace->record("device loss recovery", "fault", comm.rank(), 0,
                    detect_t0, comm.timeline().now());
    }
    if (fault::FaultLog::current().enabled()) {
      fault::FaultLog::current().record(
          comm.rank(),
          "st recover " +
              devices[static_cast<std::size_t>(armed)]->descriptor().name() +
              " iter=" + std::to_string(stats_.iterations));
    }
    drop_lost_devices();
  }
  return support::Status::ok();
}

void StencilRuntime::drop_lost_devices() {
  const auto devices = env_->active_devices();
  std::vector<double> speeds = partitioner_.speeds();
  double total = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (devices[d]->lost()) speeds[d] = 0.0;
    total += speeds[d];
  }
  PSF_CHECK_MSG(total > 0.0, "stencil: every device is lost");
  const WeightedPartition split(ext3_[0], speeds);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    device_row_bounds_[d] = split.begin(static_cast<int>(d));
  }
  device_row_bounds_.back() = ext3_[0];
}

std::vector<std::byte> StencilRuntime::checkpoint() const {
  PSF_CHECK_MSG(ready_, "checkpoint() before the grid is set up");
  const std::size_t ndevices = device_row_bounds_.size() - 1;
  std::vector<std::byte> blob;
  blob.reserve(96 + (device_row_bounds_.size() + ndevices) * 8 + in_.size());
  append_pod(blob, kCheckpointMagic);
  append_pod(blob, kCheckpointVersion);
  append_pod(blob, static_cast<std::int32_t>(stats_.iterations));
  for (const std::size_t e : ext3_) {
    append_pod(blob, static_cast<std::uint64_t>(e));
  }
  for (const std::size_t p : padded_) {
    append_pod(blob, static_cast<std::uint64_t>(p));
  }
  append_pod(blob, static_cast<std::uint64_t>(elem_bytes_));
  append_pod(blob, static_cast<std::uint32_t>(ndevices));
  for (const std::size_t bound : device_row_bounds_) {
    append_pod(blob, static_cast<std::uint64_t>(bound));
  }
  for (const double speed : partitioner_.speeds()) append_pod(blob, speed);
  append_pod(blob, static_cast<std::uint8_t>(partitioner_.profiled() ? 1 : 0));
  // The full padded input grid. Restoring `in_` alone is sufficient: every
  // interior cell of `out_` is rewritten each sweep, halos are refreshed by
  // the exchange before any read, and out-of-domain pad cells are fixed at
  // their scattered values and never read by non-fixed cells.
  blob.insert(blob.end(), in_.data(), in_.data() + in_.size());
  return blob;
}

support::Status StencilRuntime::restore(std::span<const std::byte> blob) {
  PSF_CHECK_MSG(ready_, "restore() before the grid is set up");
  const auto fail = [](const std::string& what) {
    return support::Status::invalid_argument("stencil checkpoint: " + what);
  };
  std::span<const std::byte> cursor = blob;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::int32_t iterations = 0;
  if (!read_pod(cursor, magic) || magic != kCheckpointMagic) {
    return fail("bad magic (not a stencil checkpoint)");
  }
  if (!read_pod(cursor, version) || version != kCheckpointVersion) {
    return fail("unsupported version");
  }
  if (!read_pod(cursor, iterations) || iterations < 0) {
    return fail("truncated header");
  }
  for (const std::size_t e : ext3_) {
    std::uint64_t got = 0;
    if (!read_pod(cursor, got) || got != e) return fail("extent mismatch");
  }
  for (const std::size_t p : padded_) {
    std::uint64_t got = 0;
    if (!read_pod(cursor, got) || got != p) {
      return fail("padded extent mismatch");
    }
  }
  std::uint64_t elem = 0;
  if (!read_pod(cursor, elem) || elem != elem_bytes_) {
    return fail("element size mismatch");
  }
  const std::size_t ndevices = device_row_bounds_.size() - 1;
  std::uint32_t got_devices = 0;
  if (!read_pod(cursor, got_devices) || got_devices != ndevices) {
    return fail("device count mismatch");
  }
  std::vector<std::size_t> bounds(ndevices + 1, 0);
  for (std::size_t d = 0; d <= ndevices; ++d) {
    std::uint64_t bound = 0;
    if (!read_pod(cursor, bound)) return fail("truncated row bounds");
    bounds[d] = static_cast<std::size_t>(bound);
  }
  std::vector<double> speeds(ndevices, 1.0);
  for (std::size_t d = 0; d < ndevices; ++d) {
    if (!read_pod(cursor, speeds[d])) return fail("truncated speeds");
  }
  std::uint8_t profiled = 0;
  if (!read_pod(cursor, profiled)) return fail("truncated profiled flag");
  if (cursor.size() != in_.size()) return fail("grid payload size mismatch");
  std::memcpy(in_.data(), cursor.data(), cursor.size());
  device_row_bounds_ = std::move(bounds);
  partitioner_.restore(std::move(speeds), profiled != 0);
  stats_.iterations = iterations;
  return support::Status::ok();
}

support::Status StencilRuntime::run(int iterations) {
  const fault::FaultPlan* plan = env_->fault_plan();
  if (plan == nullptr || !plan->has_rank_faults()) {
    for (int i = 0; i < iterations; ++i) {
      PSF_RETURN_IF_ERROR(start());
    }
    return support::Status::ok();
  }

  // Rank-failure injection (rank:<R>@iter=N / @vtime=X): checkpoint at every
  // sweep boundary; when a kill fires, ALL ranks roll back to the last
  // checkpoint (coordinated restart) and replay the lost sweep, so the final
  // grid is bit-identical to a fault-free run. The killed rank additionally
  // pays the restart + checkpoint-reload cost in virtual time.
  auto& comm = env_->comm();
  PSF_RETURN_IF_ERROR(validate());
  if (!ready_) setup();
  const auto& faults = plan->rank_faults();
  if (rank_fault_fired_.size() < faults.size()) {
    rank_fault_fired_.resize(faults.size(), false);
  }
  std::vector<std::byte> snapshot = checkpoint();
  for (int i = 0; i < iterations; ++i) {
    PSF_RETURN_IF_ERROR(start());
    bool rolled_back = false;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const fault::RankFault& rf = faults[f];
      if (rank_fault_fired_[f]) continue;
      if (rf.rank < 0 || rf.rank >= comm.size()) continue;
      std::uint8_t due = 0;
      if (rf.iteration > 0) {
        due = stats_.iterations == rf.iteration ? 1 : 0;
      } else {
        // Virtual-time trigger: the target rank's clock decides; broadcast
        // so every rank agrees at the same boundary.
        due = comm.rank() == rf.rank && comm.timeline().now() >= rf.vtime
                  ? 1
                  : 0;
        comm.bcast(std::as_writable_bytes(std::span<std::uint8_t>(&due, 1)),
                   rf.rank);
      }
      if (due == 0) continue;
      rank_fault_fired_[f] = true;
      rolled_back = true;
      PSF_RETURN_IF_ERROR(restore(snapshot));
      if (comm.rank() == rf.rank) {
        const double restart_t0 = comm.timeline().now();
        comm.timeline().advance(fault::kRankRestartS +
                                static_cast<double>(snapshot.size()) /
                                    fault::kCheckpointBytesPerS);
        PSF_METRIC_ADD("fault.rank_restarts", 1);
        PSF_METRIC_ADD("fault.checkpoint_bytes", snapshot.size());
        PSF_METRIC_ADD("fault.recoveries", 1);
        if (auto* trace = env_->options().trace) {
          trace->record("rank restart", "fault", comm.rank(), 0, restart_t0,
                        comm.timeline().now());
        }
        if (fault::FaultLog::current().enabled()) {
          fault::FaultLog::current().record(
              comm.rank(),
              "rank_restart st iter=" + std::to_string(stats_.iterations) +
                  " bytes=" + std::to_string(snapshot.size()));
        }
      }
      // Survivors wait for the restarted rank before the replayed sweep.
      comm.barrier();
    }
    if (rolled_back) {
      --i;  // replay the sweep the rollback discarded
      continue;
    }
    snapshot = checkpoint();
  }
  return support::Status::ok();
}

void StencilRuntime::write_back(void* global_out) const {
  PSF_CHECK_MSG(ready_, "write_back() before any start()");
  store_box(static_cast<std::byte*>(global_out), extents3(global_dims_),
            goff3_, ext3_, static_cast<std::size_t>(ndims_ - 1), elem_bytes_,
            [&](const std::array<std::size_t, kMaxDims>& c) {
              const std::array<int, kMaxDims> local = {
                  static_cast<int>(c[0]) + halo3_[0],
                  static_cast<int>(c[1]) + halo3_[1],
                  static_cast<int>(c[2]) + halo3_[2]};
              return in_.data() + padded_index(local) * elem_bytes_;
            });
}

void StencilRuntime::gather(void* global_out, int root) {
  PSF_CHECK_MSG(ready_, "gather() before any start()");
  auto& comm = env_->comm();
  // Each box travels as a header (global offset, then extents, internal
  // 3-D order) followed by its cells, packed row-major.
  using BoxHeader = std::array<std::uint64_t, 2 * kMaxDims>;
  if (comm.rank() != root) {
    BoxHeader header{};
    std::array<int, kMaxDims> hi{};
    for (std::size_t d = 0; d < kMaxDims; ++d) {
      header[d] = goff3_[d];
      header[kMaxDims + d] = ext3_[d];
      hi[d] = halo3_[d] + static_cast<int>(ext3_[d]);
    }
    auto payload = comm.acquire_buffer(
        sizeof(BoxHeader) + ext3_[0] * ext3_[1] * ext3_[2] * elem_bytes_);
    std::memcpy(payload.data(), header.data(), sizeof(BoxHeader));
    pack_box(halo3_, hi, payload.data() + sizeof(BoxHeader));
    comm.send_pooled(root, kGatherTag, std::move(payload));
    return;
  }

  write_back(global_out);
  const auto dims = extents3(global_dims_);
  // Receive in rank order so the root's virtual clock is deterministic.
  for (int source = 0; source < comm.size(); ++source) {
    if (source == root) continue;
    const auto message = comm.recv_any(source, kGatherTag);
    const auto bytes = message.payload.bytes();
    PSF_CHECK_MSG(bytes.size() >= sizeof(BoxHeader),
                  "gather: short box message from rank " << source);
    BoxHeader header{};
    std::memcpy(header.data(), bytes.data(), sizeof(BoxHeader));
    std::array<std::size_t, kMaxDims> off{};
    std::array<std::size_t, kMaxDims> ext{};
    for (std::size_t d = 0; d < kMaxDims; ++d) {
      off[d] = static_cast<std::size_t>(header[d]);
      ext[d] = static_cast<std::size_t>(header[kMaxDims + d]);
      PSF_CHECK_MSG(off[d] + ext[d] <= dims[d],
                    "gather: box from rank " << source
                                             << " exceeds the global grid");
    }
    const std::size_t row_bytes = ext[2] * elem_bytes_;
    PSF_CHECK_MSG(
        bytes.size() == sizeof(BoxHeader) + ext[0] * ext[1] * row_bytes,
        "gather: box size mismatch from rank " << source);
    const std::byte* cells = bytes.data() + sizeof(BoxHeader);
    store_box(static_cast<std::byte*>(global_out), dims, off, ext,
              static_cast<std::size_t>(ndims_ - 1), elem_bytes_,
              [&](const std::array<std::size_t, kMaxDims>& c) {
                return cells +
                       ((c[0] * ext[1] + c[1]) * ext[2] + c[2]) * elem_bytes_;
              });
  }
}

}  // namespace psf::pattern
