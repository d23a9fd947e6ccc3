#include "apps/kmeans.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "pattern/api.h"
#include "support/rng.h"

namespace psf::apps::kmeans {

namespace {

// [psf-user-code-begin]
/// One input unit: a point's kDims coordinates, laid out exactly like
/// kDims consecutive floats of the caller's flat buffer.
using Point = std::array<float, kDims>;
static_assert(sizeof(Point) == kDims * sizeof(float));
using KmeansGR = pattern::TypedGReduce<Point, ClusterAccum>;

/// A point's nearest center and its squared distance to it.
struct Nearest {
  int center = 0;
  double dist = 0.0;
};

/// Shared by every emit, so all of them stage the exact same doubles.
inline Nearest nearest_center(const Point& point,
                              const EmitParameter& param) {
  Nearest best;
  for (int c = 0; c < param.num_clusters; ++c) {
    double dist = 0.0;
    for (int d = 0; d < kDims; ++d) {
      const double diff =
          static_cast<double>(point[d]) - param.centers[c * kDims + d];
      dist += diff * diff;
    }
    if (c == 0 || dist < best.dist) best = {c, dist};
  }
  return best;
}

/// Accumulate the point into its cluster's sums.
void add_to_cluster(pattern::TypedObject<ClusterAccum>& obj,
                    const Point& point, int center) {
  ClusterAccum accum;
  for (int d = 0; d < kDims; ++d) accum.sum[d] = point[d];
  accum.count = 1;
  obj.insert(static_cast<std::uint64_t>(center), accum);
}

/// Emit: assign one point to its nearest center and accumulate it there
/// (the paper's gr_emit_fp for Kmeans).
constexpr auto kmeans_emit = [](pattern::TypedObject<ClusterAccum>& obj,
                                const Point& point, std::size_t /*index*/,
                                const EmitParameter* param) {
  add_to_cluster(obj, point, nearest_center(point, *param).center);
};

/// Reduce: element-wise accumulation of cluster sums (gr_reduce_fp).
constexpr auto kmeans_reduce = [](ClusterAccum& a, const ClusterAccum& b) {
  for (int d = 0; d < kDims; ++d) a.sum[d] += b.sum[d];
  a.count += b.count;
};
// [psf-user-code-end]

// The fused-variant emits below are composition-layer demo code (beyond
// the paper), so they sit outside the Figure 6 LoC markers: the counted
// user code is the paper-parity port alone.

/// The point's inertia contribution, staged under the reserved key
/// `num_clusters` with the squared distance in sum[0].
void add_inertia(pattern::TypedObject<ClusterAccum>& obj, double dist,
                 const EmitParameter& param) {
  ClusterAccum inertia;
  inertia.sum[0] = dist;
  inertia.count = 1;
  obj.insert(static_cast<std::uint64_t>(param.num_clusters), inertia);
}

/// Fused emit: one pass accumulates the cluster assignment AND the point's
/// inertia contribution — the second emit pass the unfused sequence pays
/// for disappears.
constexpr auto kmeans_emit_fused = [](pattern::TypedObject<ClusterAccum>& obj,
                                      const Point& point,
                                      std::size_t /*index*/,
                                      const EmitParameter* param) {
  const Nearest nearest = nearest_center(point, *param);
  add_to_cluster(obj, point, nearest.center);
  add_inertia(obj, nearest.dist, *param);
};

/// Inertia-only emit for the unfused reference: a full second pass over the
/// points against the SAME (pre-update) centers the assignment pass used.
constexpr auto kmeans_emit_inertia =
    [](pattern::TypedObject<ClusterAccum>& obj, const Point& point,
       std::size_t /*index*/, const EmitParameter* param) {
      add_inertia(obj, nearest_center(point, *param).dist, *param);
    };

// [psf-user-code-begin]
/// Recompute centers from the combined reduction; clusters that lost all
/// points keep their previous center. The first lookup after start() is
/// the collective global combine.
void centers_from_reduction(KmeansGR& gr, std::vector<double>& centers,
                            int k) {
  for (int c = 0; c < k; ++c) {
    ClusterAccum accum;
    if (gr.lookup_global(static_cast<std::uint64_t>(c), &accum) &&
        accum.count > 0) {
      for (int d = 0; d < kDims; ++d) {
        centers[static_cast<std::size_t>(c) * kDims + d] =
            accum.sum[d] / accum.count;
      }
    }
  }
}

/// The flat coordinate buffer viewed as points, one unit per kDims floats.
std::span<const Point> as_points(std::span<const float> coordinates,
                                 std::size_t num_points) {
  return {reinterpret_cast<const Point*>(coordinates.data()), num_points};
}

}  // namespace
// [psf-user-code-end]

std::vector<float> generate_points(const Params& params) {
  support::Xoshiro256 rng(params.seed);
  // Blob centers spread over a [0, 100)^3 box with unit-ish spread.
  std::vector<double> blob_centers(
      static_cast<std::size_t>(params.num_clusters) * kDims);
  for (auto& coordinate : blob_centers) coordinate = rng.next_in(0.0, 100.0);

  std::vector<float> points(params.num_points * kDims);
  for (std::size_t p = 0; p < params.num_points; ++p) {
    const std::size_t blob =
        rng.next_below(static_cast<std::uint64_t>(params.num_clusters));
    for (int d = 0; d < kDims; ++d) {
      points[p * kDims + static_cast<std::size_t>(d)] = static_cast<float>(
          blob_centers[blob * kDims + static_cast<std::size_t>(d)] +
          2.0 * rng.next_normal());
    }
  }
  return points;
}

std::vector<double> initial_centers(const Params& params,
                                    std::span<const float> points) {
  std::vector<double> centers(
      static_cast<std::size_t>(params.num_clusters) * kDims);
  for (int c = 0; c < params.num_clusters; ++c) {
    for (int d = 0; d < kDims; ++d) {
      centers[static_cast<std::size_t>(c) * kDims + static_cast<std::size_t>(d)] =
          static_cast<double>(
              points[static_cast<std::size_t>(c) * kDims +
                     static_cast<std::size_t>(d)]);
    }
  }
  return centers;
}

// [psf-user-code-begin]
Result run_framework(minimpi::Communicator& comm,
                     const pattern::EnvOptions& options, const Params& params,
                     std::span<const float> points) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  KmeansGR gr(env);

  std::vector<double> centers = initial_centers(params, points);
  EmitParameter parameter{centers.data(), params.num_clusters};

  gr.set_emit<EmitParameter>(kmeans_emit);
  gr.set_reduce(kmeans_reduce);
  gr.set_input(as_points(points, params.num_points));
  gr.set_parameter(&parameter);
  gr.configure(static_cast<std::size_t>(params.num_clusters) * 2);

  const double t0 = comm.timeline().now();
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    PSF_CHECK(gr.start().is_ok());
    centers_from_reduction(gr, centers, params.num_clusters);
  }
  Result result;
  result.centers = std::move(centers);
  result.vtime = comm.timeline().now() - t0;
  result.steady_vtime = result.vtime / params.iterations;
  env.finalize();
  return result;
}
// [psf-user-code-end]

// Outside the LoC markers: the monitored fused/unfused comparison harness
// is a benchmark fixture, not part of the paper's user-code comparison.
MonitoredResult run_framework_monitored(minimpi::Communicator& comm,
                                        const pattern::EnvOptions& options,
                                        const Params& params,
                                        std::span<const float> points,
                                        bool fused) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  KmeansGR gr(env);

  std::vector<double> centers = initial_centers(params, points);
  EmitParameter parameter{centers.data(), params.num_clusters};
  const std::size_t k = static_cast<std::size_t>(params.num_clusters);

  gr.set_reduce(kmeans_reduce);
  gr.set_input(as_points(points, params.num_points));
  gr.set_parameter(&parameter);
  // One extra slot for the reserved inertia key; the capacity is the same
  // in both modes so the object layout (and GPU shared-memory localization
  // decision) — and therefore every staged byte — matches exactly.
  gr.configure(k * 2 + 2);

  MonitoredResult result;
  result.inertia.reserve(static_cast<std::size_t>(params.iterations));
  // Global inertia of the latest pass (0 when no point contributed).
  const auto global_inertia = [&gr, key = static_cast<std::uint64_t>(k)] {
    ClusterAccum inertia;
    return gr.lookup_global(key, &inertia) ? inertia.sum[0] : 0.0;
  };

  const double t0 = comm.timeline().now();
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    if (fused) {
      // One pass, one combine: assignments and inertia together.
      gr.set_emit<EmitParameter>(kmeans_emit_fused);
      PSF_CHECK(gr.start().is_ok());
      result.inertia.push_back(global_inertia());
      centers_from_reduction(gr, centers, params.num_clusters);
    } else {
      // Reference sequence: assignment pass + combine, then a full second
      // pass + combine for the inertia — against the SAME pre-update
      // centers, so the values match the fused path bit for bit.
      gr.set_emit<EmitParameter>(kmeans_emit);
      PSF_CHECK(gr.start().is_ok());
      std::vector<double> new_centers = centers;
      centers_from_reduction(gr, new_centers, params.num_clusters);
      gr.set_emit<EmitParameter>(kmeans_emit_inertia);
      PSF_CHECK(gr.start().is_ok());
      result.inertia.push_back(global_inertia());
      // In-place so `parameter` keeps pointing at valid storage.
      std::copy(new_centers.begin(), new_centers.end(), centers.begin());
    }
  }
  result.centers = std::move(centers);
  result.vtime = comm.timeline().now() - t0;
  result.steady_vtime = result.vtime / params.iterations;
  env.finalize();
  return result;
}

Result run_sequential(const Params& params, std::span<const float> points) {
  std::vector<double> centers = initial_centers(params, points);
  const std::size_t k = static_cast<std::size_t>(params.num_clusters);
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    std::vector<ClusterAccum> accums(k);
    for (std::size_t p = 0; p < params.num_points; ++p) {
      const float* point = points.data() + p * kDims;
      std::size_t best = 0;
      double best_dist = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        double dist = 0.0;
        for (int d = 0; d < kDims; ++d) {
          const double diff = static_cast<double>(point[d]) -
                              centers[c * kDims + static_cast<std::size_t>(d)];
          dist += diff * diff;
        }
        if (c == 0 || dist < best_dist) {
          best_dist = dist;
          best = c;
        }
      }
      for (int d = 0; d < kDims; ++d) {
        accums[best].sum[d] += static_cast<double>(point[d]);
      }
      accums[best].count += 1;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (accums[c].count > 0) {
        for (int d = 0; d < kDims; ++d) {
          centers[c * kDims + static_cast<std::size_t>(d)] =
              accums[c].sum[d] / accums[c].count;
        }
      }
    }
  }
  Result result;
  result.centers = std::move(centers);
  // Virtual cost of the single-core run, from the same calibration.
  const auto rates = timemodel::app_rates("kmeans");
  result.vtime = static_cast<double>(params.num_points) * params.iterations /
                 rates.cpu_core_units_per_s;
  return result;
}

}  // namespace psf::apps::kmeans
