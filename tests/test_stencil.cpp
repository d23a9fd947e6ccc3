// PSF — tests for the stencil runtime: Cartesian decomposition, halo
// exchange (including corner propagation for 9-point stencils), fixed
// global borders, overlap/tiling toggles, device splits and write-back.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "pattern/api.h"
#include "pattern/typed.h"
#include "support/rng.h"

namespace psf::pattern {
namespace {

// --- reference kernels -------------------------------------------------------

using Grid2 = GridView<double, 2>;
using Out2 = MutableGridView<double, 2>;

/// 5-point averaging stencil (2-D doubles).
constexpr auto avg5 = [](const Grid2& in, const Out2& out, const int* c,
                         const void* /*parameter*/) {
  const int y = c[0];
  const int x = c[1];
  out(y, x) = 0.2 * (in(y, x) + in(y - 1, x) + in(y + 1, x) + in(y, x - 1) +
                     in(y, x + 1));
};

/// 9-point stencil (uses diagonals — catches missing corner halos).
constexpr auto nine = [](const Grid2& in, const Out2& out, const int* c,
                         const void* /*parameter*/) {
  const int y = c[0];
  const int x = c[1];
  double sum = 0.0;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) sum += in(y + dy, x + dx);
  }
  out(y, x) = sum / 9.0;
};

/// 7-point 3-D stencil.
constexpr auto avg7_3d = [](const GridView<double, 3>& in,
                            const MutableGridView<double, 3>& out,
                            const int* c, const void* /*parameter*/) {
  const int z = c[0];
  const int y = c[1];
  const int x = c[2];
  out(z, y, x) = (in(z, y, x) + in(z - 1, y, x) + in(z + 1, y, x) +
                  in(z, y - 1, x) + in(z, y + 1, x) + in(z, y, x - 1) +
                  in(z, y, x + 1)) /
                 7.0;
};

std::vector<double> random_grid(std::size_t cells, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> grid(cells);
  for (auto& value : grid) value = rng.next_in(0.0, 10.0);
  return grid;
}

/// Sequential 2-D reference with the same fixed-border semantics: cells in
/// the outermost ring are copied through.
std::vector<double> reference_2d(
    const std::vector<double>& initial, std::size_t height, std::size_t width,
    int iterations, bool nine_point) {
  std::vector<double> in = initial;
  std::vector<double> out = initial;
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t y = 1; y + 1 < height; ++y) {
      for (std::size_t x = 1; x + 1 < width; ++x) {
        if (nine_point) {
          double sum = 0.0;
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              sum += in[(y + static_cast<std::size_t>(dy)) * width + x +
                        static_cast<std::size_t>(dx)];
            }
          }
          out[y * width + x] = sum / 9.0;
        } else {
          out[y * width + x] =
              0.2 * (in[y * width + x] + in[(y - 1) * width + x] +
                     in[(y + 1) * width + x] + in[y * width + x - 1] +
                     in[y * width + x + 1]);
        }
      }
    }
    std::swap(in, out);
  }
  return in;
}

std::vector<double> reference_3d(const std::vector<double>& initial,
                                 std::size_t nz, std::size_t ny,
                                 std::size_t nx, int iterations) {
  std::vector<double> in = initial;
  std::vector<double> out = initial;
  auto index = [&](std::size_t z, std::size_t y, std::size_t x) {
    return (z * ny + y) * nx + x;
  };
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t z = 1; z + 1 < nz; ++z) {
      for (std::size_t y = 1; y + 1 < ny; ++y) {
        for (std::size_t x = 1; x + 1 < nx; ++x) {
          out[index(z, y, x)] =
              (in[index(z, y, x)] + in[index(z - 1, y, x)] +
               in[index(z + 1, y, x)] + in[index(z, y - 1, x)] +
               in[index(z, y + 1, x)] + in[index(z, y, x - 1)] +
               in[index(z, y, x + 1)]) /
              7.0;
        }
      }
    }
    std::swap(in, out);
  }
  return in;
}

EnvOptions cpu_only_options() {
  EnvOptions options;
  options.app_profile = "heat3d";
  options.use_cpu = true;
  options.use_gpus = 0;
  return options;
}

/// Run a 2-D stencil under the framework and gather the global result.
std::vector<double> run_2d(int ranks, const EnvOptions& options,
                           const std::vector<double>& initial,
                           std::size_t height, std::size_t width,
                           int iterations, auto fn,
                           std::vector<int> topology = {}) {
  std::vector<double> assembled(initial.size(), 0.0);
  minimpi::World world(ranks);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, options);
    TypedStencil<double, 2> st(env);
    st.set_stencil(fn);
    st.set_grid(initial, {height, width});
    st.set_halo(1);
    if (!topology.empty()) st.set_topology(topology);
    EXPECT_TRUE(st.run(iterations).is_ok());
    st.write_back(assembled);  // ranks write disjoint parts
  });
  return assembled;
}

void expect_grids_equal(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-12) << "cell " << i;
  }
}

class StencilRanks : public ::testing::TestWithParam<int> {};

TEST_P(StencilRanks, FivePointMatchesReference) {
  const int ranks = GetParam();
  constexpr std::size_t kH = 37;  // odd sizes: uneven decomposition
  constexpr std::size_t kW = 53;
  const auto initial = random_grid(kH * kW, 3);
  const auto expected = reference_2d(initial, kH, kW, 4, false);
  const auto actual =
      run_2d(ranks, cpu_only_options(), initial, kH, kW, 4, avg5);
  expect_grids_equal(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, StencilRanks,
                         ::testing::Values(1, 2, 3, 4, 6, 9));

TEST(Stencil, NinePointCornersPropagate) {
  // Diagonal neighbors cross process corners: requires the dimension-by-
  // dimension exchange to carry corner halo values.
  constexpr std::size_t kH = 24;
  constexpr std::size_t kW = 24;
  const auto initial = random_grid(kH * kW, 5);
  const auto expected = reference_2d(initial, kH, kW, 3, true);
  const auto actual = run_2d(4, cpu_only_options(), initial, kH, kW, 3,
                             nine, {2, 2});
  expect_grids_equal(actual, expected);
}

TEST(Stencil, ExplicitTopologyRows) {
  constexpr std::size_t kH = 30;
  constexpr std::size_t kW = 20;
  const auto initial = random_grid(kH * kW, 6);
  const auto expected = reference_2d(initial, kH, kW, 2, false);
  for (auto topology : {std::vector<int>{4, 1}, std::vector<int>{1, 4},
                        std::vector<int>{2, 2}}) {
    const auto actual = run_2d(4, cpu_only_options(), initial, kH, kW, 2,
                               avg5, topology);
    expect_grids_equal(actual, expected);
  }
}

TEST(Stencil, ThreeDimensionalMatchesReference) {
  constexpr std::size_t kN = 14;
  const auto initial = random_grid(kN * kN * kN, 7);
  const auto expected = reference_3d(initial, kN, kN, kN, 3);
  std::vector<double> assembled(initial.size(), 0.0);
  minimpi::World world(8);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    TypedStencil<double, 3> st(env);
    st.set_stencil(avg7_3d);
    st.set_grid(initial, {kN, kN, kN});
    st.set_halo(1);
    EXPECT_TRUE(st.run(3).is_ok());
    st.write_back(assembled);
  });
  expect_grids_equal(assembled, expected);
}

TEST(Stencil, BordersStayFixed) {
  constexpr std::size_t kH = 16;
  constexpr std::size_t kW = 16;
  const auto initial = random_grid(kH * kW, 8);
  const auto actual =
      run_2d(2, cpu_only_options(), initial, kH, kW, 5, avg5);
  for (std::size_t x = 0; x < kW; ++x) {
    EXPECT_DOUBLE_EQ(actual[x], initial[x]);
    EXPECT_DOUBLE_EQ(actual[(kH - 1) * kW + x], initial[(kH - 1) * kW + x]);
  }
  for (std::size_t y = 0; y < kH; ++y) {
    EXPECT_DOUBLE_EQ(actual[y * kW], initial[y * kW]);
    EXPECT_DOUBLE_EQ(actual[y * kW + kW - 1], initial[y * kW + kW - 1]);
  }
}

TEST(Stencil, DeviceMixesAgree) {
  constexpr std::size_t kH = 32;
  constexpr std::size_t kW = 32;
  const auto initial = random_grid(kH * kW, 9);
  const auto expected = reference_2d(initial, kH, kW, 3, false);
  for (auto [use_cpu, use_gpus] :
       {std::pair{true, 0}, std::pair{false, 1}, std::pair{true, 2}}) {
    EnvOptions options = cpu_only_options();
    options.use_cpu = use_cpu;
    options.use_gpus = use_gpus;
    const auto actual = run_2d(2, options, initial, kH, kW, 3, avg5);
    expect_grids_equal(actual, expected);
  }
}

TEST(Stencil, OverlapAndTilingTogglesAgree) {
  constexpr std::size_t kH = 28;
  constexpr std::size_t kW = 28;
  const auto initial = random_grid(kH * kW, 10);
  const auto expected = reference_2d(initial, kH, kW, 3, false);
  for (bool overlap : {true, false}) {
    for (bool tiling : {true, false}) {
      EnvOptions options = cpu_only_options();
      options.overlap = overlap;
      options.tiling = tiling;
      const auto actual = run_2d(4, options, initial, kH, kW, 3, avg5);
      expect_grids_equal(actual, expected);
    }
  }
}

TEST(Stencil, OverlapReducesVirtualTime) {
  constexpr std::size_t kH = 64;
  constexpr std::size_t kW = 64;
  const auto initial = random_grid(kH * kW, 11);
  double with = 0.0;
  double without = 0.0;
  for (bool overlap : {true, false}) {
    minimpi::World world(4, timemodel::LinkModel{1.0e-4, 5.0e7});
    EnvOptions options = cpu_only_options();
    options.overlap = overlap;
    options.workload_scale = 256.0;
    world.run([&](minimpi::Communicator& comm) {
      RuntimeEnv env(comm, options);
      TypedStencil<double, 2> st(env);
      st.set_stencil(avg5);
      st.set_grid(initial, {kH, kW});
      EXPECT_TRUE(st.run(4).is_ok());
    });
    (overlap ? with : without) = world.makespan();
  }
  EXPECT_LT(with, without);
}

TEST(Stencil, TilingImprovesCpuVirtualTime) {
  constexpr std::size_t kH = 64;
  constexpr std::size_t kW = 64;
  const auto initial = random_grid(kH * kW, 12);
  double with = 0.0;
  double without = 0.0;
  for (bool tiling : {true, false}) {
    minimpi::World world(1);
    EnvOptions options = cpu_only_options();
    options.tiling = tiling;
    world.run([&](minimpi::Communicator& comm) {
      RuntimeEnv env(comm, options);
      TypedStencil<double, 2> st(env);
      st.set_stencil(avg5);
      st.set_grid(initial, {kH, kW});
      EXPECT_TRUE(st.run(4).is_ok());
    });
    (tiling ? with : without) = world.makespan();
  }
  EXPECT_LT(with, without);
}

TEST(Stencil, AdaptiveSplitSkewsTowardGpus) {
  constexpr std::size_t kH = 128;
  constexpr std::size_t kW = 64;
  const auto initial = random_grid(kH * kW, 13);
  minimpi::World world(1);
  EnvOptions options = cpu_only_options();
  options.use_gpus = 2;  // heat3d profile: GPU 2.4x CPU
  options.workload_scale = 1.0e4;  // overheads negligible at paper scale
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, options);
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {kH, kW});
    EXPECT_TRUE(st.run(3).is_ok());
    EXPECT_LT(st.raw().stats().device_split[0], 0.30);
    EXPECT_GT(st.raw().stats().device_split[1], 0.30);
  });
}

TEST(Stencil, GpusSwitchToPreferL1) {
  constexpr std::size_t kH = 16;
  constexpr std::size_t kW = 16;
  const auto initial = random_grid(kH * kW, 14);
  minimpi::World world(1);
  EnvOptions options = cpu_only_options();
  options.use_gpus = 1;
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, options);
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {kH, kW});
    EXPECT_TRUE(st.run(1).is_ok());
    EXPECT_EQ(env.active_devices()[1]->cache_preference(),
              devsim::CachePreference::kPreferL1);
  });
}

TEST(Stencil, StatsReportCells) {
  constexpr std::size_t kH = 20;
  constexpr std::size_t kW = 20;
  const auto initial = random_grid(kH * kW, 15);
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {kH, kW});
    EXPECT_TRUE(st.run(1).is_ok());
    const auto& stats = st.raw().stats();
    // Each rank holds a 10x20 sub-grid: 200 interior cells split between
    // inner and boundary.
    EXPECT_EQ(stats.inner_cells + stats.boundary_cells, 200u);
    EXPECT_GT(stats.boundary_cells, 0u);
    EXPECT_GT(stats.halo_bytes_sent, 0u);
    EXPECT_EQ(stats.iterations, 1);
  });
}

TEST(Stencil, StartWithoutConfigurationFails) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    auto* st = env.get_ST();
    const auto status = st->start();
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), support::ErrorCode::kFailedPrecondition);
  });
}

TEST(Stencil, RejectsBadHalo) {
  minimpi::World world(1);
  const auto initial = random_grid(64, 16);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {8, 8});
    st.set_halo(0);
    EXPECT_EQ(st.raw().start().code(), support::ErrorCode::kInvalidArgument);
  });
}

}  // namespace
}  // namespace psf::pattern
