// PSF — extended stencil tests: wider halos (radius-2 stencils), 1-D
// grids, float elements, runtime reuse, a parameterized sweep over grid
// shapes and topologies, the segment walk against a per-cell oracle, and
// the owned-box gather. Every stencil goes through TypedStencil, so the
// runtime always runs the generated row loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "pattern/api.h"
#include "pattern/reduction_object.h"
#include "pattern/typed.h"
#include "support/rng.h"

namespace psf::pattern {
namespace {

EnvOptions cpu_options() {
  EnvOptions options;
  options.app_profile = "heat3d";
  options.use_cpu = true;
  return options;
}

std::vector<double> random_grid(std::size_t cells, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> grid(cells);
  for (auto& value : grid) value = rng.next_in(-5.0, 5.0);
  return grid;
}

// --- radius-2 stencil (halo width 2) -----------------------------------------

using Grid1 = GridView<double, 1>;
using Out1 = MutableGridView<double, 1>;
using Grid2 = GridView<double, 2>;
using Out2 = MutableGridView<double, 2>;

/// 1-D radius-2 smoothing kernel.
constexpr auto smooth5_1d = [](const Grid1& in, const Out1& out, const int* c,
                               const void* /*parameter*/) {
  const int x = c[0];
  out(x) = 0.2 * (in(x - 2) + in(x - 1) + in(x) + in(x + 1) + in(x + 2));
};

std::vector<double> reference_1d_radius2(const std::vector<double>& initial,
                                         int iterations) {
  std::vector<double> in = initial;
  std::vector<double> out = initial;
  const std::size_t n = initial.size();
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t x = 2; x + 2 < n; ++x) {
      out[x] = 0.2 * (in[x - 2] + in[x - 1] + in[x] + in[x + 1] + in[x + 2]);
    }
    std::swap(in, out);
  }
  return in;
}

TEST(StencilHalo2, OneDimensionalRadiusTwo) {
  constexpr std::size_t kN = 101;
  const auto initial = random_grid(kN, 21);
  const auto expected = reference_1d_radius2(initial, 4);
  for (int ranks : {1, 3, 5}) {
    std::vector<double> assembled(kN, 0.0);
    minimpi::World world(ranks);
    world.run([&](minimpi::Communicator& comm) {
      RuntimeEnv env(comm, cpu_options());
      TypedStencil<double, 1> st(env);
      st.set_stencil(smooth5_1d);
      st.set_grid(initial, {kN});
      st.set_halo(2);
      ASSERT_TRUE(st.run(4).is_ok());
      st.write_back(assembled);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_NEAR(assembled[i], expected[i], 1e-12)
          << "ranks " << ranks << " cell " << i;
    }
  }
}

/// 2-D radius-2 cross kernel.
constexpr auto cross9_2d = [](const Grid2& in, const Out2& out, const int* c,
                              const void* /*parameter*/) {
  const int y = c[0];
  const int x = c[1];
  double sum = in(y, x);
  for (int r = 1; r <= 2; ++r) {
    sum += in(y - r, x) + in(y + r, x) + in(y, x - r) + in(y, x + r);
  }
  out(y, x) = sum / 9.0;
};

TEST(StencilHalo2, TwoDimensionalRadiusTwo) {
  constexpr std::size_t kH = 26;
  constexpr std::size_t kW = 30;
  const auto initial = random_grid(kH * kW, 22);
  // Reference.
  std::vector<double> in = initial;
  std::vector<double> out = initial;
  for (int it = 0; it < 3; ++it) {
    for (std::size_t y = 2; y + 2 < kH; ++y) {
      for (std::size_t x = 2; x + 2 < kW; ++x) {
        double sum = in[y * kW + x];
        for (std::size_t r = 1; r <= 2; ++r) {
          sum += in[(y - r) * kW + x] + in[(y + r) * kW + x] +
                 in[y * kW + x - r] + in[y * kW + x + r];
        }
        out[y * kW + x] = sum / 9.0;
      }
    }
    std::swap(in, out);
  }
  const auto& expected = in;

  std::vector<double> assembled(kH * kW, 0.0);
  minimpi::World world(4);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(cross9_2d);
    st.set_grid(initial, {kH, kW});
    st.set_halo(2);
    ASSERT_TRUE(st.run(3).is_ok());
    st.write_back(assembled);
  });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(assembled[i], expected[i], 1e-12) << "cell " << i;
  }
}

// --- float elements -----------------------------------------------------------

constexpr auto scale_float = [](const GridView<float, 2>& in,
                                 const MutableGridView<float, 2>& out,
                                 const int* c, const float* factor) {
  out(c[0], c[1]) = in(c[0], c[1]) * *factor;
};

TEST(StencilTypes, FloatElementsAndParameter) {
  constexpr std::size_t kH = 12;
  constexpr std::size_t kW = 12;
  std::vector<float> initial(kH * kW, 2.0f);
  std::vector<float> assembled(kH * kW, 0.0f);
  const float factor = 0.5f;
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<float, 2> st(env);
    st.set_stencil<float>(scale_float);
    st.set_grid(initial, {kH, kW});
    st.set_parameter(&factor);
    ASSERT_TRUE(st.run(2).is_ok());
    st.write_back(assembled);
  });
  // Interior (non-fixed) cells halved twice; the fixed border unchanged.
  EXPECT_FLOAT_EQ(assembled[5 * kW + 5], 0.5f);
  EXPECT_FLOAT_EQ(assembled[0], 2.0f);
}

// --- runtime reuse --------------------------------------------------------------

constexpr auto incr = [](const Grid2& in, const Out2& out, const int* c,
                          const void* /*parameter*/) {
  out(c[0], c[1]) = in(c[0], c[1]) + 1.0;
};

TEST(StencilReuse, SameRuntimeNewGrid) {
  constexpr std::size_t kN = 10;
  std::vector<double> grid_a(kN * kN, 0.0);
  std::vector<double> grid_b(kN * kN, 100.0);
  // Shared assembly buffers: each rank writes its own part.
  std::vector<double> out_a(kN * kN, 0.0);
  std::vector<double> out_b(kN * kN, 0.0);
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(incr);

    st.set_grid(grid_a, {kN, kN});
    ASSERT_TRUE(st.run(3).is_ok());
    st.write_back(out_a);

    // Reconfigure the SAME runtime instance for a second grid (paper II-B).
    st.set_grid(grid_b, {kN, kN});
    ASSERT_TRUE(st.run(1).is_ok());
    st.write_back(out_b);
    comm.barrier();
  });
  EXPECT_DOUBLE_EQ(out_a[5 * kN + 5], 3.0);
  EXPECT_DOUBLE_EQ(out_b[5 * kN + 5], 101.0);
}

// --- parameterized shape sweep -----------------------------------------------

constexpr auto avg5 = [](const Grid2& in, const Out2& out, const int* c,
                         const void* /*parameter*/) {
  const int y = c[0];
  const int x = c[1];
  out(y, x) = 0.2 * (in(y, x) + in(y - 1, x) + in(y + 1, x) + in(y, x - 1) +
                     in(y, x + 1));
};

struct ShapeCase {
  std::size_t height;
  std::size_t width;
  int ranks;
};

class StencilShapes : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(StencilShapes, MatchesReference) {
  const auto param = GetParam();
  const auto initial = random_grid(param.height * param.width, 23);
  std::vector<double> in = initial;
  std::vector<double> out = initial;
  for (int it = 0; it < 2; ++it) {
    for (std::size_t y = 1; y + 1 < param.height; ++y) {
      for (std::size_t x = 1; x + 1 < param.width; ++x) {
        out[y * param.width + x] =
            0.2 * (in[y * param.width + x] + in[(y - 1) * param.width + x] +
                   in[(y + 1) * param.width + x] +
                   in[y * param.width + x - 1] +
                   in[y * param.width + x + 1]);
      }
    }
    std::swap(in, out);
  }

  std::vector<double> assembled(initial.size(), 0.0);
  minimpi::World world(param.ranks);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {param.height, param.width});
    ASSERT_TRUE(st.run(2).is_ok());
    st.write_back(assembled);
  });
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_NEAR(assembled[i], in[i], 1e-12) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StencilShapes,
    ::testing::Values(ShapeCase{7, 64, 2},    // extreme aspect ratio
                      ShapeCase{64, 7, 3},    // tall
                      ShapeCase{33, 17, 6},   // odd extents
                      ShapeCase{16, 16, 16},  // many ranks, small grid
                      ShapeCase{50, 50, 12}));

}  // namespace
}  // namespace psf::pattern

namespace psf::pattern {
namespace {

// --- periodic boundaries --------------------------------------------------------

/// 1-D ring average: out[x] = avg(in[x-1], in[x], in[x+1]) with wraparound.
constexpr auto ring_avg_1d = [](const Grid1& in, const Out1& out,
                                const int* c, const void* /*parameter*/) {
  const int x = c[0];
  out(x) = (in(x - 1) + in(x) + in(x + 1)) / 3.0;
};

TEST(StencilPeriodic, OneDimensionalRingMatchesReference) {
  constexpr std::size_t kN = 48;
  const auto initial = random_grid(kN, 31);
  // Periodic reference: EVERY cell updates, indices wrap.
  std::vector<double> in = initial;
  std::vector<double> out(kN);
  for (int it = 0; it < 5; ++it) {
    for (std::size_t x = 0; x < kN; ++x) {
      out[x] = (in[(x + kN - 1) % kN] + in[x] + in[(x + 1) % kN]) / 3.0;
    }
    std::swap(in, out);
  }
  const auto& expected = in;

  for (int ranks : {1, 2, 4}) {
    std::vector<double> assembled(kN, 0.0);
    minimpi::World world(ranks);
    world.run([&](minimpi::Communicator& comm) {
      RuntimeEnv env(comm, cpu_options());
      TypedStencil<double, 1> st(env);
      st.set_stencil(ring_avg_1d);
      st.set_grid(initial, {kN});
      st.set_periodic({true});
      ASSERT_TRUE(st.run(5).is_ok());
      st.write_back(assembled);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_NEAR(assembled[i], expected[i], 1e-12)
          << "ranks " << ranks << " cell " << i;
    }
  }
}

TEST(StencilPeriodic, TwoDimensionalTorusMatchesReference) {
  constexpr std::size_t kH = 16;
  constexpr std::size_t kW = 20;
  const auto initial = random_grid(kH * kW, 32);
  std::vector<double> in = initial;
  std::vector<double> out(kH * kW);
  for (int it = 0; it < 3; ++it) {
    for (std::size_t y = 0; y < kH; ++y) {
      for (std::size_t x = 0; x < kW; ++x) {
        out[y * kW + x] =
            0.2 * (in[y * kW + x] + in[((y + kH - 1) % kH) * kW + x] +
                   in[((y + 1) % kH) * kW + x] +
                   in[y * kW + (x + kW - 1) % kW] +
                   in[y * kW + (x + 1) % kW]);
      }
    }
    std::swap(in, out);
  }
  const auto& expected = in;

  std::vector<double> assembled(kH * kW, 0.0);
  minimpi::World world(4);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {kH, kW});
    st.set_periodic({true, true});
    st.set_topology({2, 2});
    ASSERT_TRUE(st.run(3).is_ok());
    st.write_back(assembled);
  });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(assembled[i], expected[i], 1e-12) << "cell " << i;
  }
}

TEST(StencilPeriodic, MixedPeriodicAndFixed) {
  // Periodic in x, fixed in y: rows 0 and kH-1 stay, columns wrap.
  constexpr std::size_t kH = 12;
  constexpr std::size_t kW = 10;
  const auto initial = random_grid(kH * kW, 33);
  std::vector<double> in = initial;
  std::vector<double> out = initial;
  for (int it = 0; it < 3; ++it) {
    for (std::size_t y = 1; y + 1 < kH; ++y) {
      for (std::size_t x = 0; x < kW; ++x) {
        out[y * kW + x] =
            0.2 * (in[y * kW + x] + in[(y - 1) * kW + x] +
                   in[(y + 1) * kW + x] + in[y * kW + (x + kW - 1) % kW] +
                   in[y * kW + (x + 1) % kW]);
      }
    }
    std::swap(in, out);
  }
  const auto& expected = in;

  std::vector<double> assembled(kH * kW, 0.0);
  minimpi::World world(4);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {kH, kW});
    st.set_periodic({false, true});
    ASSERT_TRUE(st.run(3).is_ok());
    st.write_back(assembled);
  });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(assembled[i], expected[i], 1e-12) << "cell " << i;
  }
}

}  // namespace
}  // namespace psf::pattern

namespace psf::pattern {
namespace {

// --- segment walk vs a per-cell oracle -------------------------------------------

using Cell = std::array<int, 3>;

struct WalkCase {
  int ndims = 1;
  int halo = 1;
  int ranks = 1;
  int gpus = 0;
  std::vector<int> topology;
  std::vector<std::size_t> dims;
  std::vector<bool> periodic;
};

std::string describe(const WalkCase& wc) {
  std::ostringstream out;
  out << "ndims=" << wc.ndims << " halo=" << wc.halo << " ranks=" << wc.ranks
      << " gpus=" << wc.gpus << " dims/topo/periodic=";
  for (int d = 0; d < wc.ndims; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    out << ' ' << wc.dims[dd] << '/' << wc.topology[dd] << '/'
        << (wc.periodic[dd] ? "p" : "f");
  }
  return out.str();
}

/// Random geometry: extents not divisible by the rank count, sub-grids down
/// to exactly the halo width, periodic/fixed/mixed borders.
WalkCase draw_case(support::Xoshiro256& rng) {
  WalkCase wc;
  wc.ndims = 1 + static_cast<int>(rng.next_below(3));
  wc.halo = 1 + static_cast<int>(rng.next_below(2));
  wc.ranks = 1 + static_cast<int>(rng.next_below(8));
  wc.gpus = static_cast<int>(rng.next_below(2));
  wc.topology.assign(static_cast<std::size_t>(wc.ndims), 1);
  int rest = wc.ranks;
  for (int p = 2; rest > 1;) {
    if (rest % p != 0) {
      ++p;
      continue;
    }
    wc.topology[rng.next_below(static_cast<std::uint64_t>(wc.ndims))] *= p;
    rest /= p;
  }
  const int border_mode = static_cast<int>(rng.next_below(3));
  const bool tight = rng.next_below(4) == 0;
  for (int d = 0; d < wc.ndims; ++d) {
    const auto parts = static_cast<std::size_t>(
        wc.topology[static_cast<std::size_t>(d)]);
    const std::size_t extra =
        tight ? rng.next_below(parts + 1)
              : rng.next_below(3 * parts + (wc.ndims == 3 ? 3 : 12));
    wc.dims.push_back(parts * static_cast<std::size_t>(wc.halo) + extra);
    wc.periodic.push_back(border_mode == 0   ? false
                          : border_mode == 1 ? true
                                             : rng.next_below(2) == 0);
  }
  return wc;
}

enum class CellClass { kInner, kBoundary, kFixed };

/// Brute-force per-cell classification of one rank's interior, in padded
/// coordinates (unused dimensions stay 0). Row-major order.
struct Oracle {
  std::vector<Cell> inner;
  std::vector<Cell> boundary;        ///< halo-reading, not fixed
  std::vector<Cell> boundary_pass;   ///< boundary and fixed, row-major
  std::size_t stats_inner = 0;
  std::size_t stats_boundary = 0;
};

Oracle classify(const WalkCase& wc, const std::vector<std::size_t>& ext,
                const std::vector<std::size_t>& off) {
  Oracle oracle;
  const int h = wc.halo;
  std::array<int, 3> lo = {0, 0, 0};
  std::array<int, 3> hi = {1, 1, 1};
  for (int d = 0; d < wc.ndims; ++d) {
    lo[static_cast<std::size_t>(d)] = h;
    hi[static_cast<std::size_t>(d)] =
        h + static_cast<int>(ext[static_cast<std::size_t>(d)]);
  }
  Cell c{};
  for (c[0] = lo[0]; c[0] < hi[0]; ++c[0]) {
    for (c[1] = lo[1]; c[1] < hi[1]; ++c[1]) {
      for (c[2] = lo[2]; c[2] < hi[2]; ++c[2]) {
        bool fixed = false;
        bool halo_reading = false;
        for (int d = 0; d < wc.ndims; ++d) {
          const auto dd = static_cast<std::size_t>(d);
          const long long g =
              static_cast<long long>(off[dd]) + c[dd] - h;
          const auto global = static_cast<long long>(wc.dims[dd]);
          if (!wc.periodic[dd] && (g < h || g >= global - h)) fixed = true;
          const bool has_lo = wc.periodic[dd] || off[dd] > 0;
          const bool has_hi =
              wc.periodic[dd] || off[dd] + ext[dd] < wc.dims[dd];
          if ((has_lo && c[dd] < 2 * h) ||
              (has_hi && c[dd] >= static_cast<int>(ext[dd]))) {
            halo_reading = true;
          }
        }
        (halo_reading ? oracle.stats_boundary : oracle.stats_inner) += 1;
        if (fixed) {
          oracle.boundary_pass.push_back(c);
        } else if (halo_reading) {
          oracle.boundary.push_back(c);
          oracle.boundary_pass.push_back(c);
        } else {
          oracle.inner.push_back(c);
        }
      }
    }
  }
  return oracle;
}

/// Per-rank cell log. Each block launch fetches its staging object first
/// (StencilEmitSink), which points the calling thread at that block's log,
/// so the record is exact at any executor width; concatenating the logs in
/// (device, block) order gives the pass's visit order.
struct CellLog {
  struct Block {
    std::vector<Cell> stencil;
    std::vector<Cell> emit;
  };
  std::mutex mutex;
  std::map<std::tuple<int, int, int>, Block> blocks;  ///< (pass, dev, blk)
  static inline thread_local Block* current = nullptr;

  std::vector<Cell> concat(int pass, bool emits) const {
    std::vector<Cell> out;
    for (const auto& [key, block] : blocks) {
      if (std::get<0>(key) != pass) continue;
      const auto& cells = emits ? block.emit : block.stencil;
      out.insert(out.end(), cells.begin(), cells.end());
    }
    return out;
  }
};

/// Calls `body(std::integral_constant<int, N>{})` with N == ndims (1-3), so
/// a random-geometry test can instantiate TypedStencil<double, N>.
template <typename Body>
void for_ndims(int ndims, Body&& body) {
  if (ndims == 1) {
    body(std::integral_constant<int, 1>{});
  } else if (ndims == 2) {
    body(std::integral_constant<int, 2>{});
  } else {
    body(std::integral_constant<int, 3>{});
  }
}

/// Records every cell the generated row loop computes.
template <int N>
struct RecordStencil {
  void operator()(const GridView<double, N>& /*in*/,
                  const MutableGridView<double, N>& /*out*/, const int* c,
                  const void* /*parameter*/) const {
    Cell cell{};
    std::copy_n(c, N, cell.begin());
    CellLog::current->stencil.push_back(cell);
  }
};

constexpr auto ignore_cell = [](const auto& /*in*/, const auto& /*out*/,
                                const int* /*c*/, const void* /*parameter*/) {
};

void record_emit(ReductionObject* /*obj*/, const void* /*old_grid*/,
                 const void* /*new_grid*/, const int* offset, const int* size,
                 const void* /*parameter*/) {
  // The runtime passes zero extents for the unused dimensions.
  Cell c{};
  for (std::size_t d = 0; d < 3 && size[d] > 0; ++d) c[d] = offset[d];
  CellLog::current->emit.push_back(c);
}

void sum_doubles(void* dst, const void* src) {
  *static_cast<double*>(dst) += *static_cast<const double*>(src);
}

class LogSink : public StencilEmitSink {
 public:
  explicit LogSink(CellLog& log) : log_(&log) {}
  ReductionObject* block_object(int device, int block,
                                bool inner_pass) override {
    std::lock_guard<std::mutex> guard(log_->mutex);
    CellLog::current =
        &log_->blocks[{inner_pass ? 0 : 1, device, block}];
    return &object_;
  }

 private:
  CellLog* log_;
  ReductionObject object_{ObjectLayout::kDense, 1, sizeof(double),
                          sum_doubles};
};

// Checks run on the rank threads use EXPECT: an early return from one rank
// would leave its peers blocked in the halo exchange.
TEST(StencilSegmentWalk, VisitsTheOracleCellsInOrder) {
  support::Xoshiro256 rng(0x5e9);
  for (int trial = 0; trial < 80 && !HasFailure(); ++trial) {
    const WalkCase wc = draw_case(rng);
    const std::string where = describe(wc);
    std::size_t total = 1;
    for (const auto d : wc.dims) total *= d;
    const std::vector<double> grid(total, 1.0);
    minimpi::World world(wc.ranks);
    world.run([&](minimpi::Communicator& comm) {
      EnvOptions options = cpu_options();
      options.use_gpus = wc.gpus;
      options.num_threads = 1 + comm.rank() % 3;
      RuntimeEnv env(comm, options);
      for_ndims(wc.ndims, [&](auto dims) {
        constexpr int kDims = decltype(dims)::value;
        TypedStencil<double, kDims> typed(env);
        typed.set_stencil(RecordStencil<kDims>{});
        typed.set_grid(grid, wc.dims);
        typed.set_halo(wc.halo);
        typed.set_topology(wc.topology);
        typed.set_periodic(wc.periodic);
        StencilRuntime* st = &typed.raw();
        CellLog log;
        LogSink sink(log);
        st->set_fused_emit(record_emit, nullptr, &sink);
        const std::string rank =
            where + " rank " + std::to_string(comm.rank());
        for (int sweep = 0; sweep < 2; ++sweep) {
          log.blocks.clear();
          EXPECT_TRUE(st->start().is_ok()) << rank;
          const Oracle oracle =
              classify(wc, st->local_extents(), st->global_offset());
          const std::string at = rank + " sweep " + std::to_string(sweep);
          EXPECT_EQ(st->stats().inner_cells, oracle.stats_inner) << at;
          EXPECT_EQ(st->stats().boundary_cells, oracle.stats_boundary) << at;
          EXPECT_TRUE(log.concat(0, false) == oracle.inner)
              << at << ": inner-pass stencil cells";
          EXPECT_TRUE(log.concat(0, true) == oracle.inner)
              << at << ": inner-pass emit cells";
          EXPECT_TRUE(log.concat(1, false) == oracle.boundary)
              << at << ": boundary-pass stencil cells";
          EXPECT_TRUE(log.concat(1, true) == oracle.boundary_pass)
              << at << ": boundary-pass emit cells";
        }
        // The unfused reduce pass walks the same segments, emits only. Its
        // sweep runs no block hook, so it must not record.
        st->clear_fused_emit();
        typed.set_stencil(ignore_cell);
        EXPECT_TRUE(st->start().is_ok()) << rank;
        log.blocks.clear();
        EXPECT_TRUE(st->reduce_pass(record_emit, nullptr, &sink).is_ok());
        const Oracle oracle =
            classify(wc, st->local_extents(), st->global_offset());
        EXPECT_TRUE(log.concat(0, true) == oracle.inner)
            << rank << ": reduce-pass inner emits";
        EXPECT_TRUE(log.concat(1, true) == oracle.boundary_pass)
            << rank << ": reduce-pass boundary emits";
        EXPECT_TRUE(log.concat(0, false).empty() &&
                    log.concat(1, false).empty())
            << rank << ": reduce pass applied the stencil";
      });
      env.finalize();
    });
  }
}

// --- box copies in random geometries --------------------------------------------

/// Axis cross of radius `*radius` (the halo) in N dimensions: the cell
/// plus its 2*radius neighbors along every dimension, averaged.
template <int N>
struct CrossAvg {
  void operator()(const GridView<double, N>& in,
                  const MutableGridView<double, N>& out, const int* c,
                  const int* radius) const {
    std::array<int, N> at{};
    std::copy_n(c, N, at.begin());
    double sum = std::apply(in, at);
    for (std::size_t d = 0; d < N; ++d) {
      for (int k = 1; k <= *radius; ++k) {
        auto lo = at;
        auto hi = at;
        lo[d] -= k;
        hi[d] += k;
        sum += std::apply(in, lo);
        sum += std::apply(in, hi);
      }
    }
    std::apply(out, at) = sum / (1 + 2 * *radius * N);
  }
};

/// cross_avg on the global grid: indices wrap along periodic dimensions,
/// cells within the halo of a fixed border keep their value.
std::vector<double> cross_avg_reference(const WalkCase& wc,
                                        std::vector<double> in,
                                        int iterations) {
  std::array<long long, 3> n = {1, 1, 1};
  for (int d = 0; d < wc.ndims; ++d) {
    n[static_cast<std::size_t>(d)] =
        static_cast<long long>(wc.dims[static_cast<std::size_t>(d)]);
  }
  const auto index = [&](const std::array<long long, 3>& g) {
    return static_cast<std::size_t>((g[0] * n[1] + g[1]) * n[2] + g[2]);
  };
  std::vector<double> out = in;
  for (int it = 0; it < iterations; ++it) {
    std::array<long long, 3> g{};
    for (g[0] = 0; g[0] < n[0]; ++g[0]) {
      for (g[1] = 0; g[1] < n[1]; ++g[1]) {
        for (g[2] = 0; g[2] < n[2]; ++g[2]) {
          bool fixed = false;
          for (int d = 0; d < wc.ndims; ++d) {
            const auto dd = static_cast<std::size_t>(d);
            if (!wc.periodic[dd] && (g[dd] < wc.halo ||
                                     g[dd] >= n[dd] - wc.halo)) {
              fixed = true;
            }
          }
          if (fixed) {
            out[index(g)] = in[index(g)];
            continue;
          }
          double sum = in[index(g)];
          for (int d = 0; d < wc.ndims; ++d) {
            const auto dd = static_cast<std::size_t>(d);
            for (int k = 1; k <= wc.halo; ++k) {
              auto lo = g;
              auto hi = g;
              lo[dd] = ((g[dd] - k) % n[dd] + n[dd]) % n[dd];
              hi[dd] = (g[dd] + k) % n[dd];
              sum += in[index(lo)];
              sum += in[index(hi)];
            }
          }
          out[index(g)] = sum / (1 + 2 * wc.halo * wc.ndims);
        }
      }
    }
    std::swap(in, out);
  }
  return in;
}

// Scatter into the padded sub-grids, halo pack/unpack, write_back and
// gather all copy whole lines along the last dimension; periodic halos
// split a line into wrapped runs.
TEST(StencilBoxCopies, RandomGeometriesMatchTheGlobalReference) {
  support::Xoshiro256 rng(0x5eb);
  for (int trial = 0; trial < 60 && !HasFailure(); ++trial) {
    const WalkCase wc = draw_case(rng);
    SCOPED_TRACE(describe(wc));
    std::size_t total = 1;
    for (const auto d : wc.dims) total *= d;
    const auto initial = random_grid(total, 50 + trial);
    const auto expected = cross_avg_reference(wc, initial, 2);
    std::vector<double> written(total, 0.0);
    std::vector<double> gathered(total, 0.0);
    minimpi::World world(wc.ranks);
    world.run([&](minimpi::Communicator& comm) {
      EnvOptions options = cpu_options();
      options.use_gpus = wc.gpus;
      RuntimeEnv env(comm, options);
      for_ndims(wc.ndims, [&](auto dims) {
        constexpr int kDims = decltype(dims)::value;
        TypedStencil<double, kDims> st(env);
        st.template set_stencil<int>(CrossAvg<kDims>{});
        st.set_parameter(&wc.halo);
        st.set_grid(initial, wc.dims);
        st.set_halo(wc.halo);
        st.set_topology(wc.topology);
        st.set_periodic(wc.periodic);
        EXPECT_TRUE(st.run(2).is_ok());
        st.write_back(written);  // disjoint boxes, one per rank
        st.gather(gathered, wc.ranks - 1);
      });
      env.finalize();
    });
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(written[i], expected[i]) << "write_back cell " << i;
      ASSERT_EQ(gathered[i], expected[i]) << "gather cell " << i;
    }
  }
}

// --- owned-box gather -----------------------------------------------------------

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

TEST(StencilGather, MatchesWriteBackSumReduce) {
  constexpr double kSentinel = -12345.0;
  const std::vector<std::vector<std::size_t>> shapes = {{37, 29},
                                                        {11, 9, 13}};
  for (const auto& dims : shapes) {
    std::size_t total = 1;
    for (const auto d : dims) total *= d;
    const auto initial = random_grid(total, 41 + dims.size());
    for (const int ranks : {1, 2, 4, 8}) {
      SCOPED_TRACE("ndims " + std::to_string(dims.size()) + " ranks " +
                   std::to_string(ranks));
      std::vector<std::vector<double>> summed(static_cast<std::size_t>(ranks));
      std::vector<std::vector<double>> gathered(
          static_cast<std::size_t>(ranks));
      minimpi::World world(ranks);
      world.run([&](minimpi::Communicator& comm) {
        RuntimeEnv env(comm, cpu_options());
        const auto check = [&](auto& st) {
          st.set_grid(initial, dims);
          EXPECT_TRUE(st.run(2).is_ok());
          const auto rank = static_cast<std::size_t>(comm.rank());
          auto& reference = summed[rank];
          reference.assign(total, 0.0);
          st.write_back(reference);
          comm.reduce<double>(reference, 0,
                              [](double& a, double b) { a += b; });
          gathered[rank].assign(total, kSentinel);
          st.gather(gathered[rank], 0);
        };
        if (dims.size() == 2) {
          TypedStencil<double, 2> st(env);
          st.set_stencil(avg5);
          check(st);
        } else {
          TypedStencil<double, 3> st(env);
          st.set_stencil(avg7_3d);
          check(st);
        }
        env.finalize();
      });
      for (std::size_t i = 0; i < total; ++i) {
        ASSERT_EQ(gathered[0][i], summed[0][i]) << "cell " << i;
      }
      for (int rank = 1; rank < ranks; ++rank) {
        const auto& untouched = gathered[static_cast<std::size_t>(rank)];
        ASSERT_TRUE(std::all_of(untouched.begin(), untouched.end(),
                                [](double v) { return v == kSentinel; }))
            << "rank " << rank << " output was written";
      }
    }
  }
}

TEST(StencilGather, NonZeroRootGetsTheWholeGrid) {
  constexpr std::size_t kH = 21;
  constexpr std::size_t kW = 18;
  const auto initial = random_grid(kH * kW, 44);
  constexpr int kRanks = 4;
  constexpr int kRoot = 2;
  std::vector<std::vector<double>> gathered(kRanks);
  std::vector<double> shared(kH * kW, 0.0);
  minimpi::World world(kRanks);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(initial, {kH, kW});
    EXPECT_TRUE(st.run(3).is_ok());
    st.write_back(shared);  // disjoint boxes, one per rank
    auto& mine = gathered[static_cast<std::size_t>(comm.rank())];
    mine.assign(kH * kW, 0.0);
    st.gather(mine, kRoot);
    env.finalize();
  });
  EXPECT_EQ(gathered[kRoot], shared);
}

}  // namespace
}  // namespace psf::pattern
