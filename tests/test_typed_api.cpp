// PSF — tests for the typed pattern facades (pattern/typed.h): typed
// callables, parameters and node updates lowered to the runtimes' function
// pointers must reach the runtime intact and give the reference results.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "pattern/typed.h"
#include "support/rng.h"

namespace psf::pattern {
namespace {

EnvOptions cpu_options() {
  EnvOptions options;
  options.use_cpu = true;
  options.use_gpus = 0;
  return options;
}

TEST(TypedObject, InsertAndLookup) {
  ReductionObject raw(ObjectLayout::kHash, 16, sizeof(double),
                      +[](void* d, const void* s) {
                        *static_cast<double*>(d) +=
                            *static_cast<const double*>(s);
                      });
  TypedObject<double> typed(raw);
  typed.insert(3, 1.5);
  typed.insert(3, 2.5);
  double out = 0.0;
  ASSERT_TRUE(typed.lookup(3, &out));
  EXPECT_DOUBLE_EQ(out, 4.0);
}

TEST(TypedObject, RejectsMismatchedValueSize) {
  ReductionObject raw(ObjectLayout::kHash, 8, sizeof(float),
                      +[](void*, const void*) {});
  EXPECT_DEATH(TypedObject<double> typed(raw), "mismatched value size");
}

TEST(TypedGR, HistogramMatchesRawApi) {
  constexpr std::size_t kN = 5000;
  std::vector<std::uint32_t> data(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    data[i] = static_cast<std::uint32_t>(i % 10);
  }
  minimpi::World world(3);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedGReduce<std::uint32_t, std::uint64_t> gr(env);
    gr.set_emit([](TypedObject<std::uint64_t>& obj,
                   const std::uint32_t& unit, std::size_t /*index*/,
                   const void* /*parameter*/) { obj.insert(unit, 1); });
    gr.set_reduce(
        [](std::uint64_t& dst, const std::uint64_t& src) { dst += src; });
    gr.set_input(data);
    gr.configure(32);
    ASSERT_TRUE(gr.start().is_ok());
    for (std::uint64_t bucket = 0; bucket < 10; ++bucket) {
      std::uint64_t count = 0;
      ASSERT_TRUE(gr.lookup_global(bucket, &count));
      EXPECT_EQ(count, kN / 10);
    }
  });
}

TEST(TypedGR, ParameterIsForwarded) {
  struct Threshold {
    std::uint32_t min;
  };
  std::vector<std::uint32_t> data{1, 5, 9, 3, 7};
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedGReduce<std::uint32_t, std::uint64_t> gr(env);
    gr.set_emit<Threshold>(
        [](TypedObject<std::uint64_t>& obj, const std::uint32_t& unit,
           std::size_t, const Threshold* threshold) {
          if (unit >= threshold->min) obj.insert(0, 1);
        });
    gr.set_reduce(
        [](std::uint64_t& dst, const std::uint64_t& src) { dst += src; });
    gr.set_input(data);
    Threshold threshold{5};
    gr.set_parameter(&threshold);
    gr.configure(4);
    ASSERT_TRUE(gr.start().is_ok());
    std::uint64_t count = 0;
    ASSERT_TRUE(gr.lookup_global(0, &count));
    EXPECT_EQ(count, 3u);  // 5, 9, 7
  });
}

TEST(TypedIR, DegreesMatch) {
  constexpr std::size_t kNodes = 200;
  support::Xoshiro256 rng(4);
  std::vector<Edge> edges(1200);
  for (auto& edge : edges) {
    edge.u = static_cast<std::uint32_t>(rng.next_below(kNodes));
    do {
      edge.v = static_cast<std::uint32_t>(rng.next_below(kNodes));
    } while (edge.v == edge.u);
  }
  std::vector<double> expected(kNodes, 0.0);
  for (const auto& edge : edges) {
    expected[edge.u] += 1.0;
    expected[edge.v] += 1.0;
  }

  minimpi::World world(4);
  // Shared global node array (the simulated input/result files).
  std::vector<double> nodes(kNodes, 0.0);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedIReduce<double, double> ir(env);
    ir.set_edge_compute(
        [](TypedObject<double>& obj, const EdgeView& edge,
           const double* /*nodes*/, const void* /*parameter*/) {
          if (edge.update[0]) obj.insert(edge.node[0], 1.0);
          if (edge.update[1]) obj.insert(edge.node[1], 1.0);
        });
    ir.set_node_reduce([](double& dst, const double& src) { dst += src; });
    ir.set_nodes(nodes);
    ir.set_edges(edges);
    ASSERT_TRUE(ir.start().is_ok());

    auto& raw = ir.raw();
    for (std::size_t n = 0; n < raw.local_nodes(); ++n) {
      const auto global = raw.local_to_global(static_cast<std::uint32_t>(n));
      double out = 0.0;
      if (ir.lookup_local(static_cast<std::uint32_t>(n), &out)) {
        EXPECT_DOUBLE_EQ(out, expected[global]);
      }
    }

    // update_nodedata through the typed wrapper writes the values back.
    ir.update_nodedata(
        [](double& node, const double* value, const void* /*parameter*/) {
          if (value != nullptr) node = *value;
        });
    comm.barrier();
    for (std::size_t n = 0; n < kNodes; ++n) {
      EXPECT_DOUBLE_EQ(nodes[n], expected[n]);
    }
  });
}

TEST(TypedST, AveragingStencilMatchesReference) {
  constexpr std::size_t kH = 20;
  constexpr std::size_t kW = 24;
  support::Xoshiro256 rng(6);
  std::vector<double> grid(kH * kW);
  for (auto& value : grid) value = rng.next_in(0.0, 10.0);

  // Sequential reference.
  std::vector<double> expected = grid;
  {
    std::vector<double> in = grid;
    for (int it = 0; it < 3; ++it) {
      for (std::size_t y = 1; y + 1 < kH; ++y) {
        for (std::size_t x = 1; x + 1 < kW; ++x) {
          expected[y * kW + x] =
              0.25 * (in[(y - 1) * kW + x] + in[(y + 1) * kW + x] +
                      in[y * kW + x - 1] + in[y * kW + x + 1]);
        }
      }
      std::swap(in, expected);
    }
    expected = in;
  }

  std::vector<double> assembled(grid.size(), 0.0);
  minimpi::World world(4);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil([](const GridView<double, 2>& in,
                      const MutableGridView<double, 2>& out,
                      const int* offset, const void* /*parameter*/) {
      const int y = offset[0];
      const int x = offset[1];
      out(y, x) = 0.25 * (in(y - 1, x) + in(y + 1, x) + in(y, x - 1) +
                          in(y, x + 1));
    });
    st.set_grid(grid, {kH, kW});
    ASSERT_TRUE(st.run(3).is_ok());
    st.write_back(assembled);
  });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(assembled[i], expected[i], 1e-12) << "cell " << i;
  }
}

TEST(GridView, ExtentsAndIndexing) {
  const int size[3] = {2, 3, 4};
  std::vector<int> data(24);
  std::iota(data.begin(), data.end(), 0);
  GridView<int, 3> view(data.data(), size);
  EXPECT_EQ(view.extent(0), 2);
  EXPECT_EQ(view.extent(2), 4);
  EXPECT_EQ(view(0, 0, 0), 0);
  EXPECT_EQ(view(1, 2, 3), 23);
  EXPECT_EQ(view(1, 0, 2), 14);
}

// The views cache their strides at construction; every accessor must still
// address exactly the row-major element of the padded extents, through the
// const and the mutable view alike.
TEST(GridView, CachedStridesAddressRowMajorElements) {
  const int size[3] = {5, 7, 9};
  std::vector<double> data(5 * 7 * 9);
  const GridView<double, 1> in1(data.data(), size);
  const MutableGridView<double, 1> out1(data.data(), size);
  for (int x0 = 0; x0 < size[0]; ++x0) {
    EXPECT_EQ(&in1(x0), &data[static_cast<std::size_t>(x0)]);
    EXPECT_EQ(&out1(x0), &in1(x0));
  }
  const GridView<double, 2> in2(data.data(), size);
  const MutableGridView<double, 2> out2(data.data(), size);
  for (int x0 = 0; x0 < size[0]; ++x0) {
    for (int x1 = 0; x1 < size[1]; ++x1) {
      const auto at = static_cast<std::size_t>(x0 * size[1] + x1);
      EXPECT_EQ(&in2(x0, x1), &data[at]);
      EXPECT_EQ(&out2(x0, x1), &in2(x0, x1));
    }
  }
  const GridView<double, 3> in3(data.data(), size);
  const MutableGridView<double, 3> out3(data.data(), size);
  for (int x0 = 0; x0 < size[0]; ++x0) {
    for (int x1 = 0; x1 < size[1]; ++x1) {
      for (int x2 = 0; x2 < size[2]; ++x2) {
        const auto at =
            static_cast<std::size_t>((x0 * size[1] + x1) * size[2] + x2);
        EXPECT_EQ(&in3(x0, x1, x2), &data[at]);
        EXPECT_EQ(&out3(x0, x1, x2), &in3(x0, x1, x2));
      }
    }
  }
  for (int dim = 0; dim < 3; ++dim) {
    EXPECT_EQ(in3.extent(dim), size[dim]);
    EXPECT_EQ(out3.extent(dim), size[dim]);
  }
}

}  // namespace
}  // namespace psf::pattern
