// PSF — stress tests: high rank counts and randomized collective sweeps
// shake out protocol deadlocks and matching bugs that small worlds miss.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "pattern/api.h"
#include "pattern/typed.h"
#include "support/rng.h"

namespace psf {
namespace {

constexpr auto degree_compute = [](pattern::TypedObject<double>& obj,
                                   const pattern::EdgeView& edge,
                                   const double*, const void*) {
  if (edge.update[0]) obj.insert(edge.node[0], 1.0);
  if (edge.update[1]) obj.insert(edge.node[1], 1.0);
};
constexpr auto sum_reduce = [](double& dst, const double& src) { dst += src; };
constexpr auto avg5 = [](const pattern::GridView<double, 2>& in,
                         const pattern::MutableGridView<double, 2>& out,
                         const int* c, const void*) {
  const int y = c[0];
  const int x = c[1];
  out(y, x) = 0.2 * (in(y, x) + in(y - 1, x) + in(y + 1, x) + in(y, x - 1) +
                     in(y, x + 1));
};

TEST(Stress, FortyEightRankIrregularReduction) {
  constexpr int kRanks = 48;
  constexpr std::size_t kNodes = 1000;
  support::Xoshiro256 rng(71);
  std::vector<pattern::Edge> edges(8000);
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

  std::vector<double> node_data(kNodes, 0.0);
  std::vector<double> totals(kRanks, 0.0);
  minimpi::World world(kRanks);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.use_cpu = true;
    pattern::RuntimeEnv env(comm, options);
    pattern::TypedIReduce<double, double> ir(env);
    ir.set_edge_compute(degree_compute);
    ir.set_node_reduce(sum_reduce);
    ir.set_nodes(node_data);
    ir.set_edges(edges);
    // Two passes: the second exercises the steps-5/6-only exchange path at
    // scale.
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE(ir.start().is_ok());
      if (pass == 0) {
        ir.update_nodedata([](double&, const double*, const void*) {});
      }
    }
    double total = 0.0;
    const auto& raw = ir.raw();
    for (std::uint32_t l = 0; l < raw.local_nodes(); ++l) {
      double out = 0.0;
      if (ir.lookup_local(l, &out)) {
        const auto global = raw.local_to_global(l);
        EXPECT_DOUBLE_EQ(out, expected[global]);
        total += out;
      }
    }
    totals[static_cast<std::size_t>(comm.rank())] = total;
  });
  const double grand =
      std::accumulate(totals.begin(), totals.end(), 0.0);
  EXPECT_DOUBLE_EQ(grand, 2.0 * static_cast<double>(edges.size()));
}

TEST(Stress, FortyEightRankStencil) {
  constexpr int kRanks = 48;
  constexpr std::size_t kH = 60;
  constexpr std::size_t kW = 64;
  support::Xoshiro256 rng(72);
  std::vector<double> grid(kH * kW);
  for (auto& value : grid) value = rng.next_in(0.0, 1.0);

  std::vector<double> in = grid;
  std::vector<double> out = grid;
  for (int it = 0; it < 2; ++it) {
    for (std::size_t y = 1; y + 1 < kH; ++y) {
      for (std::size_t x = 1; x + 1 < kW; ++x) {
        out[y * kW + x] =
            0.2 * (in[y * kW + x] + in[(y - 1) * kW + x] +
                   in[(y + 1) * kW + x] + in[y * kW + x - 1] +
                   in[y * kW + x + 1]);
      }
    }
    std::swap(in, out);
  }

  std::vector<double> assembled(kH * kW, 0.0);
  minimpi::World world(kRanks);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.use_cpu = true;
    pattern::RuntimeEnv env(comm, options);
    pattern::TypedStencil<double, 2> st(env);
    st.set_stencil(avg5);
    st.set_grid(grid, {kH, kW});
    ASSERT_TRUE(st.run(2).is_ok());
    st.write_back(assembled);
  });
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_NEAR(assembled[i], in[i], 1e-12) << "cell " << i;
  }
}

TEST(Stress, CollectiveSweepRandomRootsAndSizes) {
  constexpr int kRanks = 12;
  support::Xoshiro256 rng(73);
  for (int trial = 0; trial < 8; ++trial) {
    const int root = static_cast<int>(rng.next_below(kRanks));
    const std::size_t elements = rng.next_below(5000) + 1;
    minimpi::World world(kRanks);
    world.run([&](minimpi::Communicator& comm) {
      // bcast: root's pattern must arrive everywhere.
      std::vector<std::uint32_t> data(elements);
      if (comm.rank() == root) {
        for (std::size_t i = 0; i < elements; ++i) {
          data[i] = static_cast<std::uint32_t>(i * 2654435761u);
        }
      }
      comm.bcast(std::as_writable_bytes(std::span(data)), root);
      for (std::size_t i = 0; i < elements; ++i) {
        ASSERT_EQ(data[i], static_cast<std::uint32_t>(i * 2654435761u));
      }
      // reduce: sum of rank ids at a random root.
      std::vector<long> ones(elements, comm.rank());
      comm.reduce<long>(ones, root, [](long& a, long b) { a += b; });
      if (comm.rank() == root) {
        const long expected = kRanks * (kRanks - 1) / 2;
        for (long value : ones) ASSERT_EQ(value, expected);
      }
      comm.barrier();
    });
  }
}

TEST(Stress, RepeatedWorldsDoNotLeakState) {
  // Many short-lived worlds with traffic: mailboxes must drain, barrier
  // state must reset.
  for (int round = 0; round < 20; ++round) {
    minimpi::World world(5);
    world.run([&](minimpi::Communicator& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send_value<int>(next, 1, comm.rank());
      const int got = comm.recv_value<int>(prev, 1);
      EXPECT_EQ(got, prev);
      comm.barrier();
    });
    EXPECT_GT(world.makespan(), 0.0);
  }
}

}  // namespace
}  // namespace psf
