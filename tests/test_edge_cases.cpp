// PSF — degenerate-configuration tests: the runtimes must stay correct at
// the extremes (fewer units than ranks, empty inputs, single elements,
// more devices than work, grids barely larger than the halo).
#include <gtest/gtest.h>

#include <vector>

#include "pattern/api.h"
#include "pattern/typed.h"

namespace psf::pattern {
namespace {

void count_emit(ReductionObject* obj, const void* /*input*/,
                std::size_t /*index*/, const void* /*parameter*/) {
  const double one = 1.0;
  obj->insert(0, &one);
}

void degree_compute(ReductionObject* obj, const EdgeView& edge,
                    const void* /*edge_data*/, const void* /*node_data*/,
                    const void* /*parameter*/) {
  const double one = 1.0;
  if (edge.update[0]) obj->insert(edge.node[0], &one);
  if (edge.update[1]) obj->insert(edge.node[1], &one);
}

void sum_reduce(void* dst, const void* src) {
  *static_cast<double*>(dst) += *static_cast<const double*>(src);
}

constexpr auto copy_cell = [](const GridView<double, 2>& in,
                              const MutableGridView<double, 2>& out,
                              const int* c, const void* /*parameter*/) {
  out(c[0], c[1]) = in(c[0], c[1]);
};

EnvOptions cpu_options() {
  EnvOptions options;
  options.use_cpu = true;
  return options;
}

// --- generalized reductions ----------------------------------------------------

TEST(EdgeCases, GrFewerUnitsThanRanks) {
  const std::vector<std::uint32_t> data(3, 0);  // 3 units, 8 ranks
  minimpi::World world(8);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    auto* gr = env.get_GR();
    gr->set_emit_func(count_emit);
    gr->set_reduce_func(sum_reduce);
    gr->set_input(data.data(), sizeof(std::uint32_t), data.size());
    gr->configure_object(4, sizeof(double));
    ASSERT_TRUE(gr->start().is_ok());
    double count = 0.0;
    ASSERT_TRUE(gr->get_global_reduction().lookup(0, &count));
    EXPECT_DOUBLE_EQ(count, 3.0);
  });
}

TEST(EdgeCases, GrSingleUnit) {
  const std::vector<std::uint32_t> data(1, 0);
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    auto* gr = env.get_GR();
    gr->set_emit_func(count_emit);
    gr->set_reduce_func(sum_reduce);
    gr->set_input(data.data(), sizeof(std::uint32_t), data.size());
    gr->configure_object(2, sizeof(double));
    ASSERT_TRUE(gr->start().is_ok());
    double count = 0.0;
    ASSERT_TRUE(gr->get_global_reduction().lookup(0, &count));
    EXPECT_DOUBLE_EQ(count, 1.0);
  });
}

TEST(EdgeCases, GrManyDevicesLittleWork) {
  const std::vector<std::uint32_t> data(5, 0);
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    EnvOptions options = cpu_options();
    options.use_gpus = 2;
    RuntimeEnv env(comm, options);
    auto* gr = env.get_GR();
    gr->set_emit_func(count_emit);
    gr->set_reduce_func(sum_reduce);
    gr->set_input(data.data(), sizeof(std::uint32_t), data.size());
    gr->configure_object(2, sizeof(double));
    ASSERT_TRUE(gr->start().is_ok());
    double count = 0.0;
    ASSERT_TRUE(gr->get_global_reduction().lookup(0, &count));
    EXPECT_DOUBLE_EQ(count, 5.0);
  });
}

// --- irregular reductions --------------------------------------------------------

TEST(EdgeCases, IrEmptyEdgeList) {
  minimpi::World world(3);
  std::vector<double> nodes(30, 0.0);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    auto* ir = env.get_IR();
    ir->set_edge_comp_func(degree_compute);
    ir->set_node_reduc_func(sum_reduce);
    ir->set_nodes(nodes.data(), sizeof(double), nodes.size());
    const Edge* none = reinterpret_cast<const Edge*>(&nodes);  // non-null
    ir->set_edges(none, 0, nullptr, 0);
    ir->configure_value(sizeof(double));
    ASSERT_TRUE(ir->start().is_ok());
    EXPECT_EQ(ir->get_local_reduction().size(), 0u);
    EXPECT_EQ(ir->remote_nodes(), 0u);
  });
}

TEST(EdgeCases, IrSingleEdgeAcrossPartitionBoundary) {
  minimpi::World world(2);
  std::vector<double> nodes(4, 0.0);
  const std::vector<Edge> edges{{0, 3}};  // rank 0 owns 0-1, rank 1 owns 2-3
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    auto* ir = env.get_IR();
    ir->set_edge_comp_func(degree_compute);
    ir->set_node_reduc_func(sum_reduce);
    ir->set_nodes(nodes.data(), sizeof(double), nodes.size());
    ir->set_edges(edges.data(), edges.size(), nullptr, 0);
    ir->configure_value(sizeof(double));
    ASSERT_TRUE(ir->start().is_ok());
    EXPECT_EQ(ir->stats().local_edges, 0u);
    EXPECT_EQ(ir->stats().cross_edges, 1u);
    EXPECT_EQ(ir->remote_nodes(), 1u);
    double out = 0.0;
    if (comm.rank() == 0) {
      ASSERT_TRUE(ir->get_local_reduction().lookup(0, &out));
      EXPECT_DOUBLE_EQ(out, 1.0);
    } else {
      ASSERT_TRUE(ir->get_local_reduction().lookup(1, &out));  // local id
      EXPECT_DOUBLE_EQ(out, 1.0);
    }
  });
}

TEST(EdgeCases, IrSelfContainedRankHasNoExchange) {
  // All edges inside rank 0's partition: rank 1 must still participate in
  // the (empty) protocol without deadlock.
  minimpi::World world(2);
  std::vector<double> nodes(10, 0.0);
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    auto* ir = env.get_IR();
    ir->set_edge_comp_func(degree_compute);
    ir->set_node_reduc_func(sum_reduce);
    ir->set_nodes(nodes.data(), sizeof(double), nodes.size());
    ir->set_edges(edges.data(), edges.size(), nullptr, 0);
    ir->configure_value(sizeof(double));
    ASSERT_TRUE(ir->start().is_ok());
    if (comm.rank() == 1) {
      EXPECT_EQ(ir->stats().local_edges + ir->stats().cross_edges, 0u);
      EXPECT_EQ(ir->get_local_reduction().size(), 0u);
    }
  });
}

TEST(EdgeCases, IrDuplicateEdgesAccumulate) {
  minimpi::World world(2);
  std::vector<double> nodes(8, 0.0);
  const std::vector<Edge> edges{{1, 5}, {1, 5}, {1, 5}};
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    auto* ir = env.get_IR();
    ir->set_edge_comp_func(degree_compute);
    ir->set_node_reduc_func(sum_reduce);
    ir->set_nodes(nodes.data(), sizeof(double), nodes.size());
    ir->set_edges(edges.data(), edges.size(), nullptr, 0);
    ir->configure_value(sizeof(double));
    ASSERT_TRUE(ir->start().is_ok());
    double out = 0.0;
    if (comm.rank() == 0) {
      ASSERT_TRUE(ir->get_local_reduction().lookup(1, &out));
      EXPECT_DOUBLE_EQ(out, 3.0);
    }
  });
}

// --- stencils --------------------------------------------------------------------

TEST(EdgeCases, StencilGridBarelyLargerThanHalo) {
  // 3x3 grid with halo 1: every interior cell is on the fixed border, so
  // the result must equal the input.
  std::vector<double> grid{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<double> out(9, 0.0);
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(copy_cell);
    st.set_grid(grid, {3, 3});
    ASSERT_TRUE(st.run(2).is_ok());
    st.write_back(out);
  });
  EXPECT_EQ(out, grid);
}

TEST(EdgeCases, StencilZeroIterations) {
  std::vector<double> grid(64, 7.0);
  std::vector<double> out(64, 0.0);
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    TypedStencil<double, 2> st(env);
    st.set_stencil(copy_cell);
    st.set_grid(grid, {8, 8});
    ASSERT_TRUE(st.run(0).is_ok());
    // write_back before any start() must die (nothing was set up)...
    // ...so run one iteration first for a defined state.
    ASSERT_TRUE(st.run(1).is_ok());
    st.write_back(out);
  });
  EXPECT_EQ(out, grid);
}

// --- minimpi ---------------------------------------------------------------------

TEST(EdgeCases, SingleRankCollectives) {
  minimpi::World world(1);
  world.run([](minimpi::Communicator& comm) {
    comm.barrier();
    std::vector<int> data{1, 2, 3};
    comm.bcast(std::as_writable_bytes(std::span(data)), 0);
    comm.allreduce<int>(data, [](int& a, int b) { a += b; });
    EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
    const auto all = comm.allgather_value<int>(9);
    EXPECT_EQ(all, std::vector<int>{9});
    const auto inbound =
        comm.alltoallv({std::vector<std::byte>{std::byte{5}}}, 7);
    ASSERT_EQ(inbound.size(), 1u);
    EXPECT_EQ(inbound[0][0], std::byte{5});
  });
}

TEST(EdgeCases, ZeroByteMessages) {
  minimpi::World world(2);
  world.run([](minimpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 11, {});
    } else {
      auto message = comm.recv_any(0, 11);
      EXPECT_TRUE(message.payload.empty());
    }
  });
}

}  // namespace
}  // namespace psf::pattern
