// PSF — failure-injection and error-path tests: misconfiguration must be
// reported through Status or stopped by hard checks, never silently
// corrupt results.
#include <gtest/gtest.h>

#include <vector>

#include "minimpi/cart.h"
#include "pattern/api.h"
#include "pattern/typed.h"

namespace psf {
namespace {

using pattern::EnvOptions;
using pattern::RuntimeEnv;

EnvOptions cpu_options() {
  EnvOptions options;
  options.use_cpu = true;
  return options;
}

constexpr auto dummy_emit = [](pattern::TypedObject<double>&, const int&,
                               std::size_t, const void*) {};
constexpr auto dummy_reduce = [](double&, const double&) {};
constexpr auto dummy_edge = [](pattern::TypedObject<double>&,
                               const pattern::EdgeView&, const double*,
                               const void*) {};
constexpr auto dummy_stencil = [](const pattern::GridView<double, 2>&,
                                   const pattern::MutableGridView<double, 2>&,
                                   const int*, const void*) {};

// --- configuration status errors ---------------------------------------------

TEST(FailureInjection, GrMissingPiecesReportedIndividually) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    pattern::TypedGReduce<int, double> gr(env);
    EXPECT_EQ(gr.start().code(), support::ErrorCode::kFailedPrecondition);

    gr.set_emit(dummy_emit);
    gr.set_reduce(dummy_reduce);
    EXPECT_EQ(gr.start().code(), support::ErrorCode::kFailedPrecondition);

    const std::vector<int> data(10, 0);
    gr.set_input(data);
    EXPECT_EQ(gr.start().code(),
              support::ErrorCode::kFailedPrecondition);  // no object yet

    gr.configure(8);
    EXPECT_TRUE(gr.start().is_ok());
  });
}

TEST(FailureInjection, IrMissingPiecesReported) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    pattern::TypedIReduce<double, double> ir(env);
    EXPECT_EQ(ir.start().code(), support::ErrorCode::kFailedPrecondition);
    ir.set_edge_compute(dummy_edge);
    ir.set_node_reduce(dummy_reduce);
    EXPECT_EQ(ir.start().code(), support::ErrorCode::kFailedPrecondition);
    // The typed set_nodes also sizes the value; the runtime's own setters
    // leave it unset so each missing piece is reported on its own.
    auto& raw = ir.raw();
    std::vector<double> nodes(4, 0.0);
    raw.set_nodes(nodes.data(), sizeof(double), nodes.size());
    EXPECT_EQ(ir.start().code(), support::ErrorCode::kFailedPrecondition);
    const std::vector<pattern::Edge> edges{{0, 1}};
    ir.set_edges(edges);
    EXPECT_EQ(ir.start().code(),
              support::ErrorCode::kFailedPrecondition);  // no value size
    raw.configure_value(sizeof(double));
    EXPECT_TRUE(ir.start().is_ok());
  });
}

TEST(FailureInjection, StencilRejectsFourDimensions) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    pattern::TypedStencil<double, 2> typed(env);
    typed.set_stencil(dummy_stencil);
    // The typed set_grid checks its extents; the runtime's own validation
    // is what is under test here.
    auto& st = typed.raw();
    const std::vector<double> grid(16, 0.0);
    st.set_grid(grid.data(), sizeof(double), {2, 2, 2, 2});
    EXPECT_EQ(st.start().code(), support::ErrorCode::kInvalidArgument);
  });
}

TEST(FailureInjection, StencilTopologyMustMatchWorld) {
  minimpi::World world(3);
  const std::vector<double> grid(64, 0.0);
  EXPECT_DEATH(world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    pattern::TypedStencil<double, 2> st(env);
    st.set_stencil(dummy_stencil);
    st.set_grid(grid, {8, 8});
    st.set_topology({2, 2});  // 4 != 3 ranks
    (void)st.run(1);
  }),
               "dims product");
}

// --- hard checks on corrupt inputs ---------------------------------------------

TEST(FailureInjection, IrEdgeOutOfRangeDies) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_options());
    pattern::TypedIReduce<double, double> ir(env);
    ir.set_edge_compute(dummy_edge);
    ir.set_node_reduce(dummy_reduce);
    std::vector<double> nodes(4, 0.0);
    ir.set_nodes(nodes);
    const std::vector<pattern::Edge> edges{{0, 99}};  // node 99 of 4
    ir.set_edges(edges);
    EXPECT_DEATH((void)ir.start(), "outside the graph");
  });
}

TEST(FailureInjection, RecvBufferTooSmallDies) {
  minimpi::World world(2);
  EXPECT_DEATH(world.run([](minimpi::Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> data(8, 1);
      comm.send_span<int>(1, 1, data);
    } else {
      std::vector<int> tiny(2);
      comm.recv_span<int>(0, 1, tiny);
    }
  }),
               "buffer too small");
}

TEST(FailureInjection, CartDimsMismatchDies) {
  minimpi::World world(4);
  EXPECT_DEATH(world.run([](minimpi::Communicator& comm) {
    minimpi::CartComm cart(comm, {3, 2}, {false, false});
  }),
               "dims product");
}

TEST(FailureInjection, ReductionObjectOverflowDies) {
  pattern::ReductionObject object(
      pattern::ObjectLayout::kHash, 2, sizeof(double),
      +[](void* d, const void* s) {
        *static_cast<double*>(d) += *static_cast<const double*>(s);
      });
  const double value = 1.0;
  object.insert(10, &value);
  object.insert(20, &value);
  EXPECT_DEATH(object.insert(30, &value), "overflow");
}

TEST(FailureInjection, DenseKeyOutsideWindowDies) {
  pattern::ReductionObject object(
      pattern::ObjectLayout::kDense, 4, sizeof(double),
      +[](void*, const void*) {});
  object.set_key_offset(10);
  const double value = 1.0;
  EXPECT_DEATH(object.insert(3, &value), "outside");
}

TEST(FailureInjection, SerializedBlobTruncationDies) {
  pattern::ReductionObject object(
      pattern::ObjectLayout::kHash, 8, sizeof(double),
      +[](void* d, const void* s) {
        *static_cast<double*>(d) += *static_cast<const double*>(s);
      });
  const double value = 2.0;
  object.insert(1, &value);
  auto blob = object.serialize();
  blob.pop_back();  // corrupt
  pattern::ReductionObject copy(
      pattern::ObjectLayout::kHash, 8, sizeof(double),
      +[](void* d, const void* s) {
        *static_cast<double*>(d) += *static_cast<const double*>(s);
      });
  EXPECT_DEATH(copy.merge_serialized(blob), "wrong length");
}

// --- resource exhaustion ----------------------------------------------------------

TEST(FailureInjection, DeviceMemoryExhaustionIsStatusNotCrash) {
  timemodel::Timeline host;
  devsim::DeviceDescriptor tiny;
  tiny.type = devsim::DeviceType::kGpu;
  tiny.memory_bytes = 1024;
  tiny.compute_units = 1;
  devsim::Device device(tiny, host);
  auto ok = device.alloc(512);
  ASSERT_TRUE(ok.is_ok());
  auto fail = device.alloc(1024);
  ASSERT_FALSE(fail.is_ok());
  EXPECT_EQ(fail.status().code(), support::ErrorCode::kResourceExhausted);
  // Message names the device and the shortfall.
  EXPECT_NE(fail.status().message().find("gpu"), std::string::npos);
}

TEST(FailureInjection, WorldDetectsLeakedMessages) {
  // A rank that sends a message nobody receives must be reported.
  minimpi::World world(2);
  EXPECT_DEATH(world.run([](minimpi::Communicator& comm) {
    if (comm.rank() == 0) comm.send_value<int>(1, 5, 1);
    // rank 1 never receives
  }),
               "unconsumed");
}

TEST(FailureInjection, WaitOnEmptyRequestDies) {
  minimpi::World world(1);
  EXPECT_DEATH(world.run([](minimpi::Communicator& comm) {
    minimpi::Request request;
    comm.wait(request);
  }),
               "empty Request");
}

}  // namespace
}  // namespace psf
