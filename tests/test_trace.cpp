// PSF — tests for the schedule trace recorder and its integration with the
// pattern runtimes.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "pattern/api.h"
#include "pattern/typed.h"
#include "timemodel/trace.h"

namespace psf {
namespace {

TEST(TraceRecorder, RecordsAndSnapshots) {
  timemodel::TraceRecorder trace;
  trace.record("kernel", "compute", 0, 1, 1.0, 2.5);
  trace.record("exchange", "comm", 0, 0, 2.0, 2.1);
  EXPECT_EQ(trace.size(), 2u);
  const auto spans = trace.spans();
  EXPECT_EQ(spans[0].name, "kernel");
  EXPECT_DOUBLE_EQ(spans[0].end, 2.5);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorder, ClampsInvertedSpans) {
  timemodel::TraceRecorder trace;
  trace.record("odd", "compute", 0, 0, 5.0, 3.0);
  // An inverted span is recorded as a point event at its begin time — the
  // begin is kept, the end is clamped up to it, never the other way round.
  EXPECT_DOUBLE_EQ(trace.spans()[0].begin, 5.0);
  EXPECT_DOUBLE_EQ(trace.spans()[0].end, 5.0);
}

TEST(TraceRecorder, AssignsStableNonZeroIds) {
  timemodel::TraceRecorder trace;
  const auto a = trace.record("a", "compute", 0, 0, 0.0, 1.0);
  const auto b = trace.record("b", "compute", 0, 0, 1.0, 2.0);
  EXPECT_NE(a, 0u);  // 0 is the "no span" sentinel for edges
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  const auto spans = trace.spans();
  EXPECT_EQ(spans[0].id, a);
  EXPECT_EQ(spans[1].id, b);
}

TEST(TraceRecorder, EdgesIgnoreNullIds) {
  timemodel::TraceRecorder trace;
  const auto a = trace.record("a", "compute", 0, 0, 0.0, 1.0);
  const auto b = trace.record("b", "compute", 0, 0, 1.0, 2.0);
  trace.record_edge(a, b, "stream");
  trace.record_edge(0, b, "stream");  // dropped: no producer
  trace.record_edge(a, 0, "stream");  // dropped: no consumer
  ASSERT_EQ(trace.edges().size(), 1u);
  EXPECT_EQ(trace.edges()[0].from, a);
  EXPECT_EQ(trace.edges()[0].to, b);
}

TEST(TraceRecorder, ChromeJsonCarriesMetadataAndEdges) {
  timemodel::TraceRecorder trace;
  trace.set_process_name(0, "rank0");
  trace.set_lane_name(0, 1, "gpu1");
  const auto a = trace.record("copy", "copy", 0, 1, 0.0, 1.0);
  const auto b = trace.record("kernel", "compute", 0, 1, 1.0, 2.0);
  trace.record_edge(a, b, "stream");
  const std::string json = trace.to_chrome_json();
  // Perfetto labels lanes from process_name / thread_name metadata events.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("rank0"), std::string::npos);
  EXPECT_NE(json.find("gpu1"), std::string::npos);
  // The causal edges ride in a top-level psfEdges array.
  EXPECT_NE(json.find("\"psfEdges\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"stream\""), std::string::npos);
}

TEST(TraceRecorder, ChromeJsonShape) {
  timemodel::TraceRecorder trace;
  trace.record("a \"quoted\"\nname", "compute", 2, 3, 0.001, 0.002);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);  // 1 ms -> 1000 us
}

TEST(TraceRecorder, WritesFile) {
  timemodel::TraceRecorder trace;
  trace.record("x", "compute", 0, 0, 0.0, 1.0);
  const std::string path = "/tmp/psf_trace_test.json";
  ASSERT_TRUE(trace.write_chrome_json(path));
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("traceEvents"), std::string::npos);
}

constexpr auto hist_emit = [](pattern::TypedObject<double>& obj,
                              const std::uint32_t& value, std::size_t,
                              const void*) { obj.insert(value % 8, 1.0); };
constexpr auto sum_reduce = [](double& dst, const double& src) { dst += src; };

TEST(TraceIntegration, GrRunProducesComputeAndCombineSpans) {
  std::vector<std::uint32_t> data(4000, 1);
  timemodel::TraceRecorder trace;
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.use_cpu = true;
    options.use_gpus = 1;
    options.trace = &trace;
    pattern::RuntimeEnv env(comm, options);
    pattern::TypedGReduce<std::uint32_t, double> gr(env);
    gr.set_emit(hist_emit);
    gr.set_reduce(sum_reduce);
    gr.set_input(data);
    gr.configure(8);
    ASSERT_TRUE(gr.run(1).is_ok());  // local pass + global combine
  });
  bool saw_compute = false;
  bool saw_combine = false;
  for (const auto& span : trace.spans()) {
    if (span.category == "compute") saw_compute = true;
    if (span.name == "gr global combine") saw_combine = true;
    EXPECT_GE(span.end, span.begin);
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_combine);
}

constexpr auto copy_cell = [](const pattern::GridView<double, 2>& in,
                              const pattern::MutableGridView<double, 2>& out,
                              const int* c, const void* /*parameter*/) {
  out(c[0], c[1]) = in(c[0], c[1]);
};

TEST(TraceIntegration, StencilRunProducesExchangeAndTileSpans) {
  std::vector<double> grid(32 * 32, 1.0);
  timemodel::TraceRecorder trace;
  minimpi::World world(4);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.use_cpu = true;
    options.trace = &trace;
    pattern::RuntimeEnv env(comm, options);
    pattern::TypedStencil<double, 2> st(env);
    st.set_stencil(copy_cell);
    st.set_grid(grid, {32, 32});
    ASSERT_TRUE(st.run(2).is_ok());
  });
  int exchanges = 0;
  int inner = 0;
  int boundary = 0;
  for (const auto& span : trace.spans()) {
    if (span.name == "halo exchange") ++exchanges;
    if (span.name == "inner tiles") ++inner;
    if (span.name == "boundary tiles") ++boundary;
  }
  EXPECT_EQ(exchanges, 4 * 2);  // per rank per iteration
  EXPECT_EQ(inner, 4 * 2);
  EXPECT_EQ(boundary, 4 * 2);
}

}  // namespace
}  // namespace psf
