// PSF — tests for the causal trace analysis layer: graph construction,
// critical-path extraction, overlap/imbalance reports, Chrome JSON
// round-trip, and the what-if projector. The acceptance bar mirrors
// docs/OBSERVABILITY.md: on heat3d the critical-path total must equal
// minimpi.makespan_vtime bit-exactly for any executor width, the
// graph-derived overlap efficiency must match the pattern.st gauge, and an
// all-1x what-if must reproduce the measured makespan exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "apps/heat3d.h"
#include "devsim/device.h"
#include "pattern/api.h"
#include "pattern/typed.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "timemodel/trace.h"

namespace psf {
namespace {

/// Run heat3d on a 2-rank world with a cpu+2gpu mix at the given executor
/// width, recording a trace. Returns the minimpi makespan gauge observed
/// for the run (the registry is reset first, so the merge-max gauge is
/// this run's value alone).
double run_traced_heat3d(int num_threads, timemodel::TraceRecorder& trace) {
  metrics::Registry::global().reset_values();
  apps::heat3d::Params params;
  params.nx = 16;
  params.ny = 12;
  params.nz = 20;
  params.iterations = 3;
  const auto field = apps::heat3d::generate_field(params);

  minimpi::World world(2);
  world.set_trace(&trace);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.app_profile = "heat3d";
    options.use_cpu = true;
    options.use_gpus = 2;
    options.num_threads = num_threads;
    options.trace = &trace;
    (void)apps::heat3d::run_framework(comm, options, params, field);
  });
  return metrics::Registry::global().gauges().at("minimpi.makespan_vtime");
}

TEST(Analysis, CriticalPathTotalEqualsMakespanGaugeAcrossWidths) {
  timemodel::TraceRecorder narrow_trace;
  const double narrow_gauge = run_traced_heat3d(1, narrow_trace);
  const auto narrow = analysis::TraceGraph::from_recorder(narrow_trace);
  const auto narrow_report = analysis::analyze(narrow);

  timemodel::TraceRecorder wide_trace;
  const double wide_gauge = run_traced_heat3d(7, wide_trace);
  const auto wide = analysis::TraceGraph::from_recorder(wide_trace);
  const auto wide_report = analysis::analyze(wide);

  // Bit-exact: the trace's max span end IS the world's makespan, and the
  // critical-path total is reported from it directly.
  EXPECT_EQ(narrow_report.critical_path.total, narrow_gauge);
  EXPECT_EQ(wide_report.critical_path.total, wide_gauge);

  // The executor width must not change the analysis at all: canonical
  // spans, totals, and attribution are value-derived.
  EXPECT_EQ(narrow_gauge, wide_gauge);
  ASSERT_EQ(narrow.spans().size(), wide.spans().size());
  for (std::size_t i = 0; i < narrow.spans().size(); ++i) {
    EXPECT_EQ(narrow.spans()[i].begin, wide.spans()[i].begin);
    EXPECT_EQ(narrow.spans()[i].end, wide.spans()[i].end);
    EXPECT_EQ(narrow.spans()[i].name, wide.spans()[i].name);
  }
  ASSERT_EQ(narrow_report.critical_path.segments.size(),
            wide_report.critical_path.segments.size());
  for (const auto& [category, time] : narrow_report.critical_path.by_category) {
    const auto it = wide_report.critical_path.by_category.find(category);
    ASSERT_NE(it, wide_report.critical_path.by_category.end()) << category;
    EXPECT_EQ(time, it->second) << category;
  }
}

TEST(Analysis, OverlapEfficiencyMatchesStencilGauge) {
  timemodel::TraceRecorder trace;
  (void)run_traced_heat3d(4, trace);
  const double gauge = metrics::Registry::global().gauges().at(
      "pattern.st.overlap_efficiency");
  const auto graph = analysis::TraceGraph::from_recorder(trace);
  const auto report = analysis::analyze(graph);
  ASSERT_FALSE(report.overlap_spans.empty());
  // The gauge holds the final iteration's value (set once per iteration,
  // last write wins; the 2-rank split is symmetric so every rank writes
  // the same number). The graph-derived counterpart is the efficiency of
  // the latest halo exchange span.
  const analysis::OverlapSpan* last = &report.overlap_spans.front();
  for (const auto& span : report.overlap_spans) {
    if (span.begin > last->begin) last = &span;
    EXPECT_GE(span.efficiency, 0.0);
    EXPECT_LE(span.efficiency, 1.0);
  }
  EXPECT_NEAR(last->efficiency, gauge, 1e-9);
  // The aggregate is a duration-weighted mean of per-span values, so it is
  // bracketed by them.
  EXPECT_GT(report.overlap_efficiency, 0.0);
  EXPECT_LE(report.overlap_efficiency, 1.0);
}

TEST(Analysis, WhatIfUnitRatesReproduceMakespanExactly) {
  timemodel::TraceRecorder trace;
  (void)run_traced_heat3d(2, trace);
  const auto graph = analysis::TraceGraph::from_recorder(trace);
  const double measured = graph.makespan();
  EXPECT_EQ(analysis::project_makespan(graph, {}), measured);
  EXPECT_EQ(analysis::project_makespan(
                graph, {{"compute", 1.0}, {"net", 1.0}, {"comm", 1.0}}),
            measured);
}

TEST(Analysis, WhatIfRatesMoveTheProjection) {
  timemodel::TraceRecorder trace;
  (void)run_traced_heat3d(2, trace);
  const auto graph = analysis::TraceGraph::from_recorder(trace);
  const double measured = graph.makespan();
  // A faster network must shorten a transit-bound run; a slower one must
  // lengthen it. Slower compute can never shorten the makespan.
  EXPECT_LT(analysis::project_makespan(graph, {{"net", 4.0}}), measured);
  EXPECT_GT(analysis::project_makespan(graph, {{"net", 0.5}}), measured);
  EXPECT_GE(analysis::project_makespan(graph, {{"compute", 0.5}}), measured);
  EXPECT_LE(analysis::project_makespan(graph, {{"compute", 2.0}}), measured);
}

TEST(Analysis, ChromeJsonRoundTripIsExact) {
  // Property: for randomized span sets (including zero-length spans,
  // awkward doubles, and names needing escapes), parsing to_chrome_json()
  // reconstructs the exact graph the recorder held.
  support::Xoshiro256 rng(0x5eedu);
  const char* names[] = {"kernel", "halo \"x\"\n", "recv", "a\\b", "t\tu"};
  const char* categories[] = {"compute", "comm", "copy"};
  for (int round = 0; round < 20; ++round) {
    timemodel::TraceRecorder trace;
    const int num_spans = 1 + static_cast<int>(rng.next_below(40));
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < num_spans; ++i) {
      const double begin = rng.next_in(0.0, 10.0);
      const double duration =
          rng.next_below(4) == 0 ? 0.0 : rng.next_in(0.0, 1.0);
      ids.push_back(trace.record(names[rng.next_below(5)],
                                 categories[rng.next_below(3)],
                                 static_cast<int>(rng.next_below(3)),
                                 static_cast<int>(rng.next_below(4)), begin,
                                 begin + duration));
    }
    trace.set_process_name(0, "rank0");
    trace.set_lane_name(0, 1, "gpu1");
    const int num_edges = static_cast<int>(rng.next_below(20));
    for (int i = 0; i < num_edges; ++i) {
      trace.record_edge(ids[rng.next_below(ids.size())],
                        ids[rng.next_below(ids.size())], "message");
    }

    const auto direct = analysis::TraceGraph::from_recorder(trace);
    const auto parsed =
        analysis::TraceGraph::from_chrome_json(trace.to_chrome_json());
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    const auto& graph = parsed.value();

    ASSERT_EQ(graph.spans().size(), direct.spans().size()) << "round " << round;
    for (std::size_t i = 0; i < graph.spans().size(); ++i) {
      const auto& a = direct.spans()[i];
      const auto& b = graph.spans()[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.category, b.category);
      EXPECT_EQ(a.rank, b.rank);
      EXPECT_EQ(a.lane, b.lane);
      EXPECT_EQ(a.begin, b.begin);  // bit-exact via %.17g args
      EXPECT_EQ(a.end, b.end);
    }
    ASSERT_EQ(graph.edges().size(), direct.edges().size()) << "round " << round;
    for (std::size_t i = 0; i < graph.edges().size(); ++i) {
      EXPECT_EQ(graph.edges()[i].from, direct.edges()[i].from);
      EXPECT_EQ(graph.edges()[i].to, direct.edges()[i].to);
      EXPECT_EQ(graph.edges()[i].kind, direct.edges()[i].kind);
    }
    EXPECT_EQ(graph.process_names(), direct.process_names());
    EXPECT_EQ(graph.lane_names(), direct.lane_names());
  }
}

TEST(Analysis, PingPongCriticalPathCrossesMessageEdges) {
  metrics::Registry::global().reset_values();
  timemodel::TraceRecorder trace;
  minimpi::World world(2);
  world.set_trace(&trace);
  world.run([&](minimpi::Communicator& comm) {
    std::vector<double> payload(1024, 1.0);
    for (int hop = 0; hop < 3; ++hop) {
      if (comm.rank() == hop % 2) {
        comm.send_span<double>(1 - comm.rank(), hop, payload);
      } else {
        comm.recv_span<double>(1 - comm.rank(), hop, payload);
      }
    }
  });
  const double gauge =
      metrics::Registry::global().gauges().at("minimpi.makespan_vtime");

  const auto graph = analysis::TraceGraph::from_recorder(trace);
  bool saw_message = false;
  for (const auto& edge : graph.edges()) {
    if (edge.kind == "message") saw_message = true;
  }
  EXPECT_TRUE(saw_message);

  const auto report = analysis::analyze(graph);
  EXPECT_EQ(report.critical_path.total, gauge);
  // The ping-pong serializes through the wire: the path must include spans
  // from both ranks.
  std::set<int> path_ranks;
  for (const auto& segment : report.critical_path.segments) {
    if (segment.category != "idle") path_ranks.insert(segment.rank);
  }
  EXPECT_EQ(path_ranks.size(), 2u);
}

TEST(Analysis, StreamRecordsCopyToKernelEdges) {
  timemodel::TraceRecorder trace;
  timemodel::Timeline host;
  devsim::DeviceDescriptor descriptor;
  descriptor.type = devsim::DeviceType::kGpu;
  descriptor.id = 1;
  devsim::Device device(descriptor, host);
  device.set_compute_rate(1e9);
  device.set_trace(&trace, /*rank=*/0, /*lane=*/1);

  auto buffer = device.alloc(1024);
  ASSERT_TRUE(buffer.is_ok());
  std::vector<std::byte> staging(1024);
  auto& stream = device.stream(0);
  stream.copy_h2d(buffer.value().bytes(), staging);
  stream.launch(1, 0, 1000.0, [](const devsim::BlockContext&) {});
  stream.launch(1, 0, 1000.0, [](const devsim::BlockContext&) {});
  stream.copy_d2h(staging, buffer.value().bytes());

  const auto graph = analysis::TraceGraph::from_recorder(trace);
  ASSERT_EQ(graph.spans().size(), 4u);
  std::size_t stream_edges = 0;
  for (const auto& edge : graph.edges()) {
    if (edge.kind != "stream") continue;
    ++stream_edges;
    EXPECT_EQ(graph.spans()[edge.from].category, "copy");
    EXPECT_EQ(graph.spans()[edge.to].category, "compute");
  }
  // The h2d copy feeds only the first kernel; pending copies are consumed
  // by a launch, so the second kernel and the d2h copy add no edges.
  EXPECT_EQ(stream_edges, 1u);
}

TEST(Analysis, PatternRunsProduceDependencyEdges) {
  // Stencil: halo exchange and inner tiles must causally precede boundary
  // tiles ("exchange" / "join" edges).
  timemodel::TraceRecorder trace;
  {
    std::vector<double> grid(32 * 32, 1.0);
    minimpi::World world(2);
    world.set_trace(&trace);
    world.run([&](minimpi::Communicator& comm) {
      pattern::EnvOptions options;
      options.use_cpu = true;
      options.trace = &trace;
      pattern::RuntimeEnv env(comm, options);
      pattern::TypedStencil<double, 2> st(env);
      st.set_stencil([](const pattern::GridView<double, 2>& in,
                        const pattern::MutableGridView<double, 2>& out,
                        const int* c, const void*) {
        out(c[0], c[1]) = in(c[0], c[1]);
      });
      st.set_grid(grid, {32, 32});
      ASSERT_TRUE(st.run(2).is_ok());
    });
  }
  const auto stencil = analysis::TraceGraph::from_recorder(trace);
  std::set<std::string> stencil_kinds;
  for (const auto& edge : stencil.edges()) stencil_kinds.insert(edge.kind);
  EXPECT_TRUE(stencil_kinds.count("exchange")) << "halo -> boundary missing";
  EXPECT_TRUE(stencil_kinds.count("join")) << "inner -> boundary missing";
  EXPECT_TRUE(stencil_kinds.count("message")) << "send -> recv missing";
}

TEST(Analysis, ReportJsonIsValidAndVersioned) {
  timemodel::TraceRecorder trace;
  (void)run_traced_heat3d(2, trace);
  const auto graph = analysis::TraceGraph::from_recorder(trace);
  const auto report = analysis::analyze(graph);
  const std::string json =
      analysis::report_to_json(graph, report, {{"gpu", 2.0}});
  EXPECT_TRUE(metrics::validate_json(json));
  EXPECT_NE(json.find("\"schema\":\"psf.analysis\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"what_if\""), std::string::npos);
}

}  // namespace
}  // namespace psf
