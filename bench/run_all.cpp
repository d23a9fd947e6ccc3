// PSF — aggregate benchmark driver: runs every evaluation application over
// a small node/device sweep and emits one machine-readable JSON report
// ("psf.bench" schema). The reported times are VIRTUAL seconds, which are
// bit-identical across hosts and thread counts, so scripts/compare_bench.py
// can hold results to a tight regression threshold.
//
// Usage: run_all [--smoke] [--out PATH] [--trace-dir DIR]
//                [--steady-metrics PATH] [--fault-plan SPEC]
//   --smoke      smaller sweep (CI smoke job): fewer node counts and configs
//   --out        write the JSON report to PATH (default: stdout only)
//   --fault-plan run every cell under the given fault plan
//                (docs/RESILIENCE.md grammar, e.g. "device:*.gpu1@iter=2");
//                each row then also reports the chunks/iterations recovered
//                (the fault.recoveries delta) so CI can assert faults fired
//   --trace-dir  additionally run each app once with tracing enabled and
//                write <DIR>/<app>.trace.json (Chrome trace + psfEdges) for
//                tools/psf-analyze; DIR must exist
//   --steady-metrics  after the sweep has warmed the buffer pool, run one
//                more warm pass over all five apps, reset the metric
//                values, run a measured steady pass, and write the
//                registry report to PATH. CI asserts support.pool.misses
//                and minimpi.payload_allocs are zero in that report — the
//                allocation-free steady-state contract.
//
// Each bench row also reports wall seconds for the measured run. Unlike
// vtime, wall is host- and load-dependent; scripts/compare_bench.py prints
// it for trend-watching and only enforces a threshold with --check-wall.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "support/buffer_pool.h"
#include "support/metrics.h"
#include "timemodel/trace.h"

namespace psf::bench {
namespace {

struct BenchResult {
  std::string name;    ///< "<app>/<config>/n<nodes>"
  double vtime = 0.0;  ///< measured virtual seconds (max over ranks)
  double speedup = 0.0;  ///< sequential paper-scale vtime / vtime
  double wall = 0.0;   ///< wall seconds of the run (host-dependent)
  std::uint64_t recovered = 0;  ///< fault.recoveries delta (--fault-plan)
};

/// Fault plan applied to every sweep cell (--fault-plan), empty = none.
std::string g_fault_plan;

/// Device mixes with JSON-friendly slugs.
struct SweepConfig {
  const char* slug;
  DeviceConfig devices;
};

constexpr SweepConfig kSweepConfigs[] = {
    {"cpu", {"CPU(12 cores)", true, 0}},
    {"cpu+1gpu", {"CPU+1GPU", true, 1}},
    {"cpu+2gpu", {"CPU+2GPU", true, 2}},
};

/// One sweep cell: every rank runs `run` under the sweep's options (plus
/// the --fault-plan and an optional trace); returns the max per-rank vtime.
template <typename Workload, typename RunFn>
double run_framework(const Workload& workload, int nodes,
                     const DeviceConfig& devices, RunFn&& run,
                     timemodel::TraceRecorder* trace = nullptr) {
  minimpi::World world = make_world(nodes, workload.scales);
  world.set_trace(trace);
  return run_cell(std::move(world), [&](minimpi::Communicator& comm) {
    auto options = make_options(workload.scales, devices);
    if (trace != nullptr) options.with_trace(trace);
    if (!g_fault_plan.empty()) options.with_fault_plan(g_fault_plan);
    return run(comm, options);
  });
}

template <typename Workload, typename RunFn>
void sweep(std::vector<BenchResult>& results, const char* app,
           const Workload& workload, const std::vector<int>& node_counts,
           bool smoke, const std::string& trace_dir, RunFn&& run,
           bool hetero_only = false) {
  const double seq = sequential_vtime(workload.scales);
  for (const auto& config : kSweepConfigs) {
    // Smoke keeps one heterogeneous mix per app; variant pairs whose
    // contract only holds with accelerators present (hetero_only) pin
    // themselves to that mix in the full sweep too.
    if ((smoke || hetero_only) && std::strcmp(config.slug, "cpu+2gpu") != 0)
      continue;
    for (int nodes : node_counts) {
      const std::uint64_t recoveries_before =
          psf::metrics::Registry::global().counter("fault.recoveries").value();
      const auto wall_begin = std::chrono::steady_clock::now();
      const double vtime =
          run_framework(workload, nodes, config.devices, run);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_begin)
              .count();
      BenchResult result;
      result.name = std::string(app) + "/" + config.slug + "/n" +
                    std::to_string(nodes);
      result.vtime = vtime;
      result.speedup = seq / vtime;
      result.wall = wall;
      result.recovered =
          psf::metrics::Registry::global().counter("fault.recoveries").value() -
          recoveries_before;
      results.push_back(result);
      if (g_fault_plan.empty()) {
        std::printf("  %-28s vtime %12.6f s  speedup %8.1fx  wall %9.4f s\n",
                    result.name.c_str(), result.vtime, result.speedup,
                    result.wall);
      } else {
        std::printf(
            "  %-28s vtime %12.6f s  speedup %8.1fx  wall %9.4f s"
            "  recovered %3llu\n",
            result.name.c_str(), result.vtime, result.speedup, result.wall,
            static_cast<unsigned long long>(result.recovered));
      }
    }
  }
  if (!trace_dir.empty()) {
    // One traced run per app on the largest sweep point of the
    // heterogeneous mix, for tools/psf-analyze.
    timemodel::TraceRecorder trace;
    run_framework(workload, node_counts.back(), kSweepConfigs[2].devices,
                  run, &trace);
    const std::string path =
        trace_dir + "/" + app + ".trace.json";
    if (trace.write_chrome_json(path)) {
      std::printf("  wrote trace %s (%zu spans)\n", path.c_str(),
                  trace.size());
    } else {
      std::fprintf(stderr, "run_all: cannot write trace %s\n", path.c_str());
    }
  }
}

std::string to_json(const std::vector<BenchResult>& results, bool smoke) {
  std::string out = "{\"schema\":\"psf.bench\",\"version\":1,\"smoke\":";
  out += smoke ? "true" : "false";
  out += ",\"benches\":[";
  char buffer[64];
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":\"" + results[i].name + "\",\"vtime\":";
    std::snprintf(buffer, sizeof(buffer), "%.17g", results[i].vtime);
    out += buffer;
    out += ",\"speedup\":";
    std::snprintf(buffer, sizeof(buffer), "%.17g", results[i].speedup);
    out += buffer;
    out += ",\"wall\":";
    std::snprintf(buffer, sizeof(buffer), "%.17g", results[i].wall);
    out += buffer;
    out += ",\"recovered\":";
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(results[i].recovered));
    out += buffer;
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace
}  // namespace psf::bench

int main(int argc, char** argv) {
  using namespace psf::bench;
  bool smoke = false;
  std::string out_path;
  std::string trace_dir;
  std::string steady_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--steady-metrics") == 0 && i + 1 < argc) {
      steady_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      g_fault_plan = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: run_all [--smoke] [--out PATH] "
                   "[--trace-dir DIR] [--steady-metrics PATH] "
                   "[--fault-plan SPEC]\n");
      return 2;
    }
  }

  const std::vector<int> node_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  std::vector<BenchResult> results;
  // One run per app for the steady-state passes: the heterogeneous mix at
  // the largest sweep size (the most message-heavy cell already warmed).
  std::vector<std::function<void()>> steady_runs;
  const int steady_nodes = node_counts.back();
  std::printf("PSF bench sweep (%s): virtual seconds, deterministic\n",
              smoke ? "smoke" : "full");

  {
    auto workload = std::make_shared<KmeansWorkload>();
    auto run = [workload](psf::minimpi::Communicator& comm,
                          const psf::pattern::EnvOptions& options) {
      return psf::apps::kmeans::run_framework(comm, options, workload->params,
                                              workload->points)
          .vtime;
    };
    sweep(results, "kmeans", *workload, node_counts, smoke, trace_dir, run);
    steady_runs.push_back([workload, run, steady_nodes] {
      run_framework(*workload, steady_nodes, kSweepConfigs[2].devices, run);
    });
    // Composition-layer variants: the monitored pipeline (cluster sums +
    // per-iteration inertia) with the inertia emit fused into the
    // assignment pass vs the unfused second pass. Results are bit-identical;
    // CI asserts fused vtime strictly lower (compare_bench --assert-faster).
    for (const bool fused : {true, false}) {
      auto monitored = [workload, fused](psf::minimpi::Communicator& comm,
                                         const psf::pattern::EnvOptions&
                                             options) {
        return psf::apps::kmeans::run_framework_monitored(
                   comm, options, workload->params, workload->points, fused)
            .vtime;
      };
      sweep(results, fused ? "kmeans_fused" : "kmeans_unfused", *workload,
            node_counts, smoke, /*trace_dir=*/"", monitored);
    }
  }
  {
    auto workload = std::make_shared<MoldynWorkload>();
    // run_framework mutates the molecules; each sweep cell needs a fresh
    // copy so results stay independent of sweep order.
    auto run = [workload](psf::minimpi::Communicator& comm,
                          const psf::pattern::EnvOptions& options) {
      auto molecules = workload->molecules;
      return psf::apps::moldyn::run_framework(comm, options, workload->params,
                                              molecules, workload->edges)
                 .steady_vtime *
             workload->params.iterations;
    };
    sweep(results, "moldyn", *workload, node_counts, smoke, trace_dir, run);
    steady_runs.push_back([workload, run, steady_nodes] {
      run_framework(*workload, steady_nodes, kSweepConfigs[2].devices, run);
    });
  }
  {
    auto workload = std::make_shared<MinimdWorkload>();
    auto run = [workload](psf::minimpi::Communicator& comm,
                          const psf::pattern::EnvOptions& options) {
      auto atoms = workload->fresh_atoms();
      return psf::apps::minimd::run_framework(comm, options, workload->params,
                                              atoms)
                 .steady_vtime *
             workload->params.iterations;
    };
    sweep(results, "minimd", *workload, node_counts, smoke, trace_dir, run);
    steady_runs.push_back([workload, run, steady_nodes] {
      run_framework(*workload, steady_nodes, kSweepConfigs[2].devices, run);
    });
  }
  {
    auto workload = std::make_shared<SobelWorkload>();
    auto run = [workload](psf::minimpi::Communicator& comm,
                          const psf::pattern::EnvOptions& options) {
      return psf::apps::sobel::run_framework(comm, options, workload->params,
                                             workload->image)
                 .steady_vtime *
             workload->params.iterations;
    };
    sweep(results, "sobel", *workload, node_counts, smoke, trace_dir, run);
    steady_runs.push_back([workload, run, steady_nodes] {
      run_framework(*workload, steady_nodes, kSweepConfigs[2].devices, run);
    });
  }
  {
    auto workload = std::make_shared<Heat3dWorkload>();
    auto run = [workload](psf::minimpi::Communicator& comm,
                          const psf::pattern::EnvOptions& options) {
      return psf::apps::heat3d::run_framework(comm, options, workload->params,
                                              workload->field)
                 .steady_vtime *
             workload->params.iterations;
    };
    sweep(results, "heat3d", *workload, node_counts, smoke, trace_dir, run);
    steady_runs.push_back([workload, run, steady_nodes] {
      run_framework(*workload, steady_nodes, kSweepConfigs[2].devices, run);
    });
    // Composition-layer variants: the two-stage monitored pipeline (sweep +
    // residual reduction through a PatternGraph handoff) with the residual
    // emit fused into the sweep's tile loop vs the unfused second grid
    // pass. Grids and residuals are bit-identical; CI asserts fused vtime
    // strictly lower (compare_bench --assert-faster).
    for (const bool fused : {true, false}) {
      auto monitored = [workload, fused](psf::minimpi::Communicator& comm,
                                         const psf::pattern::EnvOptions&
                                             options) {
        return psf::apps::heat3d::run_framework_monitored(
                   comm, options, workload->params, workload->field, fused)
            .vtime;
      };
      sweep(results, fused ? "heat3d_fused" : "heat3d_unfused", *workload,
            node_counts, smoke, /*trace_dir=*/"", monitored);
      if (fused) {
        steady_runs.push_back([workload, monitored, steady_nodes] {
          run_framework(*workload, steady_nodes, kSweepConfigs[2].devices,
                        monitored);
        });
      }
    }
    // Hot-path variants: halo-exchange overlap plus the double-buffered
    // device stream pipeline vs fully serial exchange. Fields are
    // bit-identical either way; CI pins heat3d_overlap strictly below
    // heat3d_nooverlap (compare_bench --assert-faster). The pair starts at
    // two nodes (a single rank has no neighbor exchange to overlap) and
    // stays on the heterogeneous mix, where the stream pipeline has copy
    // engines to ping-pong.
    std::vector<int> multi_nodes;
    for (int nodes : node_counts) {
      if (nodes >= 2) multi_nodes.push_back(nodes);
    }
    for (const bool overlap : {true, false}) {
      auto variant = [workload, overlap](
                         psf::minimpi::Communicator& comm,
                         const psf::pattern::EnvOptions& options) {
        auto opts = options;
        opts.overlap = overlap;
        opts.stream_pipeline = overlap;
        return psf::apps::heat3d::run_framework(comm, opts, workload->params,
                                                workload->field)
            .vtime;
      };
      sweep(results, overlap ? "heat3d_overlap" : "heat3d_nooverlap",
            *workload, multi_nodes, smoke, /*trace_dir=*/"", variant,
            /*hetero_only=*/true);
      if (overlap) {
        steady_runs.push_back([workload, variant, steady_nodes] {
          run_framework(*workload, std::max(steady_nodes, 2),
                        kSweepConfigs[2].devices, variant);
        });
      }
    }
  }
  {
    // Synthetic small-message storm: sub-threshold pooled sends from rank 0
    // to rank 1, coalesced (one frame deposit + one mpi_call per flush) vs
    // the default transport (one deposit + one mpi_call per message).
    // The row's vtime is the SENDER's injection time — sends plus the final
    // flush — because the end-to-end makespan is receiver-bound (every recv
    // pays the same mpi_call overhead either way). CI pins
    // msgstorm_coalesced strictly below msgstorm_uncoalesced.
    constexpr int kStormMsgs = 512;
    constexpr std::size_t kStormBytes = 256;
    auto storm_inject = [](bool coalesced) {
      psf::minimpi::World world(2);
      world.set_coalescing(coalesced);
      double inject = 0.0;
      world.run([&](psf::minimpi::Communicator& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < kStormMsgs; ++i) {
            auto payload = comm.acquire_buffer(kStormBytes);
            std::memset(payload.data(), i & 0xff, kStormBytes);
            comm.send_pooled(1, /*tag=*/7, std::move(payload));
          }
          comm.flush_coalesced();
          inject = comm.timeline().now();
        } else {
          for (int i = 0; i < kStormMsgs; ++i) {
            (void)comm.recv_any(0, /*tag=*/7);
          }
        }
        comm.barrier();
      });
      return inject;
    };
    double uncoalesced = 0.0;
    for (const bool coalesced : {false, true}) {
      const auto wall_begin = std::chrono::steady_clock::now();
      const double vtime = storm_inject(coalesced);
      BenchResult result;
      result.name = std::string(coalesced ? "msgstorm_coalesced"
                                          : "msgstorm_uncoalesced") +
                    "/net/n2";
      result.vtime = vtime;
      if (!coalesced) uncoalesced = vtime;
      result.speedup = uncoalesced / vtime;
      result.wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_begin)
                        .count();
      results.push_back(result);
      std::printf("  %-28s vtime %12.6f s  speedup %8.1fx  wall %9.4f s\n",
                  result.name.c_str(), result.vtime, result.speedup,
                  result.wall);
    }
    // Coalescing-heavy steady entry: the measured steady pass must stage
    // frames and unpack subs without a single fresh allocation
    // (minimpi.payload_allocs == 0) while minimpi.msgs_coalesced grows —
    // both asserted by CI on the steady report.
    steady_runs.push_back([storm_inject] {
      storm_inject(/*coalesced=*/true);
    });
  }

  if (!steady_path.empty()) {
    // The sweep warmed the pool; one more full pass covers any size class
    // the last sweep cells touched first, then the measured pass must hit
    // the pool every time (support.pool.misses == 0,
    // minimpi.payload_allocs == 0 — asserted by CI).
    std::printf("steady-state passes (warm + measured)...\n");
    for (const auto& run : steady_runs) run();
    // Headroom against scheduling variance: the measured pass may hold more
    // buffers of one class in flight than any warm pass happened to.
    psf::support::BufferPool::global().prewarm();
    psf::metrics::Registry::global().reset_values();
    for (const auto& run : steady_runs) run();
    if (!psf::metrics::Registry::global().write_json(steady_path)) {
      std::fprintf(stderr, "run_all: cannot write %s\n", steady_path.c_str());
      return 1;
    }
    std::printf("wrote steady-state metrics to %s\n", steady_path.c_str());
  }

  const std::string report = to_json(results, smoke);
  if (!psf::metrics::validate_json(report)) {
    std::fprintf(stderr, "run_all: generated report is not valid JSON\n");
    return 1;
  }
  if (!out_path.empty()) {
    std::ofstream file(out_path, std::ios::trunc);
    file << report << "\n";
    if (!file) {
      std::fprintf(stderr, "run_all: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %zu benches to %s\n", results.size(),
                out_path.c_str());
  } else {
    std::printf("%s\n", report.c_str());
  }
  return 0;
}
