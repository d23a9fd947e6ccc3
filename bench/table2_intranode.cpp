// PSF — Table II reproduction: perfect vs actual intra-node speedups of
// CPU+1GPU and CPU+2GPU over CPU-only, for all five applications.
//
// "Perfect" assumes zero scheduling/synchronization/communication overhead:
// 1 + k * r where r is the calibrated GPU / 12-core-CPU ratio. "Actual" is
// measured from the simulated schedule (dynamic chunking or adaptive
// partitioning, transfers, control-thread core loss).
#include <vector>

#include "bench_common.h"

namespace psf::bench {
namespace {

template <typename RunFn>
double measure(const AppWorkload& scales, bool use_cpu, int use_gpus,
               RunFn&& run) {
  const DeviceConfig config{"", use_cpu, use_gpus};
  return run_cell(make_world(1, scales), [&](minimpi::Communicator& comm) {
    return run(comm, make_options(scales, config));
  });
}

struct Row {
  const char* app;
  double perfect_1gpu;
  double actual_1gpu;
  double perfect_2gpu;
  double actual_2gpu;
  double paper_actual_1gpu;
  double paper_actual_2gpu;
};

void print_table(const std::vector<Row>& rows) {
  print_header(
      "Table II — intra-node speedup over CPU-only: perfect vs actual");
  print_row({"app", "perf+1GPU", "act+1GPU", "paper", "perf+2GPU",
             "act+2GPU", "paper"});
  double efficiency_1 = 0.0;
  double efficiency_2 = 0.0;
  for (const auto& row : rows) {
    print_row({row.app, fmt(row.perfect_1gpu, 2), fmt(row.actual_1gpu, 2),
               fmt(row.paper_actual_1gpu, 2), fmt(row.perfect_2gpu, 2),
               fmt(row.actual_2gpu, 2), fmt(row.paper_actual_2gpu, 2)});
    efficiency_1 += row.actual_1gpu / row.perfect_1gpu;
    efficiency_2 += row.actual_2gpu / row.perfect_2gpu;
  }
  std::printf("\naverage actual/perfect: CPU+1GPU %.0f%% (paper 89%%), "
              "CPU+2GPU %.0f%% (paper 88%%)\n",
              100.0 * efficiency_1 / rows.size(),
              100.0 * efficiency_2 / rows.size());
}

}  // namespace
}  // namespace psf::bench

int main() {
  using namespace psf::bench;
  std::vector<Row> rows;

  {
    KmeansWorkload workload;
    auto run = [&](psf::minimpi::Communicator& comm,
                   const psf::pattern::EnvOptions& options) {
      return psf::apps::kmeans::run_framework(comm, options, workload.params,
                                              workload.points)
          .vtime;
    };
    const double r = psf::timemodel::app_rates("kmeans").gpu_vs_cpu12;
    const double cpu = measure(workload.scales, true, 0, run);
    rows.push_back({"Kmeans", 1 + r,
                    cpu / measure(workload.scales, true, 1, run), 1 + 2 * r,
                    cpu / measure(workload.scales, true, 2, run), 3.23,
                    5.16});
  }
  {
    MoldynWorkload workload;
    auto run = [&](psf::minimpi::Communicator& comm,
                   const psf::pattern::EnvOptions& options) {
      auto molecules = workload.molecules;
      return psf::apps::moldyn::run_framework(comm, options, workload.params,
                                              molecules, workload.edges)
                 .steady_vtime *
             workload.params.iterations;
    };
    const double r = psf::timemodel::app_rates("moldyn").gpu_vs_cpu12;
    const double cpu = measure(workload.scales, true, 0, run);
    rows.push_back({"Moldyn", 1 + r,
                    cpu / measure(workload.scales, true, 1, run), 1 + 2 * r,
                    cpu / measure(workload.scales, true, 2, run), 2.31,
                    3.79});
  }
  {
    MinimdWorkload workload;
    auto run = [&](psf::minimpi::Communicator& comm,
                   const psf::pattern::EnvOptions& options) {
      auto atoms = workload.fresh_atoms();
      return psf::apps::minimd::run_framework(comm, options, workload.params,
                                              atoms)
                 .steady_vtime *
             workload.params.iterations;
    };
    const double r = psf::timemodel::app_rates("minimd").gpu_vs_cpu12;
    const double cpu = measure(workload.scales, true, 0, run);
    rows.push_back({"MiniMD", 1 + r,
                    cpu / measure(workload.scales, true, 1, run), 1 + 2 * r,
                    cpu / measure(workload.scales, true, 2, run), 2.15,
                    3.89});
  }
  {
    SobelWorkload workload;
    auto run = [&](psf::minimpi::Communicator& comm,
                   const psf::pattern::EnvOptions& options) {
      return psf::apps::sobel::run_framework(comm, options, workload.params,
                                             workload.image)
                 .steady_vtime *
             workload.params.iterations;
    };
    const double r = psf::timemodel::app_rates("sobel").gpu_vs_cpu12;
    const double cpu = measure(workload.scales, true, 0, run);
    rows.push_back({"Sobel", 1 + r,
                    cpu / measure(workload.scales, true, 1, run), 1 + 2 * r,
                    cpu / measure(workload.scales, true, 2, run), 2.94,
                    4.68});
  }
  {
    Heat3dWorkload workload;
    auto run = [&](psf::minimpi::Communicator& comm,
                   const psf::pattern::EnvOptions& options) {
      return psf::apps::heat3d::run_framework(comm, options, workload.params,
                                              workload.field)
                 .steady_vtime *
             workload.params.iterations;
    };
    const double r = psf::timemodel::app_rates("heat3d").gpu_vs_cpu12;
    const double cpu = measure(workload.scales, true, 0, run);
    rows.push_back({"Heat3D", 1 + r,
                    cpu / measure(workload.scales, true, 1, run), 1 + 2 * r,
                    cpu / measure(workload.scales, true, 2, run), 3.2, 5.5});
  }

  print_table(rows);
  std::printf("\ntable2_intranode done\n");
  return 0;
}
