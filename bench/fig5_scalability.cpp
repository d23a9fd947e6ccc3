// PSF — Figure 5 reproduction: intra-node and inter-node scalability of the
// five evaluation applications, plus the comparison against hand-written
// MPI implementations (CPU-only, one process per core).
//
// For every application the harness sweeps nodes in {1..32} and device
// mixes {12-core CPU, 1 GPU, CPU+1GPU, CPU+2GPU}, reporting the speedup
// over a single CPU core at paper workload scale.
#include <vector>

#include "baselines/mpi_heat3d.h"
#include "baselines/mpi_kmeans.h"
#include "baselines/mpi_minimd.h"
#include "baselines/mpi_sobel.h"
#include "bench_common.h"

namespace psf::bench {
namespace {

constexpr int kCoresPerNode = 12;

void print_app_table(const std::string& app_title, double seq_vtime,
                     const std::vector<std::vector<double>>& speedups,
                     const std::vector<double>& mpi_speedups) {
  print_header("Figure 5 — " + app_title +
               " (speedup over 1 CPU core, paper-scale workload)");
  std::vector<std::string> header{"nodes"};
  for (const auto& config : kDeviceConfigs) header.emplace_back(config.name);
  if (!mpi_speedups.empty()) header.emplace_back("MPI(1/core)");
  print_row(header);
  for (std::size_t n = 0; n < std::size(kNodeCounts); ++n) {
    std::vector<std::string> row{std::to_string(kNodeCounts[n])};
    for (std::size_t c = 0; c < std::size(kDeviceConfigs); ++c) {
      row.push_back(fmt(speedups[c][n]));
    }
    if (!mpi_speedups.empty()) row.push_back(fmt(mpi_speedups[n]));
    print_row(row);
  }
  std::printf("(sequential paper-scale reference: %.1f virtual seconds)\n",
              seq_vtime);
}

}  // namespace
}  // namespace psf::bench

int main() {
  using namespace psf::bench;
  std::printf("PSF reproduction bench: Figure 5 (scalability), paper\n"
              "reference: speedups 562-1760 at 32 nodes CPU+2GPU;\n"
              "12->384-core CPU-only speedup between 20x and 26x.\n");

  // --- Kmeans ---------------------------------------------------------------
  {
    KmeansWorkload workload;
    const double seq = sequential_vtime(workload.scales);
    std::vector<std::vector<double>> speedups(std::size(kDeviceConfigs));
    for (std::size_t c = 0; c < std::size(kDeviceConfigs); ++c) {
      for (int nodes : kNodeCounts) {
        const double t = run_cell(
            make_world(nodes, workload.scales),
            [&](psf::minimpi::Communicator& comm) {
              const auto options =
                  make_options(workload.scales, kDeviceConfigs[c]);
              return psf::apps::kmeans::run_framework(
                         comm, options, workload.params, workload.points)
                  .vtime;
            });
        speedups[c].push_back(seq / t);
      }
    }
    std::vector<double> mpi;
    for (int nodes : kNodeCounts) {
      const double t = run_cell(
          make_world(nodes * kCoresPerNode, workload.scales),
          [&](psf::minimpi::Communicator& comm) {
            return psf::baselines::mpi_kmeans::run(
                       comm, workload.params, workload.points,
                       workload.scales.workload_scale)
                .vtime;
          });
      mpi.push_back(seq / t);
    }
    print_app_table("Kmeans (generalized reduction)", seq, speedups, mpi);
  }

  // --- Moldyn ---------------------------------------------------------------
  {
    MoldynWorkload workload;
    const double seq = sequential_vtime(workload.scales);
    std::vector<std::vector<double>> speedups(std::size(kDeviceConfigs));
    for (std::size_t c = 0; c < std::size(kDeviceConfigs); ++c) {
      for (int nodes : kNodeCounts) {
        auto molecules = workload.molecules;  // fresh copy per run
        const double t = run_cell(
            make_world(nodes, workload.scales),
            [&](psf::minimpi::Communicator& comm) {
              const auto options =
                  make_options(workload.scales, kDeviceConfigs[c]);
              // Steady-state per-iteration time x the run length: the
              // profiling iteration amortizes over the paper's 1000 steps.
              return psf::apps::moldyn::run_framework(comm, options,
                                                      workload.params,
                                                      molecules,
                                                      workload.edges)
                         .steady_vtime *
                     workload.params.iterations;
            });
        speedups[c].push_back(seq / t);
      }
    }
    print_app_table("Moldyn (irregular + generalized reductions)", seq,
                    speedups, {});
  }

  // --- MiniMD ---------------------------------------------------------------
  {
    MinimdWorkload workload;
    const double seq = sequential_vtime(workload.scales);
    std::vector<std::vector<double>> speedups(std::size(kDeviceConfigs));
    for (std::size_t c = 0; c < std::size(kDeviceConfigs); ++c) {
      for (int nodes : kNodeCounts) {
        auto atoms = workload.fresh_atoms();
        const double t = run_cell(
            make_world(nodes, workload.scales),
            [&](psf::minimpi::Communicator& comm) {
              const auto options =
                  make_options(workload.scales, kDeviceConfigs[c]);
              return psf::apps::minimd::run_framework(comm, options,
                                                      workload.params, atoms)
                         .steady_vtime *
                     workload.params.iterations;
            });
        speedups[c].push_back(seq / t);
      }
    }
    std::vector<double> mpi;
    for (int nodes : kNodeCounts) {
      auto atoms = workload.fresh_atoms();
      // Mantevo MiniMD is MPI+OpenMP: one rank per node, 12 threads. Its
      // position sync ships node-count-proportional messages.
      const double t = run_cell(
          make_world(nodes, workload.scales, workload.scales.node_scale),
          [&](psf::minimpi::Communicator& comm) {
            return psf::baselines::mpi_minimd::run(
                       comm, workload.params, atoms,
                       workload.scales.workload_scale)
                .vtime;
          });
      mpi.push_back(seq / t);
    }
    print_app_table("MiniMD (irregular + generalized reductions)", seq,
                    speedups, mpi);
  }

  // --- Sobel ----------------------------------------------------------------
  {
    SobelWorkload workload;
    const double seq = sequential_vtime(workload.scales);
    std::vector<std::vector<double>> speedups(std::size(kDeviceConfigs));
    for (std::size_t c = 0; c < std::size(kDeviceConfigs); ++c) {
      for (int nodes : kNodeCounts) {
        const double t = run_cell(
            make_world(nodes, workload.scales),
            [&](psf::minimpi::Communicator& comm) {
              const auto options =
                  make_options(workload.scales, kDeviceConfigs[c]);
              return psf::apps::sobel::run_framework(comm, options,
                                                     workload.params,
                                                     workload.image)
                         .steady_vtime *
                     workload.params.iterations;
            });
        speedups[c].push_back(seq / t);
      }
    }
    std::vector<double> mpi;
    for (int nodes : kNodeCounts) {
      const double t = run_cell(
          make_world(nodes * kCoresPerNode, workload.scales),
          [&](psf::minimpi::Communicator& comm) {
            return psf::baselines::mpi_sobel::run(
                       comm, workload.params, workload.image,
                       workload.scales.workload_scale)
                .vtime;
          });
      mpi.push_back(seq / t);
    }
    print_app_table("Sobel (9-point stencil)", seq, speedups, mpi);
  }

  // --- Heat3D ---------------------------------------------------------------
  {
    Heat3dWorkload workload;
    const double seq = sequential_vtime(workload.scales);
    std::vector<std::vector<double>> speedups(std::size(kDeviceConfigs));
    for (std::size_t c = 0; c < std::size(kDeviceConfigs); ++c) {
      for (int nodes : kNodeCounts) {
        const double t = run_cell(
            make_world(nodes, workload.scales),
            [&](psf::minimpi::Communicator& comm) {
              const auto options =
                  make_options(workload.scales, kDeviceConfigs[c]);
              return psf::apps::heat3d::run_framework(comm, options,
                                                      workload.params,
                                                      workload.field)
                         .steady_vtime *
                     workload.params.iterations;
            });
        speedups[c].push_back(seq / t);
      }
    }
    std::vector<double> mpi;
    for (int nodes : kNodeCounts) {
      const double t = run_cell(
          make_world(nodes * kCoresPerNode, workload.scales),
          [&](psf::minimpi::Communicator& comm) {
            return psf::baselines::mpi_heat3d::run(
                       comm, workload.params, workload.field,
                       workload.scales.workload_scale)
                .vtime;
          });
      mpi.push_back(seq / t);
    }
    print_app_table("Heat3D (7-point stencil)", seq, speedups, mpi);
  }

  std::printf("\nfig5_scalability done\n");
  return 0;
}
