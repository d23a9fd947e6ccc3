// PSF — shared infrastructure for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper. The
// functional workloads are scaled-down versions of the paper's datasets;
// the virtual-time model prices them at paper scale through workload_scale
// (volume quantities) and comm_scale (surface quantities). See DESIGN.md §2.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/heat3d.h"
#include "apps/kmeans.h"
#include "apps/minimd.h"
#include "apps/moldyn.h"
#include "apps/sobel.h"
#include "pattern/runtime_env.h"

namespace psf::bench {

/// Device mixes evaluated in Figure 5 / Table II.
struct DeviceConfig {
  const char* name;
  bool use_cpu;
  int use_gpus;
};

inline constexpr DeviceConfig kDeviceConfigs[] = {
    {"CPU(12 cores)", true, 0},
    {"1 GPU", false, 1},
    {"CPU+1GPU", true, 1},
    {"CPU+2GPU", true, 2},
};

/// Node counts swept in the scalability figures.
inline constexpr int kNodeCounts[] = {1, 2, 4, 8, 16, 32};

/// One evaluation application: functional parameters plus the scale factors
/// that price it at the paper's dataset size.
struct AppWorkload {
  std::string name;          ///< calibration profile key
  double workload_scale;     ///< paper units per functional unit (volume)
  double comm_scale;         ///< paper bytes per functional byte (surface)
  double node_scale = 0.0;   ///< paper nodes per functional node (0 = volume)
  double seq_units;          ///< functional work units x iterations
  double seq_extra_vtime = 0.0;  ///< e.g. neighbor-list rebuild cost
};

/// Virtual seconds a single CPU core needs for the paper-scale workload —
/// the Figure 5 speedup baseline.
inline double sequential_vtime(const AppWorkload& workload) {
  const auto rates = timemodel::app_rates(workload.name);
  return workload.seq_units * workload.workload_scale /
             rates.cpu_core_units_per_s +
         workload.seq_extra_vtime;
}

inline pattern::EnvOptions make_options(const AppWorkload& workload,
                                        const DeviceConfig& devices,
                                        bool overlap = true,
                                        bool tiling = true) {
  pattern::EnvOptions options;
  options.app_profile = workload.name;
  options.use_cpu = devices.use_cpu;
  options.use_gpus = devices.use_gpus;
  options.overlap = overlap;
  options.tiling = tiling;
  options.workload_scale = workload.workload_scale;
  options.comm_scale = workload.comm_scale;
  options.node_scale = workload.node_scale;
  return options;
}

/// `byte_scale_override` prices this World's messages; 0 uses the
/// workload's comm (surface) scale. Pass workload_scale for baselines whose
/// messages carry volume-proportional data (e.g. MiniMD's position sync).
inline minimpi::World make_world(int ranks, const AppWorkload& workload,
                                 double byte_scale_override = 0.0) {
  minimpi::World world(ranks, timemodel::LinkModel::infiniband(),
                       timemodel::testbed_preset().overheads);
  world.set_byte_scale(byte_scale_override > 0.0 ? byte_scale_override
                                                 : workload.comm_scale);
  return world;
}

/// The bench cell runner: run `rank_main(comm)` on every rank of `world`
/// and return the maximum over ranks of the vtime each rank reports (each
/// rank measures its own region, e.g. excluding result assembly, as the
/// paper excludes write-back).
template <typename RankFn>
double run_cell(minimpi::World world, RankFn&& rank_main) {
  std::vector<double> vtimes(static_cast<std::size_t>(world.size()), 0.0);
  world.run([&](minimpi::Communicator& comm) {
    vtimes[static_cast<std::size_t>(comm.rank())] = rank_main(comm);
  });
  return *std::max_element(vtimes.begin(), vtimes.end());
}

// --- the five evaluation workloads (paper Section IV-A) ----------------------

/// Kmeans: paper 200M 3-D points, 40 centers, 1 iteration.
struct KmeansWorkload {
  apps::kmeans::Params params;
  AppWorkload scales;
  std::vector<float> points;

  KmeansWorkload() {
    params.num_points = 100000;
    params.num_clusters = 40;
    params.iterations = 1;
    scales.name = "kmeans";
    scales.workload_scale = 2.0e8 / static_cast<double>(params.num_points);
    // The only network traffic is the combined reduction object, whose
    // size depends on k, not on the input size: no message scaling.
    scales.comm_scale = 1.0;
    scales.seq_units =
        static_cast<double>(params.num_points) * params.iterations;
    points = apps::kmeans::generate_points(params);
  }
};

/// Moldyn: paper 1M nodes / 130M edges, 1000 iterations.
struct MoldynWorkload {
  apps::moldyn::Params params;
  AppWorkload scales;
  std::vector<apps::moldyn::Molecule> molecules;
  std::vector<pattern::Edge> edges;

  MoldynWorkload() {
    // Elongated box: at 32 ranks a slab is still several interaction radii
    // thick, keeping mesh-like cross-edge fractions (see DESIGN.md).
    params.num_nodes = 8192;
    params.num_edges = 65536;
    params.aspect = 8.0;
    params.iterations = 3;
    molecules = apps::moldyn::generate_molecules(params);
    edges = apps::moldyn::generate_edges(params);
    scales.name = "moldyn";
    scales.workload_scale = 1.3e8 / static_cast<double>(edges.size());
    // Elongation preserves the cross-edge FRACTION, so exchanged surfaces
    // scale like the edge volume; node data scales by the node count ratio.
    scales.comm_scale = scales.workload_scale;
    scales.node_scale = 1.0e6 / static_cast<double>(params.num_nodes);
    scales.seq_units = static_cast<double>(edges.size()) * params.iterations;
  }
};

/// MiniMD: paper 500K atoms, 1000 iterations.
struct MinimdWorkload {
  apps::minimd::Params params;
  AppWorkload scales;
  std::size_t edges_per_step = 0;

  MinimdWorkload() {
    params.num_atoms = 4096;
    params.side_xy = 4;  // elongated box, see MoldynWorkload
    params.iterations = 6;
    params.rebuild_every = 5;  // one rebuild inside the steady window
    const auto atoms = apps::minimd::generate_atoms(params);
    edges_per_step = apps::minimd::build_neighbor_list(params, atoms).size();
    scales.name = "minimd";
    // Work units are edges: the functional degree (~23) is below the real
    // LJ neighbor count (~37 at 2.8 sigma), so scale by total interactions.
    const double paper_edges = 5.0e5 * 37.0 / 2.0;
    scales.workload_scale =
        paper_edges / static_cast<double>(edges_per_step);
    scales.comm_scale = scales.workload_scale;
    scales.node_scale = 5.0e5 / static_cast<double>(params.num_atoms);
    scales.seq_units =
        static_cast<double>(edges_per_step) * params.iterations;
    // The single-core run also rebuilds the neighbor list on schedule.
    const int rebuilds =
        params.rebuild_every > 0
            ? (params.iterations - 1) / params.rebuild_every
            : 0;
    scales.seq_extra_vtime = static_cast<double>(rebuilds) *
                             static_cast<double>(edges_per_step) *
                             scales.workload_scale / 1.0e8;
  }

  [[nodiscard]] std::vector<apps::minimd::Atom> fresh_atoms() const {
    return apps::minimd::generate_atoms(params);
  }
};

/// Sobel: paper 32768 x 32768 single-precision image, 15 iterations.
struct SobelWorkload {
  apps::sobel::Params params;
  AppWorkload scales;
  std::vector<float> image;

  SobelWorkload() {
    params.height = params.width = 1024;
    params.iterations = 3;
    const double k = 32768.0 / static_cast<double>(params.width);
    scales.name = "sobel";
    scales.workload_scale = k * k;  // 2-D volume
    scales.comm_scale = k;          // 1-D halo edges
    scales.seq_units = static_cast<double>(params.height * params.width) *
                       params.iterations;
    image = apps::sobel::generate_image(params);
  }
};

/// Heat3D: paper 512^3 double-precision grid, 100 iterations.
struct Heat3dWorkload {
  apps::heat3d::Params params;
  AppWorkload scales;
  std::vector<double> field;

  Heat3dWorkload() {
    params.nx = params.ny = params.nz = 64;
    params.iterations = 3;
    const double k = 512.0 / static_cast<double>(params.nx);
    scales.name = "heat3d";
    scales.workload_scale = k * k * k;
    scales.comm_scale = k * k;
    scales.seq_units =
        static_cast<double>(params.nx * params.ny * params.nz) *
        params.iterations;
    field = apps::heat3d::generate_field(params);
  }
};

// --- table printing -----------------------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) std::printf("%-*s", width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt(double value, int precision = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace psf::bench
