// PSF — Figure 7 reproduction: effect of the pattern-specific
// optimizations across node counts, CPU + 2 GPUs per node:
//   * Moldyn — overlapping the node-data exchange with local-edge
//     computation (paper: overlapped ~37% faster on average),
//   * Sobel — overlapping the halo exchange with inner tiles (~11%), and
//     grid tiling (up to 20%).
#include <vector>

#include "bench_common.h"

namespace psf::bench {
namespace {

template <typename RunFn>
double measure(const AppWorkload& scales, int nodes, bool overlap,
               bool tiling, RunFn&& run) {
  const DeviceConfig config{"", true, 2};
  return run_cell(make_world(nodes, scales), [&](minimpi::Communicator& comm) {
    return run(comm, make_options(scales, config, overlap, tiling));
  });
}

}  // namespace
}  // namespace psf::bench

int main() {
  using namespace psf::bench;

  // --- Moldyn: overlapped execution of irregular reductions ----------------
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
    print_header(
        "Figure 7a — Moldyn: overlapped execution (exchange || local edges)"
        "\npaper: overlapped on average 37% faster than non-overlapped");
    print_row({"nodes", "no-overlap", "overlap", "improvement"});
    for (int nodes : kNodeCounts) {
      if (nodes == 1) continue;  // no inter-process exchange to overlap
      const double off =
          measure(workload.scales, nodes, /*overlap=*/false, true, run);
      const double on =
          measure(workload.scales, nodes, /*overlap=*/true, true, run);
      print_row({std::to_string(nodes), fmt(off * 1e3, 2) + " ms",
                 fmt(on * 1e3, 2) + " ms",
                 fmt((off - on) / off * 100.0, 1) + "%"});
    }
  }

  // --- Sobel: overlap and tiling ---------------------------------------------
  {
    SobelWorkload workload;
    auto run = [&](psf::minimpi::Communicator& comm,
                   const psf::pattern::EnvOptions& options) {
      return psf::apps::sobel::run_framework(comm, options, workload.params,
                                             workload.image)
                 .steady_vtime *
             workload.params.iterations;
    };
    print_header(
        "Figure 7b — Sobel: overlapped halo exchange"
        "\npaper: overlapped on average 11% faster");
    print_row({"nodes", "no-overlap", "overlap", "improvement"});
    for (int nodes : kNodeCounts) {
      if (nodes == 1) continue;
      const double off =
          measure(workload.scales, nodes, /*overlap=*/false, true, run);
      const double on =
          measure(workload.scales, nodes, /*overlap=*/true, true, run);
      print_row({std::to_string(nodes), fmt(off * 1e3, 2) + " ms",
                 fmt(on * 1e3, 2) + " ms",
                 fmt((off - on) / off * 100.0, 1) + "%"});
    }

    print_header(
        "Figure 7c — Sobel: grid tiling"
        "\npaper: tiling increases performance by up to 20%");
    print_row({"nodes", "no-tiling", "tiling", "improvement"});
    for (int nodes : kNodeCounts) {
      const double off =
          measure(workload.scales, nodes, true, /*tiling=*/false, run);
      const double on =
          measure(workload.scales, nodes, true, /*tiling=*/true, run);
      print_row({std::to_string(nodes), fmt(off * 1e3, 2) + " ms",
                 fmt(on * 1e3, 2) + " ms",
                 fmt((off - on) / off * 100.0, 1) + "%"});
    }
  }

  std::printf("\nfig7_optimizations done\n");
  return 0;
}
