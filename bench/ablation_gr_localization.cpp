// PSF — ablation: shared-memory reduction localization on/off (paper
// Section III-E). Without localization every emit contends on the device-
// level reduction object through device-memory slot locks; with it, blocks
// reduce into private on-chip objects merged at the end.
//
// Measured on the Kmeans workload (40 clusters — a small, high-contention
// key set, the case the paper designed the optimization for).
#include <algorithm>
#include <vector>

#include "bench_common.h"

namespace psf::bench {
namespace {

double measure(const KmeansWorkload& workload, const DeviceConfig& devices,
               bool localization) {
  return run_cell(
      make_world(1, workload.scales), [&](minimpi::Communicator& comm) {
        pattern::EnvOptions options = make_options(workload.scales, devices);
        options.reduction_localization = localization;
        return psf::apps::kmeans::run_framework(comm, options,
                                                workload.params,
                                                workload.points)
            .vtime;
      });
}

}  // namespace
}  // namespace psf::bench

int main() {
  using namespace psf::bench;
  KmeansWorkload workload;

  print_header(
      "Ablation — generalized reductions: shared-memory reduction "
      "localization (paper III-E), Kmeans, 1 node");
  print_row({"devices", "no localization", "localized", "speedup"});
  for (const auto& devices : kDeviceConfigs) {
    const double off = measure(workload, devices, false);
    const double on = measure(workload, devices, true);
    print_row({devices.name, fmt(off * 1e3, 1) + " ms",
               fmt(on * 1e3, 1) + " ms", fmt(off / on, 2) + "x"});
  }
  std::printf(
      "\nLocalization also changes WHERE the dynamic scheduler sends work:\n"
      "with slower un-localized devices the chunk distribution shifts, so\n"
      "the end-to-end effect is smaller than the raw per-device penalty.\n");
  std::printf("\nablation_gr_localization done\n");
  return 0;
}
