// PSF — Figure 8 reproduction: framework vs hand-written CUDA benchmarks
// on a single Fermi-class GPU.
//   * Kmeans vs the Rodinia kernel (10M points): paper — framework 6%
//     slower (generic runtime vs hand-tuned kernel).
//   * Sobel vs the NVIDIA SDK sample (8192x8192): paper — framework 15%
//     slower (the SDK kernel stages the image through texture memory).
#include "baselines/cuda_kmeans.h"
#include "baselines/cuda_sobel.h"
#include "bench_common.h"

int main() {
  using namespace psf::bench;

  print_header("Figure 8 — single-GPU execution: framework vs hand-written "
               "CUDA");
  print_row({"app", "handwritten", "framework", "slowdown", "paper"});

  // --- Kmeans (Rodinia comparison, 10M points) --------------------------------
  {
    psf::apps::kmeans::Params params;
    params.num_points = 100000;
    params.num_clusters = 40;
    params.iterations = 1;
    const auto points = psf::apps::kmeans::generate_points(params);
    AppWorkload scales;
    scales.name = "kmeans";
    scales.workload_scale =
        1.0e7 / static_cast<double>(params.num_points);
    scales.comm_scale = 1.0;
    scales.seq_units = static_cast<double>(params.num_points);

    const auto handwritten = psf::baselines::cuda_kmeans::run(
        params, points, scales.workload_scale);

    DeviceConfig gpu_only{"1 GPU", false, 1};
    const double framework = run_cell(
        make_world(1, scales), [&](psf::minimpi::Communicator& comm) {
          return psf::apps::kmeans::run_framework(
                     comm, make_options(scales, gpu_only), params, points)
              .vtime;
        });
    print_row({"Kmeans", fmt(handwritten.vtime * 1e3, 2) + " ms",
               fmt(framework * 1e3, 2) + " ms",
               fmt((framework / handwritten.vtime - 1.0) * 100.0, 1) + "%",
               "6% slower"});
  }

  // --- Sobel (SDK comparison, 8192x8192) ---------------------------------------
  {
    psf::apps::sobel::Params params;
    params.height = params.width = 512;
    params.iterations = 4;
    const auto image = psf::apps::sobel::generate_image(params);
    AppWorkload scales;
    scales.name = "sobel";
    const double k = 8192.0 / static_cast<double>(params.width);
    scales.workload_scale = k * k;
    scales.comm_scale = k;
    scales.seq_units = static_cast<double>(params.height * params.width) *
                       params.iterations;

    const auto handwritten =
        psf::baselines::cuda_sobel::run(params, image,
                                        scales.workload_scale);

    DeviceConfig gpu_only{"1 GPU", false, 1};
    const double framework = run_cell(
        make_world(1, scales), [&](psf::minimpi::Communicator& comm) {
          return psf::apps::sobel::run_framework(
                     comm, make_options(scales, gpu_only), params, image)
              .vtime;
        });
    print_row({"Sobel", fmt(handwritten.vtime * 1e3, 2) + " ms",
               fmt(framework * 1e3, 2) + " ms",
               fmt((framework / handwritten.vtime - 1.0) * 100.0, 1) + "%",
               "15% slower"});
  }

  std::printf("\nfig8_gpu_comparison done\n");
  return 0;
}
