// PSF example — Sobel edge detection (9-point stencil) on a simulated
// CPU-GPU cluster; writes the input and detected-edge images as PGM files.
// Written against the typed stencil API: the kernel reads pixels through
// GridView as in(y, x), EnvOptions uses the fluent setters, and the ranks
// run under World::try_run so a failure surfaces as a support::Status
// instead of an exception.
//
//   $ ./edge_detect [nodes] [size] [out.pgm]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "apps/sobel.h"
#include "pattern/typed.h"

namespace {

using psf::pattern::GridView;
using psf::pattern::MutableGridView;

/// The two 3x3 Sobel masks convolved at one pixel; output is the clamped
/// gradient magnitude (the paper's 9-point stencil function, typed form).
struct SobelStep {
  void operator()(GridView<float, 2> in, MutableGridView<float, 2> out,
                  const int* offset, const void* /*parameter*/) const {
    const int y = offset[0];
    const int x = offset[1];
    const float gx = in(y - 1, x + 1) + 2.0f * in(y, x + 1) +
                     in(y + 1, x + 1) - in(y - 1, x - 1) -
                     2.0f * in(y, x - 1) - in(y + 1, x - 1);
    const float gy = in(y + 1, x - 1) + 2.0f * in(y + 1, x) +
                     in(y + 1, x + 1) - in(y - 1, x - 1) -
                     2.0f * in(y - 1, x) - in(y - 1, x + 1);
    const float magnitude = std::sqrt(gx * gx + gy * gy);
    out(y, x) = magnitude > 255.0f ? 255.0f : magnitude;
  }
};

void write_pgm(const char* path, const std::vector<float>& image,
               std::size_t height, std::size_t width) {
  std::FILE* file = std::fopen(path, "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(file, "P5\n%zu %zu\n255\n", width, height);
  for (float v : image) {
    const int clamped = v < 0.0f ? 0 : (v > 255.0f ? 255 : static_cast<int>(v));
    std::fputc(clamped, file);
  }
  std::fclose(file);
  std::printf("  wrote %s (%zux%zu)\n", path, width, height);
}

}  // namespace

int main(int argc, char** argv) {
  psf::apps::sobel::Params params;
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t size =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 256;
  const char* out_path = argc > 3 ? argv[3] : "edges.pgm";
  params.height = params.width = size;
  params.iterations = 1;  // one detection pass for a crisp image

  const auto image = psf::apps::sobel::generate_image(params);
  std::printf("Sobel: %zux%zu image on %d simulated nodes (CPU + 2 GPUs "
              "each)\n",
              params.height, params.width, nodes);
  write_pgm("input.pgm", image, params.height, params.width);

  psf::minimpi::World world(nodes, psf::timemodel::LinkModel::infiniband());
  std::vector<std::vector<float>> results(static_cast<std::size_t>(nodes));
  std::vector<double> vtimes(static_cast<std::size_t>(nodes), 0.0);
  const auto status = world.try_run([&](psf::minimpi::Communicator& comm) {
    const auto options = psf::pattern::EnvOptions{}
                             .with_profile("sobel")
                             .with_cpu()
                             .with_gpus(2);
    psf::pattern::RuntimeEnv env(comm, options);
    PSF_CHECK(env.init().is_ok());
    psf::pattern::TypedStencil<float, 2> st(env);

    st.set_stencil(SobelStep{});
    st.set_grid(image, {params.height, params.width});
    st.set_halo(1);

    const double t0 = comm.timeline().now();
    PSF_CHECK(st.run(params.iterations).is_ok());
    const auto rank = static_cast<std::size_t>(comm.rank());
    vtimes[rank] = comm.timeline().now() - t0;

    // Assemble the distributed result parts (excluded from the timing,
    // like the paper's write-back to disk).
    auto& edges = results[rank];
    edges.resize(image.size());
    st.gather(edges, 0);
    comm.bcast(std::as_writable_bytes(std::span<float>(edges)), 0);
    env.finalize();
  });
  if (!status.is_ok()) {
    std::fprintf(stderr, "edge_detect failed: %s\n",
                 status.message().c_str());
    return 1;
  }

  write_pgm(out_path, results[0], params.height, params.width);
  std::printf("  simulated exec time: %.3f ms\n", vtimes[0] * 1e3);
  std::printf("edge_detect OK\n");
  return 0;
}
