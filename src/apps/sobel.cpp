#include "apps/sobel.h"

#include <cmath>
#include <functional>

#include "pattern/api.h"
#include "support/rng.h"
#include "support/simd.h"

namespace psf::apps::sobel {

namespace {

// [psf-user-code-begin]
/// The two 3x3 Sobel masks convolved at one pixel; output is the clamped
/// gradient magnitude (the paper's 9-point stencil function).
DEVICE void sobel_fp(const void* input, void* output, const int* offset,
                     const int* size, const void* /*parameter*/) {
  const int y = offset[0];
  const int x = offset[1];
  const float gx = GET_FLOAT2(input, size, y - 1, x + 1) +
                   2.0f * GET_FLOAT2(input, size, y, x + 1) +
                   GET_FLOAT2(input, size, y + 1, x + 1) -
                   GET_FLOAT2(input, size, y - 1, x - 1) -
                   2.0f * GET_FLOAT2(input, size, y, x - 1) -
                   GET_FLOAT2(input, size, y + 1, x - 1);
  const float gy = GET_FLOAT2(input, size, y + 1, x - 1) +
                   2.0f * GET_FLOAT2(input, size, y + 1, x) +
                   GET_FLOAT2(input, size, y + 1, x + 1) -
                   GET_FLOAT2(input, size, y - 1, x - 1) -
                   2.0f * GET_FLOAT2(input, size, y - 1, x) -
                   GET_FLOAT2(input, size, y - 1, x + 1);
  const float magnitude = std::sqrt(gx * gx + gy * gy);
  GET_FLOAT2(output, size, y, x) = magnitude > 255.0f ? 255.0f : magnitude;
// [psf-user-code-end]
}

// [psf-user-code-begin]
/// Row variant of sobel_fp: `count` pixels along x from `offset`. Each
/// lane repeats the scalar expression term-for-term (no reassociation), so
/// the bytes match sobel_fp exactly whether or not the loop vectorizes.
DEVICE void sobel_row_fp(const void* input, void* output, const int* offset,
                         const int* size, int count,
                         const void* /*parameter*/) {
  const int y = offset[0];
  const int x0 = offset[1];
  const auto* in = static_cast<const float*>(input);
  auto* out = static_cast<float*>(output);
  const auto stride = static_cast<std::size_t>(size[1]);
  const float* rm = in + static_cast<std::size_t>(y - 1) * stride;
  const float* r0 = in + static_cast<std::size_t>(y) * stride;
  const float* rp = in + static_cast<std::size_t>(y + 1) * stride;
  float* dst = out + static_cast<std::size_t>(y) * stride;
  PSF_SIMD_LOOP
  for (int i = 0; i < count; ++i) {
    const int x = x0 + i;
    const float gx = rm[x + 1] + 2.0f * r0[x + 1] + rp[x + 1] - rm[x - 1] -
                     2.0f * r0[x - 1] - rp[x - 1];
    const float gy = rp[x - 1] + 2.0f * rp[x] + rp[x + 1] - rm[x - 1] -
                     2.0f * rm[x] - rm[x + 1];
    const float magnitude = std::sqrt(gx * gx + gy * gy);
    dst[x] = magnitude > 255.0f ? 255.0f : magnitude;
  }
}
// [psf-user-code-end]

/// Same operator on a plain global grid (reference kernel).
inline float sobel_reference(const std::vector<float>& in, std::size_t width,
                             std::size_t y, std::size_t x) {
  auto at = [&](std::size_t yy, std::size_t xx) { return in[yy * width + xx]; };
  const float gx = at(y - 1, x + 1) + 2.0f * at(y, x + 1) + at(y + 1, x + 1) -
                   at(y - 1, x - 1) - 2.0f * at(y, x - 1) - at(y + 1, x - 1);
  const float gy = at(y + 1, x - 1) + 2.0f * at(y + 1, x) + at(y + 1, x + 1) -
                   at(y - 1, x - 1) - 2.0f * at(y - 1, x) - at(y - 1, x + 1);
  const float magnitude = std::sqrt(gx * gx + gy * gy);
  return magnitude > 255.0f ? 255.0f : magnitude;
}

double checksum_of(std::span<const float> image) {
  double sum = 0.0;
  for (float v : image) sum += static_cast<double>(v);
  return sum;
}

}  // namespace

std::vector<float> generate_image(const Params& params) {
  support::Xoshiro256 rng(params.seed);
  std::vector<float> image(params.height * params.width);
  // Smooth diagonal gradient plus random bright rectangles (edges).
  for (std::size_t y = 0; y < params.height; ++y) {
    for (std::size_t x = 0; x < params.width; ++x) {
      image[y * params.width + x] = static_cast<float>(
          127.0 * (static_cast<double>(x + y) /
                   static_cast<double>(params.width + params.height)));
    }
  }
  const int rectangles = 12;
  for (int r = 0; r < rectangles; ++r) {
    const std::size_t y0 = rng.next_below(params.height);
    const std::size_t x0 = rng.next_below(params.width);
    const std::size_t h = 1 + rng.next_below(params.height / 4 + 1);
    const std::size_t w = 1 + rng.next_below(params.width / 4 + 1);
    const float value = static_cast<float>(rng.next_in(100.0, 255.0));
    for (std::size_t y = y0; y < std::min(params.height, y0 + h); ++y) {
      for (std::size_t x = x0; x < std::min(params.width, x0 + w); ++x) {
        image[y * params.width + x] = value;
      }
    }
  }
  return image;
}

// [psf-user-code-begin]
Result run_framework(minimpi::Communicator& comm,
                     const pattern::EnvOptions& options, const Params& params,
                     std::span<const float> image) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  auto* st = env.get_ST();

  st->set_stencil_func(sobel_fp);
  st->set_row_func(sobel_row_fp);
  st->set_grid(image.data(), sizeof(float), {params.height, params.width});
  st->set_halo(1);

  const double t0 = comm.timeline().now();
  PSF_CHECK(st->run(params.iterations).is_ok());
  Result result;
  result.vtime = comm.timeline().now() - t0;
  result.steady_vtime = st->stats().last_iteration_vtime;

  // Assemble the distributed result parts (excluded from the timing, like
  // the paper's write-back to disk).
  result.image.resize(image.size());
  st->gather(result.image.data(), 0);
  comm.bcast(std::as_writable_bytes(std::span<float>(result.image)), 0);
  result.checksum = checksum_of(result.image);
  env.finalize();
  return result;
}
// [psf-user-code-end]

Result run_sequential(const Params& params, std::span<const float> image) {
  std::vector<float> in(image.begin(), image.end());
  std::vector<float> out = in;
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    for (std::size_t y = 1; y + 1 < params.height; ++y) {
      for (std::size_t x = 1; x + 1 < params.width; ++x) {
        out[y * params.width + x] =
            sobel_reference(in, params.width, y, x);
      }
    }
    std::swap(in, out);
  }
  Result result;
  result.image = std::move(in);
  result.checksum = checksum_of(result.image);
  const auto rates = timemodel::app_rates("sobel");
  result.vtime = static_cast<double>(params.height * params.width) *
                 params.iterations / rates.cpu_core_units_per_s;
  return result;
}

}  // namespace psf::apps::sobel
