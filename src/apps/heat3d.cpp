#include "apps/heat3d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "pattern/api.h"
#include "pattern/compose.h"
#include "support/rng.h"
#include "support/simd.h"

namespace psf::apps::heat3d {

namespace {

// [psf-user-code-begin]
/// 7-point explicit diffusion update for one cell (paper's Heat3D kernel).
DEVICE void heat_fp(const void* input, void* output, const int* offset,
                    const int* size, const void* parameter) {
  const double alpha = *static_cast<const double*>(parameter);
  const int z = offset[0];
  const int y = offset[1];
  const int x = offset[2];
  const double center = GET_DOUBLE3(input, size, z, y, x);
  const double neighbors = GET_DOUBLE3(input, size, z - 1, y, x) +
                           GET_DOUBLE3(input, size, z + 1, y, x) +
                           GET_DOUBLE3(input, size, z, y - 1, x) +
                           GET_DOUBLE3(input, size, z, y + 1, x) +
                           GET_DOUBLE3(input, size, z, y, x - 1) +
                           GET_DOUBLE3(input, size, z, y, x + 1);
  GET_DOUBLE3(output, size, z, y, x) =
      center + alpha * (neighbors - 6.0 * center);
// [psf-user-code-end]
}

// [psf-user-code-begin]
/// Row variant of heat_fp: `count` cells along x from `offset`. Each lane
/// repeats the scalar sum term-for-term (z-1, z+1, y-1, y+1, x-1, x+1), so
/// the bytes match heat_fp exactly whether or not the loop vectorizes.
DEVICE void heat_row_fp(const void* input, void* output, const int* offset,
                        const int* size, int count, const void* parameter) {
  const double alpha = *static_cast<const double*>(parameter);
  const int z = offset[0];
  const int y = offset[1];
  const int x0 = offset[2];
  const auto* in = static_cast<const double*>(input);
  auto* out = static_cast<double*>(output);
  const auto sy = static_cast<std::size_t>(size[2]);
  const std::size_t sz = static_cast<std::size_t>(size[1]) * sy;
  const std::size_t base = static_cast<std::size_t>(z) * sz +
                           static_cast<std::size_t>(y) * sy +
                           static_cast<std::size_t>(x0);
  const double* c0 = in + base;
  const double* zm = c0 - sz;
  const double* zp = c0 + sz;
  const double* ym = c0 - sy;
  const double* yp = c0 + sy;
  double* dst = out + base;
  PSF_SIMD_LOOP
  for (int i = 0; i < count; ++i) {
    const double center = c0[i];
    const double neighbors =
        zm[i] + zp[i] + ym[i] + yp[i] + c0[i - 1] + c0[i + 1];
    dst[i] = center + alpha * (neighbors - 6.0 * center);
  }
}
// [psf-user-code-end]

double checksum_of(std::span<const double> field) {
  double sum = 0.0;
  for (double v : field) sum += v;
  return sum;
}

}  // namespace

std::vector<double> generate_field(const Params& params) {
  support::Xoshiro256 rng(params.seed);
  std::vector<double> field(params.nx * params.ny * params.nz, 0.0);
  auto at = [&](std::size_t z, std::size_t y, std::size_t x) -> double& {
    return field[(z * params.ny + y) * params.nz + x];
  };
  // Hot z=0 wall and a few hot spherical spots.
  for (std::size_t y = 0; y < params.ny; ++y) {
    for (std::size_t x = 0; x < params.nz; ++x) at(0, y, x) = 100.0;
  }
  for (int spot = 0; spot < 6; ++spot) {
    const std::size_t cz = rng.next_below(params.nx);
    const std::size_t cy = rng.next_below(params.ny);
    const std::size_t cx = rng.next_below(params.nz);
    const double temperature = rng.next_in(200.0, 400.0);
    const long long radius = 2 + static_cast<long long>(rng.next_below(3));
    for (long long z = -radius; z <= radius; ++z) {
      for (long long y = -radius; y <= radius; ++y) {
        for (long long x = -radius; x <= radius; ++x) {
          const long long zz = static_cast<long long>(cz) + z;
          const long long yy = static_cast<long long>(cy) + y;
          const long long xx = static_cast<long long>(cx) + x;
          if (zz < 0 || yy < 0 || xx < 0 ||
              zz >= static_cast<long long>(params.nx) ||
              yy >= static_cast<long long>(params.ny) ||
              xx >= static_cast<long long>(params.nz)) {
            continue;
          }
          if (z * z + y * y + x * x <= radius * radius) {
            at(static_cast<std::size_t>(zz), static_cast<std::size_t>(yy),
               static_cast<std::size_t>(xx)) = temperature;
          }
        }
      }
    }
  }
  return field;
}

// [psf-user-code-begin]
Result run_framework(minimpi::Communicator& comm,
                     const pattern::EnvOptions& options, const Params& params,
                     std::span<const double> field) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  auto* st = env.get_ST();

  const double alpha = params.alpha;
  st->set_stencil_func(heat_fp);
  st->set_row_func(heat_row_fp);
  st->set_grid(field.data(), sizeof(double),
               {params.nx, params.ny, params.nz});
  st->set_halo(1);
  st->set_parameter(&alpha);

  const double t0 = comm.timeline().now();
  PSF_CHECK(st->run(params.iterations).is_ok());
  Result result;
  result.vtime = comm.timeline().now() - t0;
  result.steady_vtime = st->stats().last_iteration_vtime;

  result.field.resize(field.size());
  st->gather(result.field.data(), 0);
  comm.bcast(std::as_writable_bytes(std::span<double>(result.field)), 0);
  result.checksum = checksum_of(result.field);
  env.finalize();
  return result;
}
// [psf-user-code-end]

// Outside the LoC markers: the fused/unfused comparison harness is
// composition-layer demo code, not part of the paper's Figure 6 user-code
// comparison.
MonitoredResult run_framework_monitored(minimpi::Communicator& comm,
                                        const pattern::EnvOptions& options,
                                        const Params& params,
                                        std::span<const double> field,
                                        bool fused) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());

  // Fused stencil+reduce: the 7-point update plus a per-cell residual
  // emit ((new - old)^2 at key 0), combined across ranks every iteration.
  pattern::TypedStencilReduce<double, 3, double> sr(env);
  const double alpha = params.alpha;
  sr.set_stencil<double>([](const pattern::GridView<double, 3>& in,
                            const pattern::MutableGridView<double, 3>& out,
                            const int* c, const double* diffusion) {
    const int z = c[0];
    const int y = c[1];
    const int x = c[2];
    const double center = in(z, y, x);
    const double neighbors = in(z - 1, y, x) + in(z + 1, y, x) +
                             in(z, y - 1, x) + in(z, y + 1, x) +
                             in(z, y, x - 1) + in(z, y, x + 1);
    out(z, y, x) = center + *diffusion * (neighbors - 6.0 * center);
  });
  sr.set_emit([](pattern::TypedObject<double>& obj,
                 const pattern::GridView<double, 3>& before,
                 const pattern::GridView<double, 3>& after, const int* c,
                 const void* /*parameter*/) {
    const double delta =
        after(c[0], c[1], c[2]) - before(c[0], c[1], c[2]);
    obj.insert(0, delta * delta);
  });
  sr.set_combine([](double& dst, const double& src) { dst += src; });
  sr.set_grid(field, {params.nx, params.ny, params.nz});
  sr.set_halo(1);
  sr.set_parameter(&alpha);
  sr.configure(2);
  sr.set_fused(fused);

  MonitoredResult result;
  result.residuals.reserve(static_cast<std::size_t>(params.iterations));

  // Two-stage pipeline: "sweep" publishes the iteration residual, "monitor"
  // consumes it zero-copy from the pooled handoff buffer. The handoff edge
  // makes psf-analyze attribute the cross-stage critical path.
  pattern::PatternGraph graph(env);
  PSF_CHECK(graph
                .add_stage("sweep",
                           [&](pattern::StageContext& ctx) {
                             PSF_RETURN_IF_ERROR(sr.step());
                             double residual = 0.0;
                             (void)sr.lookup(0, &residual);
                             return ctx.publish(std::as_bytes(
                                 std::span<const double>(&residual, 1)));
                           })
                .is_ok());
  PSF_CHECK(graph
                .add_stage("monitor",
                           [&](pattern::StageContext& ctx) {
                             double residual = 0.0;
                             std::memcpy(&residual, ctx.input(0).data(),
                                         sizeof(double));
                             result.residuals.push_back(residual);
                             return support::Status::ok();
                           })
                .is_ok());
  PSF_CHECK(graph.connect("sweep", "monitor", sizeof(double)).is_ok());

  const double t0 = comm.timeline().now();
  PSF_CHECK(graph.run(params.iterations).is_ok());
  result.vtime = comm.timeline().now() - t0;
  result.steady_vtime = sr.stats().last_step_vtime;

  result.field.resize(field.size());
  sr.gather(result.field, 0);
  comm.bcast(std::as_writable_bytes(std::span<double>(result.field)), 0);
  result.checksum = checksum_of(result.field);
  env.finalize();
  return result;
}

Result run_sequential(const Params& params, std::span<const double> field) {
  std::vector<double> in(field.begin(), field.end());
  std::vector<double> out = in;
  const std::size_t ny = params.ny;
  const std::size_t nz = params.nz;
  auto index = [&](std::size_t z, std::size_t y, std::size_t x) {
    return (z * ny + y) * nz + x;
  };
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    for (std::size_t z = 1; z + 1 < params.nx; ++z) {
      for (std::size_t y = 1; y + 1 < ny; ++y) {
        for (std::size_t x = 1; x + 1 < nz; ++x) {
          const double center = in[index(z, y, x)];
          const double neighbors =
              in[index(z - 1, y, x)] + in[index(z + 1, y, x)] +
              in[index(z, y - 1, x)] + in[index(z, y + 1, x)] +
              in[index(z, y, x - 1)] + in[index(z, y, x + 1)];
          out[index(z, y, x)] =
              center + params.alpha * (neighbors - 6.0 * center);
        }
      }
    }
    std::swap(in, out);
  }
  Result result;
  result.field = std::move(in);
  result.checksum = checksum_of(result.field);
  const auto rates = timemodel::app_rates("heat3d");
  result.vtime = static_cast<double>(params.nx * params.ny * params.nz) *
                 params.iterations / rates.cpu_core_units_per_s;
  return result;
}

}  // namespace psf::apps::heat3d
