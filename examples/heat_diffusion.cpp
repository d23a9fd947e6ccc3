// PSF example — 3-D heat diffusion (7-point stencil) on a simulated
// CPU-GPU cluster, written against the typed stencil API: the kernel reads
// the grid through GridView as in(z, y, x) instead of the legacy
// GET_DOUBLE3 macros, and EnvOptions is assembled with the fluent setters.
//
//   $ ./heat_diffusion [nodes] [grid-edge] [steps] [trace.json]
//
// When a trace path is given, the overlapped run's schedule is exported as
// Chrome trace JSON (open in chrome://tracing or ui.perfetto.dev).
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "apps/heat3d.h"
#include "pattern/compose.h"
#include "pattern/typed.h"
#include "timemodel/trace.h"

namespace {

using psf::pattern::GridView;
using psf::pattern::MutableGridView;
using psf::pattern::TypedObject;

/// The paper's Heat3D kernel in typed form. Captureless, like a CUDA
/// kernel; alpha arrives through the typed parameter.
struct HeatStep {
  void operator()(GridView<double, 3> in, MutableGridView<double, 3> out,
                  const int* offset, const double* alpha) const {
    const int z = offset[0];
    const int y = offset[1];
    const int x = offset[2];
    const double center = in(z, y, x);
    const double neighbors = in(z - 1, y, x) + in(z + 1, y, x) +
                             in(z, y - 1, x) + in(z, y + 1, x) +
                             in(z, y, x - 1) + in(z, y, x + 1);
    out(z, y, x) = center + *alpha * (neighbors - 6.0 * center);
  }
};

/// Residual emit for the fused stencil+reduce run: each cell contributes
/// its squared update delta to key 0 the moment the sweep writes it.
struct ResidualEmit {
  void operator()(TypedObject<double>& obj, const GridView<double, 3>& before,
                  const GridView<double, 3>& after, const int* c,
                  const void* /*parameter*/) const {
    const double delta = after(c[0], c[1], c[2]) - before(c[0], c[1], c[2]);
    obj.insert(0, delta * delta);
  }
};

struct SumCombine {
  void operator()(double& dst, const double& src) const { dst += src; }
};

/// The composition layer's fused stencil_reduce: the same sweep, plus a
/// per-iteration global residual at (when fused) zero extra grid traffic.
/// Returns the final residual; *vtime gets the run's virtual time.
double run_rank_monitored(psf::minimpi::Communicator& comm,
                          const psf::pattern::EnvOptions& options,
                          const psf::apps::heat3d::Params& params,
                          std::span<const double> field, bool fused,
                          double* vtime) {
  psf::pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  psf::pattern::TypedStencilReduce<double, 3, double> sr(env);

  const double alpha = params.alpha;
  sr.set_stencil<double>(HeatStep{});
  sr.set_emit(ResidualEmit{});
  sr.set_combine(SumCombine{});
  sr.set_grid(field, {params.nx, params.ny, params.nz});
  sr.set_halo(1);
  sr.set_parameter(&alpha);
  sr.configure(2);
  sr.set_fused(fused);

  const double t0 = comm.timeline().now();
  PSF_CHECK(sr.run(params.iterations).is_ok());
  *vtime = comm.timeline().now() - t0;
  double residual = 0.0;
  (void)sr.lookup(0, &residual);
  env.finalize();
  return residual;
}

/// One simulated rank: run the typed stencil, then assemble the full field
/// on every rank (reduce + bcast, excluded from the timed region like the
/// paper's write-back to disk).
std::vector<double> run_rank(psf::minimpi::Communicator& comm,
                             const psf::pattern::EnvOptions& options,
                             const psf::apps::heat3d::Params& params,
                             std::span<const double> field, double* vtime) {
  psf::pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  psf::pattern::TypedStencil<double, 3> st(env);

  const double alpha = params.alpha;
  st.set_stencil<double>(HeatStep{});
  st.set_grid(field, {params.nx, params.ny, params.nz});
  st.set_halo(1);
  st.set_parameter(&alpha);

  const double t0 = comm.timeline().now();
  PSF_CHECK(st.run(params.iterations).is_ok());
  *vtime = comm.timeline().now() - t0;

  std::vector<double> result(field.size());
  st.gather(result, 0);
  comm.bcast(std::as_writable_bytes(std::span<double>(result)), 0);
  env.finalize();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  psf::apps::heat3d::Params params;
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t edge =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 48;
  params.nx = params.ny = params.nz = edge;
  params.iterations = argc > 3 ? std::atoi(argv[3]) : 25;
  const char* trace_path = argc > 4 ? argv[4] : nullptr;

  const auto field = psf::apps::heat3d::generate_field(params);
  double initial_heat = 0.0;
  for (double v : field) initial_heat += v;

  std::printf("Heat3D: %zu^3 grid, %d steps on %d simulated nodes\n", edge,
              params.iterations, nodes);

  psf::timemodel::TraceRecorder trace;
  for (bool overlap : {false, true}) {
    psf::minimpi::World world(nodes,
                              psf::timemodel::LinkModel::infiniband());
    std::vector<double> vtimes(static_cast<std::size_t>(nodes), 0.0);
    std::vector<std::vector<double>> fields(static_cast<std::size_t>(nodes));
    world.run([&](psf::minimpi::Communicator& comm) {
      auto options = psf::pattern::EnvOptions{}
                         .with_profile("heat3d")
                         .with_cpu()
                         .with_gpus(2)
                         .with_overlap(overlap)
                         .with_workload_scale(1000.0);  // paper-scale 512^3-ish
      if (overlap && trace_path != nullptr) options.with_trace(&trace);
      const auto rank = static_cast<std::size_t>(comm.rank());
      fields[rank] = run_rank(comm, options, params, field, &vtimes[rank]);
    });
    double final_heat = 0.0;
    for (double v : fields[0]) final_heat += v;
    std::printf("  overlap=%s  simulated time %.3f ms   heat %.1f -> %.1f\n",
                overlap ? "on " : "off", vtimes[0] * 1e3, initial_heat,
                final_heat);
  }
  // Composition layer: the same sweep with a fused per-iteration residual
  // reduction, against the unfused (separate second grid pass) reference.
  // Residuals are bit-identical; only the virtual time differs.
  double fused_residual = 0.0;
  double unfused_residual = 0.0;
  double fused_vtime = 0.0;
  double unfused_vtime = 0.0;
  for (bool fused : {false, true}) {
    psf::minimpi::World world(nodes, psf::timemodel::LinkModel::infiniband());
    world.run([&](psf::minimpi::Communicator& comm) {
      auto options = psf::pattern::EnvOptions{}
                         .with_profile("heat3d")
                         .with_cpu()
                         .with_gpus(2)
                         .with_workload_scale(1000.0);
      double vtime = 0.0;
      const double residual =
          run_rank_monitored(comm, options, params, field, fused, &vtime);
      if (comm.rank() == 0) {
        (fused ? fused_residual : unfused_residual) = residual;
        (fused ? fused_vtime : unfused_vtime) = vtime;
      }
    });
  }
  std::printf("  stencil_reduce residual %.6e  fused %.3f ms vs unfused "
              "%.3f ms (%.1f%% saved)\n",
              fused_residual, fused_vtime * 1e3, unfused_vtime * 1e3,
              100.0 * (1.0 - fused_vtime / unfused_vtime));
  if (fused_residual != unfused_residual) {
    std::printf("heat_diffusion FAILED: fused/unfused residuals differ\n");
    return 1;
  }
  if (trace_path != nullptr) {
    if (trace.write_chrome_json(trace_path)) {
      std::printf("  wrote schedule trace to %s (%zu spans)\n", trace_path,
                  trace.size());
    }
  }
  std::printf("heat_diffusion OK\n");
  return 0;
}
