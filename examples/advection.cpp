// PSF example — 2-D scalar advection on a periodic (torus) domain: a
// Gaussian pulse transported diagonally with a first-order upwind stencil.
// Demonstrates the periodic-boundary extension of the stencil runtime:
// the pulse leaves one edge and re-enters on the opposite side.
//
//   $ ./advection [nodes] [size] [steps]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pattern/api.h"
#include "pattern/typed.h"

namespace {

using psf::pattern::GridView;
using psf::pattern::MutableGridView;

struct Flow {
  double courant_y = 0.4;  ///< v * dt / dy
  double courant_x = 0.4;  ///< u * dt / dx
};

// First-order upwind for positive (down-right) velocity.
struct Upwind {
  void operator()(const GridView<double, 2>& in,
                  const MutableGridView<double, 2>& out, const int* c,
                  const Flow* flow) const {
    const int y = c[0];
    const int x = c[1];
    const double center = in(y, x);
    out(y, x) = center - flow->courant_y * (center - in(y - 1, x)) -
                flow->courant_x * (center - in(y, x - 1));
  }
};

/// Center of mass of the field (for watching the pulse travel).
std::pair<double, double> center_of_mass(const std::vector<double>& field,
                                         std::size_t n) {
  double total = 0.0;
  double cy = 0.0;
  double cx = 0.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double v = field[y * n + x];
      total += v;
      cy += v * static_cast<double>(y);
      cx += v * static_cast<double>(x);
    }
  }
  return {cy / total, cx / total};
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t n = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 96;
  const int steps = argc > 3 ? std::atoi(argv[3]) : 60;

  // Gaussian pulse in the upper-left quadrant.
  std::vector<double> field(n * n, 0.0);
  const double c0 = static_cast<double>(n) / 4.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double dy = static_cast<double>(y) - c0;
      const double dx = static_cast<double>(x) - c0;
      field[y * n + x] = std::exp(-(dy * dy + dx * dx) / 18.0);
    }
  }
  const auto [start_y, start_x] = center_of_mass(field, n);
  std::printf("Advection: %zux%zu torus, %d steps on %d simulated nodes\n",
              n, n, steps, nodes);
  std::printf("  pulse starts at (%.1f, %.1f)\n", start_y, start_x);

  std::vector<double> result(n * n, 0.0);
  psf::minimpi::World world(nodes, psf::timemodel::LinkModel::infiniband());
  world.run([&](psf::minimpi::Communicator& comm) {
    psf::pattern::EnvOptions options;
    options.app_profile = "heat3d";
    options.use_cpu = true;
    options.use_gpus = 2;
    psf::pattern::RuntimeEnv env(comm, options);
    psf::pattern::TypedStencil<double, 2> st(env);
    Flow flow;
    st.set_stencil<Flow>(Upwind{});
    st.set_grid(field, {n, n});
    st.set_periodic({true, true});
    st.set_parameter(&flow);
    PSF_CHECK(st.run(steps).is_ok());
    st.write_back(result);
    if (comm.rank() == 0) {
      std::printf("  simulated exec time: %.3f ms\n",
                  comm.timeline().now() * 1e3);
    }
  });

  const auto [end_y, end_x] = center_of_mass(result, n);
  double mass_before = 0.0;
  double mass_after = 0.0;
  for (double v : field) mass_before += v;
  for (double v : result) mass_after += v;
  std::printf("  pulse ends at (%.1f, %.1f)  (expected drift ~%.1f cells "
              "per axis, wrapping)\n",
              end_y, end_x, 0.4 * steps);
  std::printf("  mass conserved: %.4f -> %.4f\n", mass_before, mass_after);
  std::printf("advection OK\n");
  return 0;
}
