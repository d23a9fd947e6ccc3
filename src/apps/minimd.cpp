#include "apps/minimd.h"

#include <algorithm>
#include <cmath>

#include "pattern/api.h"
#include "support/rng.h"

namespace psf::apps::minimd {

namespace {

// [psf-user-code-begin]
struct ForceParameter {
  double cutoff2 = 0.0;  ///< squared force cutoff
  double dt = 0.0;
};

struct Force {
  double f[3] = {};
};

/// Truncated Lennard-Jones force on atom a from atom b (sigma = eps = 1).
/// Returns true when within the cutoff.
inline bool lj_force(const Atom& a, const Atom& b, double cutoff2,
                     double* force) {
  double delta[3];
  double r2 = 0.0;
  for (int d = 0; d < 3; ++d) {
    delta[d] = a.pos[d] - b.pos[d];
    r2 += delta[d] * delta[d];
  }
  if (r2 >= cutoff2 || r2 <= 1.0e-12) return false;
  const double inv_r2 = 1.0 / r2;
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  const double magnitude = 24.0 * inv_r6 * (2.0 * inv_r6 - 1.0) * inv_r2;
  for (int d = 0; d < 3; ++d) force[d] = magnitude * delta[d];
  return true;
}

constexpr auto lj_cmpt = [](pattern::TypedObject<Force>& obj,
                            const pattern::EdgeView& edge, const Atom* atoms,
                            const ForceParameter* param) {
  double f[3];
  if (!lj_force(atoms[edge.node[0]], atoms[edge.node[1]], param->cutoff2,
                f)) {
    return;
  }
  Force force;
  if (edge.update[0]) {
    for (int d = 0; d < 3; ++d) force.f[d] = f[d];
    obj.insert(edge.node[0], force);
  }
  if (edge.update[1]) {
    for (int d = 0; d < 3; ++d) force.f[d] = -f[d];
    obj.insert(edge.node[1], force);
  }
};

constexpr auto force_reduce = [](Force& a, const Force& b) {
  for (int d = 0; d < 3; ++d) a.f[d] += b.f[d];
};

constexpr auto integrate = [](Atom& atom, const Force* force,
                              const ForceParameter* param) {
  if (force != nullptr) {
    for (int d = 0; d < 3; ++d) atom.vel[d] += force->f[d] * param->dt;
  }
  for (int d = 0; d < 3; ++d) atom.pos[d] += atom.vel[d] * param->dt;
};

constexpr auto ke_emit = [](pattern::TypedObject<double>& obj,
                            const Atom& atom, std::size_t /*index*/,
                            const void* /*parameter*/) {
  double ke = 0.0;
  for (int d = 0; d < 3; ++d) ke += atom.vel[d] * atom.vel[d];
  obj.insert(0, 0.5 * ke);
};

constexpr auto ke_reduce = [](double& a, const double& b) { a += b; };

}  // namespace
// [psf-user-code-end]

double box_edge(const Params& params) {
  const double per_side = std::ceil(std::cbrt(
      static_cast<double>(params.num_atoms)));
  return per_side * params.spacing;
}

std::vector<Atom> generate_atoms(const Params& params) {
  support::Xoshiro256 rng(params.seed);
  const std::size_t side =
      params.side_xy > 0
          ? params.side_xy
          : static_cast<std::size_t>(
                std::ceil(std::cbrt(static_cast<double>(params.num_atoms))));
  // Ordered z-major so 1-D index partitions are spatial slabs; pos[0] holds
  // the z (partitioned) coordinate.
  std::vector<Atom> atoms(params.num_atoms);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const std::size_t x = i % side;
    const std::size_t y = (i / side) % side;
    const std::size_t z = i / (side * side);
    atoms[i].pos[0] = (static_cast<double>(z) + 0.5) * params.spacing;
    atoms[i].pos[1] = (static_cast<double>(y) + 0.5) * params.spacing;
    atoms[i].pos[2] = (static_cast<double>(x) + 0.5) * params.spacing;
    for (int d = 0; d < 3; ++d) atoms[i].vel[d] = 0.1 * rng.next_normal();
  }
  return atoms;
}

std::vector<pattern::Edge> build_neighbor_list(const Params& params,
                                               std::span<const Atom> atoms) {
  const double reach = params.cutoff + params.skin;
  // Per-dimension cell grid over the actual atom extents (the box may be
  // elongated, and atoms drift).
  double lo[3] = {1e300, 1e300, 1e300};
  double hi[3] = {-1e300, -1e300, -1e300};
  for (const auto& atom : atoms) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], atom.pos[d]);
      hi[d] = std::max(hi[d], atom.pos[d]);
    }
  }
  std::size_t cells[3];
  for (int d = 0; d < 3; ++d) {
    cells[d] = std::max<std::size_t>(
        1, static_cast<std::size_t>((hi[d] - lo[d]) / reach));
  }
  auto cell_of = [&](const Atom& atom, int d) {
    const double edge = (hi[d] - lo[d]) / static_cast<double>(cells[d]);
    auto c = static_cast<long long>((atom.pos[d] - lo[d]) /
                                    std::max(edge, 1e-12));
    c = std::max<long long>(
        0, std::min<long long>(c, static_cast<long long>(cells[d]) - 1));
    return static_cast<std::size_t>(c);
  };
  auto cell_index = [&](std::size_t cx, std::size_t cy, std::size_t cz) {
    return (cx * cells[1] + cy) * cells[2] + cz;
  };

  std::vector<std::vector<std::uint32_t>> bins(cells[0] * cells[1] *
                                               cells[2]);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    bins[cell_index(cell_of(atoms[i], 0), cell_of(atoms[i], 1),
                    cell_of(atoms[i], 2))]
        .push_back(static_cast<std::uint32_t>(i));
  }

  const double reach2 = reach * reach;
  std::vector<pattern::Edge> edges;
  for (std::size_t cx = 0; cx < cells[0]; ++cx) {
    for (std::size_t cy = 0; cy < cells[1]; ++cy) {
      for (std::size_t cz = 0; cz < cells[2]; ++cz) {
        const auto& cell = bins[cell_index(cx, cy, cz)];
        for (long long dx = -1; dx <= 1; ++dx) {
          for (long long dy = -1; dy <= 1; ++dy) {
            for (long long dz = -1; dz <= 1; ++dz) {
              const long long nx = static_cast<long long>(cx) + dx;
              const long long ny = static_cast<long long>(cy) + dy;
              const long long nz = static_cast<long long>(cz) + dz;
              if (nx < 0 || ny < 0 || nz < 0 ||
                  nx >= static_cast<long long>(cells[0]) ||
                  ny >= static_cast<long long>(cells[1]) ||
                  nz >= static_cast<long long>(cells[2])) {
                continue;
              }
              const auto& other =
                  bins[cell_index(static_cast<std::size_t>(nx),
                                  static_cast<std::size_t>(ny),
                                  static_cast<std::size_t>(nz))];
              for (std::uint32_t i : cell) {
                for (std::uint32_t j : other) {
                  if (j <= i) continue;  // each pair once, u < v
                  double r2 = 0.0;
                  for (int d = 0; d < 3; ++d) {
                    const double delta = atoms[i].pos[d] - atoms[j].pos[d];
                    r2 += delta * delta;
                  }
                  if (r2 < reach2) edges.push_back({i, j});
                }
              }
            }
          }
        }
      }
    }
  }
  return edges;
}

// [psf-user-code-begin]
Result run_framework(minimpi::Communicator& comm,
                     const pattern::EnvOptions& options, const Params& params,
                     std::span<Atom> atoms) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  const double t0 = comm.timeline().now();

  ForceParameter parameter{params.cutoff * params.cutoff, params.dt};
  pattern::TypedIReduce<Atom, Force> ir(env);
  ir.set_edge_compute<ForceParameter>(lj_cmpt);
  ir.set_node_reduce(force_reduce);
  ir.set_nodes(atoms);
  ir.set_parameter(&parameter);

  std::vector<pattern::Edge> edges = build_neighbor_list(params, atoms);
  ir.set_edges(edges);

  Result result;
  double after_first = t0;
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    if (iteration > 0 && params.rebuild_every > 0 &&
        iteration % params.rebuild_every == 0) {
      // All partitions wrote back their atoms; rebuild the global neighbor
      // list and re-run the id exchange (protocol steps 1-4).
      comm.barrier();
      edges = build_neighbor_list(params, atoms);
      ir.reset_edges(edges);
    }
    PSF_CHECK(ir.start().is_ok());
    ir.update_nodedata<ForceParameter>(integrate);
    if (iteration == 0) after_first = comm.timeline().now();
  }
  result.last_edge_count = edges.size();
  result.steady_vtime =
      params.iterations > 1
          ? (comm.timeline().now() - after_first) / (params.iterations - 1)
          : comm.timeline().now() - t0;
  comm.barrier();

  // Energy kernels: generalized reduction over the atoms.
  pattern::TypedGReduce<Atom, double> gr(env);
  gr.set_emit(ke_emit);
  gr.set_reduce(ke_reduce);
  gr.set_input(atoms);
  gr.configure(4);
  PSF_CHECK(gr.start().is_ok());
  PSF_CHECK(gr.lookup_global(0, &result.kinetic_energy));
  result.temperature =
      2.0 * result.kinetic_energy / (3.0 * static_cast<double>(atoms.size()));

  for (const auto& atom : atoms) {
    result.position_checksum += atom.pos[0] + atom.pos[1] + atom.pos[2];
  }
  result.vtime = comm.timeline().now() - t0;
  env.finalize();
  return result;
}
// [psf-user-code-end]

Result run_sequential(const Params& params, std::span<Atom> atoms) {
  const double cutoff2 = params.cutoff * params.cutoff;
  std::vector<pattern::Edge> edges = build_neighbor_list(params, atoms);
  std::vector<Force> forces(atoms.size());
  std::size_t total_edges = 0;

  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    if (iteration > 0 && params.rebuild_every > 0 &&
        iteration % params.rebuild_every == 0) {
      edges = build_neighbor_list(params, atoms);
    }
    for (auto& force : forces) force = {};
    for (const auto& edge : edges) {
      double f[3];
      if (!lj_force(atoms[edge.u], atoms[edge.v], cutoff2, f)) continue;
      for (int d = 0; d < 3; ++d) {
        forces[edge.u].f[d] += f[d];
        forces[edge.v].f[d] -= f[d];
      }
    }
    for (std::size_t n = 0; n < atoms.size(); ++n) {
      for (int d = 0; d < 3; ++d) {
        atoms[n].vel[d] += forces[n].f[d] * params.dt;
        atoms[n].pos[d] += atoms[n].vel[d] * params.dt;
      }
    }
    total_edges += edges.size();
  }

  Result result;
  result.last_edge_count = edges.size();
  for (const auto& atom : atoms) {
    double ke = 0.0;
    for (int d = 0; d < 3; ++d) {
      ke += atom.vel[d] * atom.vel[d];
      result.position_checksum += atom.pos[d];
    }
    result.kinetic_energy += 0.5 * ke;
  }
  result.temperature =
      2.0 * result.kinetic_energy / (3.0 * static_cast<double>(atoms.size()));
  const auto rates = timemodel::app_rates("minimd");
  result.vtime =
      static_cast<double>(total_edges) / rates.cpu_core_units_per_s;
  return result;
}

}  // namespace psf::apps::minimd
