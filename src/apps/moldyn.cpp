#include "apps/moldyn.h"

#include <cmath>

#include "pattern/api.h"
#include "support/rng.h"

namespace psf::apps::moldyn {

namespace {

// [psf-user-code-begin]
/// Pairwise interaction: a short-range repulsive spring. Returns true and
/// fills `force` (acting on `a`) when the pair is within the cutoff.
inline bool pair_force(const Molecule& a, const Molecule& b, double cutoff,
                       double* force) {
  double delta[3];
  double dist2 = 0.0;
  for (int d = 0; d < 3; ++d) {
    delta[d] = a.pos[d] - b.pos[d];
    dist2 += delta[d] * delta[d];
  }
  const double dist = std::sqrt(dist2);
  if (dist >= cutoff || dist <= 1.0e-9) return false;
  const double scale = 0.01 * (cutoff - dist) / dist;
  for (int d = 0; d < 3; ++d) force[d] = scale * delta[d];
  return true;
}

/// CF edge compute (paper Listing 1, force_cmpt): one interaction pair;
/// inserts equal and opposite forces for the endpoints this partition owns.
constexpr auto force_cmpt = [](pattern::TypedObject<Force>& obj,
                               const pattern::EdgeView& edge,
                               const Molecule* molecules,
                               const ForceParameter* param) {
  double f[3];
  if (!pair_force(molecules[edge.node[0]], molecules[edge.node[1]],
                  param->cutoff, f)) {
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

/// CF node reduce (force_reduce): plain accumulation.
constexpr auto force_reduce = [](Force& a, const Force& b) {
  for (int d = 0; d < 3; ++d) a.f[d] += b.f[d];
};

/// Velocity/position integration applied per node by update_nodedata.
constexpr auto integrate = [](Molecule& molecule, const Force* force,
                              const ForceParameter* param) {
  if (force != nullptr) {
    for (int d = 0; d < 3; ++d) molecule.vel[d] += force->f[d] * param->dt;
  }
  for (int d = 0; d < 3; ++d) molecule.pos[d] += molecule.vel[d] * param->dt;
};

/// KE emit (ke_emit): one molecule's kinetic energy into key 0.
constexpr auto ke_emit = [](pattern::TypedObject<double>& obj,
                            const Molecule& molecule, std::size_t /*index*/,
                            const void* /*parameter*/) {
  double ke = 0.0;
  for (int d = 0; d < 3; ++d) ke += molecule.vel[d] * molecule.vel[d];
  obj.insert(0, 0.5 * ke);
};

constexpr auto ke_reduce = [](double& a, const double& b) { a += b; };

/// AV accumulator and functions (av_emit / av_reduce).
struct VelAccum {
  double sum[3] = {};
  double count = 0;
};

constexpr auto av_emit = [](pattern::TypedObject<VelAccum>& obj,
                            const Molecule& molecule, std::size_t /*index*/,
                            const void* /*parameter*/) {
  VelAccum accum;
  for (int d = 0; d < 3; ++d) accum.sum[d] = molecule.vel[d];
  accum.count = 1;
  obj.insert(0, accum);
};

constexpr auto av_reduce = [](VelAccum& a, const VelAccum& b) {
  for (int d = 0; d < 3; ++d) a.sum[d] += b.sum[d];
  a.count += b.count;
};

}  // namespace
// [psf-user-code-end]

std::vector<Molecule> generate_molecules(const Params& params) {
  // Jittered simple-cubic lattice in a z-elongated box, ordered z-major:
  // index locality equals spatial locality, so 1-D block partitions get
  // mesh-like surface-to-volume cross-edge fractions.
  support::Xoshiro256 rng(params.seed);
  const auto side_xy = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(
             std::cbrt(static_cast<double>(params.num_nodes) /
                       params.aspect))));
  const double spacing = params.box / static_cast<double>(side_xy);
  std::vector<Molecule> molecules(params.num_nodes);
  for (std::size_t i = 0; i < molecules.size(); ++i) {
    const std::size_t x = i % side_xy;
    const std::size_t y = (i / side_xy) % side_xy;
    const std::size_t z = i / (side_xy * side_xy);
    molecules[i].pos[0] =
        (static_cast<double>(z) + 0.5 + 0.2 * rng.next_normal()) * spacing;
    molecules[i].pos[1] =
        (static_cast<double>(y) + 0.5 + 0.2 * rng.next_normal()) * spacing;
    molecules[i].pos[2] =
        (static_cast<double>(x) + 0.5 + 0.2 * rng.next_normal()) * spacing;
    for (int d = 0; d < 3; ++d) {
      molecules[i].vel[d] = rng.next_in(-1.0, 1.0);
    }
  }
  return molecules;
}

std::vector<pattern::Edge> generate_edges(const Params& params) {
  // Proximity edges from a cell-binned search over the actual positions;
  // the interaction radius is chosen so the expected pair count
  // approximates params.num_edges.
  const auto molecules = generate_molecules(params);

  // Domain extents from the data (the box may be z-elongated).
  double lo[3] = {1e300, 1e300, 1e300};
  double hi[3] = {-1e300, -1e300, -1e300};
  for (const auto& m : molecules) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], m.pos[d]);
      hi[d] = std::max(hi[d], m.pos[d]);
    }
  }
  const double volume = std::max(1e-9, (hi[0] - lo[0]) * (hi[1] - lo[1]) *
                                           (hi[2] - lo[2]));
  const double density = static_cast<double>(params.num_nodes) / volume;
  const double target_degree =
      2.0 * static_cast<double>(params.num_edges) /
      static_cast<double>(params.num_nodes);
  const double radius = std::cbrt(3.0 * target_degree /
                                  (4.0 * 3.14159265358979323846 * density));

  std::size_t cells[3];
  double origin[3];
  for (int d = 0; d < 3; ++d) {
    origin[d] = lo[d];
    cells[d] = std::max<std::size_t>(
        1, static_cast<std::size_t>((hi[d] - lo[d]) / radius));
  }
  auto cell_of = [&](const double* pos, int d) {
    const double edge = (hi[d] - lo[d]) / static_cast<double>(cells[d]);
    auto c = static_cast<long long>((pos[d] - origin[d]) /
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
  for (std::size_t i = 0; i < molecules.size(); ++i) {
    bins[cell_index(cell_of(molecules[i].pos, 0),
                    cell_of(molecules[i].pos, 1),
                    cell_of(molecules[i].pos, 2))]
        .push_back(static_cast<std::uint32_t>(i));
  }
  const double radius2 = radius * radius;
  std::vector<pattern::Edge> edges;
  edges.reserve(params.num_edges);
  for (std::size_t cx = 0; cx < cells[0]; ++cx) {
    for (std::size_t cy = 0; cy < cells[1]; ++cy) {
      for (std::size_t cz = 0; cz < cells[2]; ++cz) {
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
              const auto& cell = bins[cell_index(cx, cy, cz)];
              const auto& other =
                  bins[cell_index(static_cast<std::size_t>(nx),
                                  static_cast<std::size_t>(ny),
                                  static_cast<std::size_t>(nz))];
              for (std::uint32_t i : cell) {
                for (std::uint32_t j : other) {
                  if (j <= i) continue;
                  double r2 = 0.0;
                  for (int d = 0; d < 3; ++d) {
                    const double delta =
                        molecules[i].pos[d] - molecules[j].pos[d];
                    r2 += delta * delta;
                  }
                  if (r2 < radius2) edges.push_back({i, j});
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
                     std::span<Molecule> molecules,
                     std::span<const pattern::Edge> edges) {
  pattern::RuntimeEnv env(comm, options);
  PSF_CHECK(env.init().is_ok());
  const double t0 = comm.timeline().now();

  // --- Compute Force (CF): irregular reduction, one start() per time step.
  pattern::TypedIReduce<Molecule, Force> ir(env);
  ForceParameter parameter{params.cutoff, params.dt};
  ir.set_edge_compute<ForceParameter>(force_cmpt);
  ir.set_node_reduce(force_reduce);
  ir.set_nodes(molecules);
  ir.set_edges(edges);
  ir.set_parameter(&parameter);
  double after_first = t0;
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    PSF_CHECK(ir.start().is_ok());
    ir.update_nodedata<ForceParameter>(integrate);
    if (iteration == 0) after_first = comm.timeline().now();
  }
  const double cf_end = comm.timeline().now();
  // All partitions must have written back before the node-wide reductions
  // read the global array (the simulated result files).
  comm.barrier();

  // --- Kinetic Energy (KE): generalized reduction over the molecules.
  pattern::TypedGReduce<Molecule, double> ke(env);
  ke.set_emit(ke_emit);
  ke.set_reduce(ke_reduce);
  ke.set_input(molecules);
  ke.configure(4);
  PSF_CHECK(ke.start().is_ok());
  Result result;
  PSF_CHECK(ke.lookup_global(0, &result.kinetic_energy));

  // --- Average Velocity (AV): the same runtime instance, reconfigured for
  // a new value type; the input carries over.
  pattern::TypedGReduce<Molecule, VelAccum> av(env);
  av.set_emit(av_emit);
  av.set_reduce(av_reduce);
  av.configure(4);
  PSF_CHECK(av.start().is_ok());
  VelAccum accum;
  PSF_CHECK(av.lookup_global(0, &accum));
  for (int d = 0; d < 3; ++d) {
    result.avg_velocity[d] = accum.sum[d] / accum.count;
  }

  for (const auto& molecule : molecules) {
    result.position_checksum +=
        molecule.pos[0] + molecule.pos[1] + molecule.pos[2];
  }
  result.vtime = comm.timeline().now() - t0;
  result.steady_vtime =
      params.iterations > 1
          ? (cf_end - after_first) / (params.iterations - 1)
          : cf_end - t0;
  env.finalize();
  return result;
}
// [psf-user-code-end]

Result run_sequential(const Params& params, std::span<Molecule> molecules,
                      std::span<const pattern::Edge> edges) {
  std::vector<Force> forces(molecules.size());
  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    for (auto& force : forces) force = {};
    for (const auto& edge : edges) {
      double f[3];
      if (!pair_force(molecules[edge.u], molecules[edge.v], params.cutoff,
                      f)) {
        continue;
      }
      for (int d = 0; d < 3; ++d) {
        forces[edge.u].f[d] += f[d];
        forces[edge.v].f[d] -= f[d];
      }
    }
    for (std::size_t n = 0; n < molecules.size(); ++n) {
      for (int d = 0; d < 3; ++d) {
        molecules[n].vel[d] += forces[n].f[d] * params.dt;
        molecules[n].pos[d] += molecules[n].vel[d] * params.dt;
      }
    }
  }

  Result result;
  for (const auto& molecule : molecules) {
    double ke = 0.0;
    for (int d = 0; d < 3; ++d) {
      ke += molecule.vel[d] * molecule.vel[d];
      result.avg_velocity[d] += molecule.vel[d];
      result.position_checksum += molecule.pos[d];
    }
    result.kinetic_energy += 0.5 * ke;
  }
  for (int d = 0; d < 3; ++d) {
    result.avg_velocity[d] /= static_cast<double>(molecules.size());
  }
  const auto rates = timemodel::app_rates("moldyn");
  result.vtime = static_cast<double>(edges.size()) * params.iterations /
                 rates.cpu_core_units_per_s;
  return result;
}

}  // namespace psf::apps::moldyn
