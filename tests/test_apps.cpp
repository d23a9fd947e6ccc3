// PSF — end-to-end application tests: each evaluation app's framework
// implementation must reproduce its single-core reference across rank and
// device mixes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "apps/heat3d.h"
#include "apps/kmeans.h"
#include "apps/minimd.h"
#include "apps/moldyn.h"
#include "apps/sobel.h"

namespace psf::apps {
namespace {

struct Config {
  int ranks;
  bool use_cpu;
  int use_gpus;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::ostringstream name;
  name << 'r' << info.param.ranks << (info.param.use_cpu ? "_cpu" : "_nocpu")
       << "_g" << info.param.use_gpus;
  return name.str();
}

pattern::EnvOptions make_options(const Config& config,
                                 const std::string& profile) {
  pattern::EnvOptions options;
  options.app_profile = profile;
  options.use_cpu = config.use_cpu;
  options.use_gpus = config.use_gpus;
  return options;
}

const auto kConfigs = ::testing::Values(
    Config{1, true, 0}, Config{1, false, 2}, Config{2, true, 1},
    Config{4, true, 0}, Config{4, true, 2}, Config{3, false, 1});

// --- Kmeans -------------------------------------------------------------------

class KmeansConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(KmeansConfigs, CentersMatchSequential) {
  kmeans::Params params;
  params.num_points = 6000;
  params.num_clusters = 12;
  params.iterations = 3;
  const auto points = kmeans::generate_points(params);
  const auto reference = kmeans::run_sequential(params, points);

  const Config config = GetParam();
  minimpi::World world(config.ranks);
  std::vector<kmeans::Result> results(
      static_cast<std::size_t>(config.ranks));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] = kmeans::run_framework(
        comm, make_options(config, "kmeans"), params, points);
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.centers.size(), reference.centers.size());
    for (std::size_t i = 0; i < result.centers.size(); ++i) {
      EXPECT_NEAR(result.centers[i], reference.centers[i], 1e-6)
          << "center component " << i;
    }
    EXPECT_GT(result.vtime, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, KmeansConfigs, kConfigs, config_name);

// --- Moldyn -------------------------------------------------------------------

class MoldynConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(MoldynConfigs, PhysicsMatchesSequential) {
  moldyn::Params params;
  params.num_nodes = 600;
  params.num_edges = 5000;
  params.iterations = 5;
  const auto edges = moldyn::generate_edges(params);

  auto reference_molecules = moldyn::generate_molecules(params);
  const auto reference =
      moldyn::run_sequential(params, reference_molecules, edges);

  const Config config = GetParam();
  minimpi::World world(config.ranks);
  auto molecules = moldyn::generate_molecules(params);
  std::vector<moldyn::Result> results(
      static_cast<std::size_t>(config.ranks));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] = moldyn::run_framework(
        comm, make_options(config, "moldyn"), params, molecules, edges);
  });
  for (const auto& result : results) {
    EXPECT_NEAR(result.kinetic_energy, reference.kinetic_energy,
                1e-7 * std::abs(reference.kinetic_energy));
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(result.avg_velocity[d], reference.avg_velocity[d], 1e-9);
    }
    EXPECT_NEAR(result.position_checksum, reference.position_checksum,
                1e-6 * std::abs(reference.position_checksum));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, MoldynConfigs, kConfigs, config_name);

// --- MiniMD -------------------------------------------------------------------

class MinimdConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(MinimdConfigs, PhysicsMatchesSequentialWithRebuilds) {
  minimd::Params params;
  params.num_atoms = 512;
  params.iterations = 8;
  params.rebuild_every = 3;  // forces two mid-run reset_edges
  auto reference_atoms = minimd::generate_atoms(params);
  const auto reference = minimd::run_sequential(params, reference_atoms);

  const Config config = GetParam();
  minimpi::World world(config.ranks);
  auto atoms = minimd::generate_atoms(params);
  std::vector<minimd::Result> results(
      static_cast<std::size_t>(config.ranks));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] = minimd::run_framework(
        comm, make_options(config, "minimd"), params, atoms);
  });
  for (const auto& result : results) {
    EXPECT_EQ(result.last_edge_count, reference.last_edge_count);
    EXPECT_NEAR(result.kinetic_energy, reference.kinetic_energy,
                1e-6 * std::abs(reference.kinetic_energy) + 1e-9);
    EXPECT_NEAR(result.temperature, reference.temperature, 1e-9);
    EXPECT_NEAR(result.position_checksum, reference.position_checksum,
                1e-6 * std::abs(reference.position_checksum));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, MinimdConfigs, kConfigs, config_name);

// --- Sobel --------------------------------------------------------------------

class SobelConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(SobelConfigs, ImageMatchesSequential) {
  sobel::Params params;
  params.height = 48;
  params.width = 64;
  params.iterations = 4;
  const auto image = sobel::generate_image(params);
  const auto reference = sobel::run_sequential(params, image);

  const Config config = GetParam();
  minimpi::World world(config.ranks);
  std::vector<sobel::Result> results(
      static_cast<std::size_t>(config.ranks));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] = sobel::run_framework(
        comm, make_options(config, "sobel"), params, image);
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.image.size(), reference.image.size());
    for (std::size_t i = 0; i < result.image.size(); ++i) {
      ASSERT_NEAR(result.image[i], reference.image[i], 1e-4)
          << "pixel " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, SobelConfigs, kConfigs, config_name);

// --- Heat3D -------------------------------------------------------------------

class Heat3dConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(Heat3dConfigs, FieldMatchesSequential) {
  heat3d::Params params;
  params.nx = 16;
  params.ny = 12;
  params.nz = 20;
  params.iterations = 5;
  const auto field = heat3d::generate_field(params);
  const auto reference = heat3d::run_sequential(params, field);

  const Config config = GetParam();
  minimpi::World world(config.ranks);
  std::vector<heat3d::Result> results(
      static_cast<std::size_t>(config.ranks));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] = heat3d::run_framework(
        comm, make_options(config, "heat3d"), params, field);
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.field.size(), reference.field.size());
    for (std::size_t i = 0; i < result.field.size(); ++i) {
      ASSERT_NEAR(result.field[i], reference.field[i], 1e-10)
          << "cell " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, Heat3dConfigs, kConfigs, config_name);

// --- physics sanity (single config) --------------------------------------------

TEST(Moldyn, EnergyIsFiniteAndPositive) {
  moldyn::Params params;
  params.num_nodes = 200;
  params.num_edges = 1000;
  params.iterations = 3;
  auto molecules = moldyn::generate_molecules(params);
  const auto edges = moldyn::generate_edges(params);
  const auto result = moldyn::run_sequential(params, molecules, edges);
  EXPECT_TRUE(std::isfinite(result.kinetic_energy));
  EXPECT_GT(result.kinetic_energy, 0.0);
}

TEST(Minimd, NeighborListIsSymmetricAndBounded) {
  minimd::Params params;
  params.num_atoms = 343;
  const auto atoms = minimd::generate_atoms(params);
  const auto edges = minimd::build_neighbor_list(params, atoms);
  EXPECT_GT(edges.size(), atoms.size());  // dense enough to interact
  const double reach2 = (params.cutoff + params.skin) *
                        (params.cutoff + params.skin);
  for (const auto& edge : edges) {
    EXPECT_LT(edge.u, edge.v);  // each pair once
    double r2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double delta = atoms[edge.u].pos[d] - atoms[edge.v].pos[d];
      r2 += delta * delta;
    }
    EXPECT_LT(r2, reach2 + 1e-9);
  }
}

TEST(Kmeans, GeneratorIsDeterministic) {
  kmeans::Params params;
  params.num_points = 100;
  const auto a = kmeans::generate_points(params);
  const auto b = kmeans::generate_points(params);
  EXPECT_EQ(a, b);
}

TEST(Heat3d, DiffusionConservesInteriorHeatApproximately) {
  // With fixed borders and small alpha, total heat changes slowly.
  heat3d::Params params;
  params.nx = params.ny = params.nz = 12;
  params.iterations = 2;
  const auto field = heat3d::generate_field(params);
  const auto result = heat3d::run_sequential(params, field);
  double before = 0.0;
  double after = 0.0;
  for (double v : field) before += v;
  for (double v : result.field) after += v;
  EXPECT_NEAR(after, before, 0.2 * before + 1.0);
}

}  // namespace
}  // namespace psf::apps

#include "apps/pagerank.h"

namespace psf::apps {
namespace {

class PagerankConfigs : public ::testing::TestWithParam<Config> {};

TEST_P(PagerankConfigs, RanksMatchSequential) {
  pagerank::Params params;
  params.num_pages = 500;
  params.num_links = 4000;
  params.iterations = 6;
  const auto links = pagerank::generate_links(params);
  auto reference_pages = pagerank::initial_pages(params, links);
  const auto reference =
      pagerank::run_sequential(params, reference_pages, links);

  const Config config = GetParam();
  minimpi::World world(config.ranks);
  auto pages = pagerank::initial_pages(params, links);
  std::vector<pagerank::Result> results(
      static_cast<std::size_t>(config.ranks));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] = pagerank::run_framework(
        comm, make_options(config, "moldyn"), params, pages, links);
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.ranks.size(), reference.ranks.size());
    for (std::size_t p = 0; p < result.ranks.size(); ++p) {
      ASSERT_NEAR(result.ranks[p], reference.ranks[p], 1e-12)
          << "page " << p;
    }
    EXPECT_NEAR(result.rank_sum, reference.rank_sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, PagerankConfigs, kConfigs, config_name);

TEST(Pagerank, RankMassStaysBounded) {
  pagerank::Params params;
  params.num_pages = 300;
  params.num_links = 2500;
  params.iterations = 20;
  const auto links = pagerank::generate_links(params);
  auto pages = pagerank::initial_pages(params, links);
  const auto result = pagerank::run_sequential(params, pages, links);
  // With dangling pages some mass leaks; bounded in (0, 1].
  EXPECT_GT(result.rank_sum, 0.1);
  EXPECT_LE(result.rank_sum, 1.0 + 1e-9);
  for (double rank : result.ranks) EXPECT_GT(rank, 0.0);
}

TEST(Pagerank, PopularPagesRankHigher) {
  pagerank::Params params;
  params.num_pages = 400;
  params.num_links = 6000;
  params.iterations = 15;
  const auto links = pagerank::generate_links(params);
  auto pages = pagerank::initial_pages(params, links);
  const auto result = pagerank::run_sequential(params, pages, links);
  // The generator skews in-links toward low page ids; the average rank of
  // the first decile must beat the last decile.
  double head = 0.0;
  double tail = 0.0;
  const std::size_t decile = params.num_pages / 10;
  for (std::size_t p = 0; p < decile; ++p) head += result.ranks[p];
  for (std::size_t p = params.num_pages - decile; p < params.num_pages; ++p) {
    tail += result.ranks[p];
  }
  EXPECT_GT(head, 2.0 * tail);
}

}  // namespace
}  // namespace psf::apps
