// PSF — tests for the generalized reduction runtime: partitioning across
// ranks and devices, reduction localization, global tree combination,
// runtime reuse and configuration errors.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "pattern/api.h"

namespace psf::pattern {
namespace {

// Histogram workload: input units are uint32 values in [0, kBuckets);
// emit(key=value, 1) and sum. Ground truth is trivially computable.
constexpr std::size_t kBuckets = 16;

using HistGR = TypedGReduce<std::uint32_t, double>;

constexpr auto hist_emit = [](TypedObject<double>& obj,
                              const std::uint32_t& value,
                              std::size_t /*index*/,
                              const void* /*parameter*/) {
  obj.insert(value, 1.0);
};

constexpr auto sum_reduce = [](double& dst, const double& src) { dst += src; };

// Index-sum workload: emit(key=0, index) — verifies the runtime passes
// global unit indices, covering the whole range exactly once.
constexpr auto index_emit = [](TypedObject<double>& obj,
                               const std::uint32_t& /*unit*/,
                               std::size_t index, const void* /*parameter*/) {
  obj.insert(0, static_cast<double>(index));
};

/// A histogram reduction over `data` with a `capacity`-key object.
void configure_histogram(HistGR& gr, std::span<const std::uint32_t> data,
                         std::size_t capacity) {
  gr.set_emit(hist_emit);
  gr.set_reduce(sum_reduce);
  gr.set_input(data);
  gr.configure(capacity);
}

std::vector<std::uint32_t> histogram_input(std::size_t n) {
  std::vector<std::uint32_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint32_t>((i * 7 + 3) % kBuckets);
  }
  return data;
}

std::vector<double> expected_histogram(std::span<const std::uint32_t> data) {
  std::vector<double> expected(kBuckets, 0.0);
  for (auto value : data) expected[value] += 1.0;
  return expected;
}

EnvOptions cpu_only_options() {
  EnvOptions options;
  options.app_profile = "kmeans";
  options.use_cpu = true;
  options.use_gpus = 0;
  return options;
}

void check_global_histogram(minimpi::Communicator& comm,
                            const EnvOptions& options,
                            std::span<const std::uint32_t> data) {
  RuntimeEnv env(comm, options);
  HistGR gr(env);
  configure_histogram(gr, data, kBuckets * 2);
  ASSERT_TRUE(gr.start().is_ok());
  const auto expected = expected_histogram(data);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    double out = 0.0;
    if (expected[b] > 0) {
      ASSERT_TRUE(gr.lookup_global(b, &out)) << "bucket " << b;
      EXPECT_DOUBLE_EQ(out, expected[b]) << "bucket " << b;
    }
  }
}

class GReductionRanks : public ::testing::TestWithParam<int> {};

TEST_P(GReductionRanks, GlobalHistogramMatchesEveryRankCount) {
  const int ranks = GetParam();
  minimpi::World world(ranks);
  const auto data = histogram_input(10007);  // prime: uneven partitions
  world.run([&](minimpi::Communicator& comm) {
    check_global_histogram(comm, cpu_only_options(), data);
  });
}

INSTANTIATE_TEST_SUITE_P(RankSweep, GReductionRanks,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

class GReductionDevices
    : public ::testing::TestWithParam<std::pair<bool, int>> {};

TEST_P(GReductionDevices, GlobalHistogramWithDeviceMixes) {
  auto [use_cpu, use_gpus] = GetParam();
  minimpi::World world(2);
  const auto data = histogram_input(5000);
  EnvOptions options = cpu_only_options();
  options.use_cpu = use_cpu;
  options.use_gpus = use_gpus;
  world.run([&](minimpi::Communicator& comm) {
    check_global_histogram(comm, options, data);
  });
}

INSTANTIATE_TEST_SUITE_P(
    DeviceSweep, GReductionDevices,
    ::testing::Values(std::pair{true, 0}, std::pair{false, 1},
                      std::pair{true, 1}, std::pair{true, 2},
                      std::pair{false, 2}));

TEST(GReduction, IndexParameterCoversGlobalRange) {
  // Sum of all global indices must be n(n-1)/2 regardless of partitioning.
  constexpr std::size_t kN = 4321;
  minimpi::World world(3);
  const std::vector<std::uint32_t> data(kN, 0);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    HistGR gr(env);
    gr.set_emit(index_emit);
    gr.set_reduce(sum_reduce);
    gr.set_input(data);
    gr.configure(4);
    ASSERT_TRUE(gr.start().is_ok());
    double sum = 0.0;
    ASSERT_TRUE(gr.lookup_global(0, &sum));
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(kN) * (kN - 1) / 2.0);
  });
}

TEST(GReduction, LocalReductionOnlyCoversOwnPartition) {
  constexpr std::size_t kN = 1000;
  minimpi::World world(4);
  const std::vector<std::uint32_t> data(kN, 1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    HistGR gr(env);
    configure_histogram(gr, data, kBuckets);
    ASSERT_TRUE(gr.start().is_ok());
    double local = 0.0;
    ASSERT_TRUE(gr.lookup_local(1, &local));
    EXPECT_DOUBLE_EQ(local, 250.0);  // kN / 4 ranks
    comm.barrier();  // keep mailbox empty checks deterministic
  });
}

TEST(GReduction, RuntimeReuseAcrossKernels) {
  // Same runtime instance reconfigured for a second kernel (paper II-B).
  minimpi::World world(2);
  const auto data = histogram_input(2048);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    HistGR gr(env);
    configure_histogram(gr, data, kBuckets);
    ASSERT_TRUE(gr.run(1).is_ok());  // local pass + global combine

    // Second kernel: index sum with a single key.
    gr.set_emit(index_emit);
    gr.configure(4);
    ASSERT_TRUE(gr.start().is_ok());
    double sum = 0.0;
    ASSERT_TRUE(gr.lookup_global(0, &sum));
    EXPECT_DOUBLE_EQ(sum, 2048.0 * 2047.0 / 2.0);
  });
}

TEST(GReduction, StartWithoutConfigurationFails) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    HistGR gr(env);
    const auto status = gr.start();
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), support::ErrorCode::kFailedPrecondition);
  });
}

TEST(GReduction, StatsReflectExecution) {
  minimpi::World world(1);
  const auto data = histogram_input(10000);
  world.run([&](minimpi::Communicator& comm) {
    EnvOptions options = cpu_only_options();
    options.use_gpus = 2;
    // Price the run at paper scale so per-chunk GPU overheads do not
    // dominate the tiny functional input.
    options.workload_scale = 20000.0;
    RuntimeEnv env(comm, options);
    HistGR gr(env);
    configure_histogram(gr, data, kBuckets);
    ASSERT_TRUE(gr.start().is_ok());
    const auto& stats = gr.raw().stats();
    ASSERT_EQ(stats.device_units.size(), 3u);  // CPU + 2 GPUs
    EXPECT_EQ(std::accumulate(stats.device_units.begin(),
                              stats.device_units.end(), std::size_t{0}),
              data.size());
    EXPECT_GT(stats.num_chunks, 1u);
    EXPECT_GT(stats.local_makespan, 0.0);
    EXPECT_TRUE(stats.used_shared_memory);  // 16 buckets fit easily
    // Dynamic scheduling gives the faster GPUs more work than the CPU.
    EXPECT_GT(stats.device_units[1], stats.device_units[0]);
  });
}

TEST(GReduction, SharedMemoryLocalizationCanBeDisabled) {
  minimpi::World world(1);
  const auto data = histogram_input(4000);
  world.run([&](minimpi::Communicator& comm) {
    EnvOptions options = cpu_only_options();
    options.reduction_localization = false;
    RuntimeEnv env(comm, options);
    HistGR gr(env);
    configure_histogram(gr, data, kBuckets);
    ASSERT_TRUE(gr.start().is_ok());
    EXPECT_FALSE(gr.raw().stats().used_shared_memory);
    check_global_histogram(comm, options, data);
  });
}

TEST(GReduction, LargeObjectFallsBackToDeviceMemory) {
  minimpi::World world(1);
  const auto data = histogram_input(3000);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    HistGR gr(env);
    // 1M slots x 8 bytes >> any shared-memory arena.
    configure_histogram(gr, data, 1 << 20);
    ASSERT_TRUE(gr.start().is_ok());
    EXPECT_FALSE(gr.raw().stats().used_shared_memory);
    double out = 0.0;
    ASSERT_TRUE(gr.lookup_global(3, &out));
    EXPECT_GT(out, 0.0);
  });
}

TEST(GReduction, VirtualTimeScalesWithWork) {
  const auto small = histogram_input(2000);
  const auto large = histogram_input(20000);
  double small_time = 0.0;
  double large_time = 0.0;
  for (auto* data : {&small, &large}) {
    minimpi::World world(1);
    world.run([&](minimpi::Communicator& comm) {
      EnvOptions options = cpu_only_options();
      options.workload_scale = 1000.0;  // make overheads negligible
      RuntimeEnv env(comm, options);
      HistGR gr(env);
      configure_histogram(gr, *data, kBuckets);
      ASSERT_TRUE(gr.start().is_ok());
    });
    (data == &small ? small_time : large_time) = world.makespan();
  }
  EXPECT_NEAR(large_time / small_time, 10.0, 2.0);
}

TEST(GReduction, WorkloadScaleMultipliesVirtualTime) {
  const auto data = histogram_input(4000);
  double base_time = 0.0;
  double scaled_time = 0.0;
  for (double scale : {1.0, 16.0}) {
    minimpi::World world(1);
    world.run([&](minimpi::Communicator& comm) {
      EnvOptions options = cpu_only_options();
      options.workload_scale = scale;
      RuntimeEnv env(comm, options);
      HistGR gr(env);
      configure_histogram(gr, data, kBuckets);
      ASSERT_TRUE(gr.start().is_ok());
    });
    (scale == 1.0 ? base_time : scaled_time) = world.makespan();
  }
  // Compute scales by 16x; fixed overheads (chunk locks, launches) do not.
  EXPECT_GT(scaled_time / base_time, 8.0);
  EXPECT_LT(scaled_time / base_time, 16.5);
}

}  // namespace
}  // namespace psf::pattern

namespace psf::pattern {
namespace {

TEST(GReduction, LocalizationImprovesVirtualTime) {
  // Small key set (high contention): disabling localization must cost
  // virtual time while producing identical results.
  const auto data = histogram_input(8000);
  double with = 0.0;
  double without = 0.0;
  for (bool localization : {true, false}) {
    minimpi::World world(1);
    world.run([&](minimpi::Communicator& comm) {
      EnvOptions options = cpu_only_options();
      options.use_gpus = 2;
      options.reduction_localization = localization;
      options.workload_scale = 5000.0;
      RuntimeEnv env(comm, options);
      HistGR gr(env);
      configure_histogram(gr, data, kBuckets);
      ASSERT_TRUE(gr.start().is_ok());
      double out = 0.0;
      ASSERT_TRUE(gr.lookup_global(3, &out));
      EXPECT_GT(out, 0.0);
    });
    (localization ? with : without) = world.makespan();
  }
  EXPECT_LT(with, without);
  EXPECT_GT(without / with, 1.3);  // contention penalty is substantial
}

}  // namespace
}  // namespace psf::pattern

namespace psf::pattern {
namespace {

// Emit functions may produce zero or many pairs per unit.
constexpr auto multi_emit = [](TypedObject<double>& obj,
                               const std::uint32_t& value, std::size_t /*i*/,
                               const void* /*parameter*/) {
  if (value % 2 == 0) return;             // evens emit nothing
  obj.insert(value % kBuckets, 1.0);      // odds emit twice
  obj.insert((value + 1) % kBuckets, 1.0);
};

TEST(GReduction, ZeroAndMultipleEmitsPerUnit) {
  constexpr std::size_t kN = 3000;
  std::vector<std::uint32_t> data(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    data[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<double> expected(kBuckets, 0.0);
  for (auto value : data) {
    if (value % 2 == 0) continue;
    expected[value % kBuckets] += 1.0;
    expected[(value + 1) % kBuckets] += 1.0;
  }
  minimpi::World world(3);
  world.run([&](minimpi::Communicator& comm) {
    RuntimeEnv env(comm, cpu_only_options());
    HistGR gr(env);
    gr.set_emit(multi_emit);
    gr.set_reduce(sum_reduce);
    gr.set_input(data);
    gr.configure(kBuckets * 2);
    ASSERT_TRUE(gr.start().is_ok());
    for (std::size_t b = 0; b < kBuckets; ++b) {
      double out = 0.0;
      if (expected[b] > 0) {
        ASSERT_TRUE(gr.lookup_global(b, &out));
        EXPECT_DOUBLE_EQ(out, expected[b]);
      }
    }
  });
}

}  // namespace
}  // namespace psf::pattern

namespace psf::pattern {
namespace {

TEST(GReduction, ExplicitSubObjectCountsProduceSameResult) {
  const auto data = histogram_input(4000);
  const auto expected = expected_histogram(data);
  for (int objects : {1, 2, 4, 8}) {
    minimpi::World world(1);
    world.run([&](minimpi::Communicator& comm) {
      EnvOptions options = cpu_only_options();
      options.use_gpus = 1;
      RuntimeEnv env(comm, options);
      HistGR gr(env);
      configure_histogram(gr, data, kBuckets);
      gr.raw().set_objects_per_block(objects);
      ASSERT_TRUE(gr.start().is_ok());
      EXPECT_TRUE(gr.raw().stats().used_shared_memory);
      for (std::size_t b = 0; b < kBuckets; ++b) {
        double out = 0.0;
        if (expected[b] > 0) {
          ASSERT_TRUE(gr.lookup_global(b, &out)) << "objects " << objects;
          EXPECT_DOUBLE_EQ(out, expected[b]);
        }
      }
    });
  }
}

}  // namespace
}  // namespace psf::pattern
