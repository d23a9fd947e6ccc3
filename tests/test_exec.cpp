// PSF — tests for the psf::exec intra-node execution engine: thread-pool
// lifecycle, work-stealing parallel_for (exact-once execution, exception
// contract, nesting), the Latch, the PSF_THREADS sizing knob, the
// EnvOptions validation Statuses, and the determinism guarantee (pattern
// results bit-identical for every num_threads).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/heat3d.h"
#include "apps/kmeans.h"
#include "exec/latch.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "pattern/runtime_env.h"

namespace psf::exec {
namespace {

/// Scoped PSF_THREADS override (the env knob trumps EnvOptions, so tests
/// must control it explicitly).
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("PSF_THREADS");
    if (old != nullptr) saved_ = old;
    had_saved_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("PSF_THREADS", value, 1);
    } else {
      ::unsetenv("PSF_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (had_saved_) {
      ::setenv("PSF_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("PSF_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_saved_ = false;
};

TEST(ThreadPool, RunsSubmittedTasksAndShutsDownCleanly) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_TRUE(pool.concurrent());
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
    }
    for (auto& future : futures) future.get();
    EXPECT_EQ(ran.load(), 20);
  }  // destructor joins; queued work must not be lost
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughTheFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, ZeroWorkerPoolRunsInlineInSubmissionOrder) {
  ThreadPool pool(0);
  EXPECT_FALSE(pool.concurrent());
  std::vector<int> order;
  pool.submit([&] { order.push_back(1); }).get();
  pool.submit([&] { order.push_back(2); }).get();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  // Sweep counts around the participant boundaries (one index total, fewer
  // than participants, many more) — the claim/steal accounting must be
  // exact for all of them.
  for (std::size_t count : {1u, 2u, 4u, 5u, 6u, 56u, 257u}) {
    for (int round = 0; round < 50; ++round) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(pool, count,
                   [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
      }
    }
  }
}

TEST(ParallelFor, LastRemainingIndexIsStolenNotDuplicated) {
  // Regression: stealing from a victim with exactly one index left must
  // hand the thief that index (not an empty range whose bound it then
  // claims as a bogus index — which double-ran a neighbour's index and
  // wrapped the completion counter).
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    constexpr std::size_t kCount = 10;  // two indices per participant
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(pool, kCount, [&](std::size_t i) {
      // Uneven work so thieves hit nearly-empty victims often.
      if (i % 5 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ParallelFor, ZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, ZeroWorkerPoolRunsAscendingSerially) {
  ThreadPool pool(0);
  std::vector<std::size_t> order;
  parallel_for(pool, 8, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, StealsFromASleepingParticipant) {
  // Participant 0 (the caller) claims index 0 and sleeps; the rest of its
  // initial range must be stolen and finished by the workers while it
  // sleeps, and on other threads.
  ThreadPool pool(3);
  constexpr std::size_t kCount = 16;
  std::array<std::chrono::steady_clock::time_point, kCount> finished_at;
  std::array<std::thread::id, kCount> ran_on;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(pool, kCount, [&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(250));
    hits[i].fetch_add(1);
    ran_on[i] = std::this_thread::get_id();
    finished_at[i] = std::chrono::steady_clock::now();
  });
  std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
  EXPECT_GT(distinct.size(), 1u) << "no stealing happened";
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    // Everything else completed while index 0 was still asleep.
    if (i != 0) {
      EXPECT_LT(finished_at[i], finished_at[0]) << "index " << i;
    }
  }
}

TEST(ParallelFor, PropagatesTheFirstBodyExceptionAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [&](std::size_t i) {
                     if (i == 7) throw std::runtime_error("body boom");
                   }),
      std::runtime_error);
  // The pool survives: a subsequent loop runs to completion.
  std::atomic<int> ran{0};
  parallel_for(pool, 32, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  // An inner parallel_for waits by HELPING the pool, so nesting must work
  // even when every worker is itself inside an outer iteration.
  for (std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<int> ran{0};
    parallel_for(pool, 4, [&](std::size_t) {
      parallel_for(pool, 4, [&](std::size_t) { ran.fetch_add(1); });
    });
    EXPECT_EQ(ran.load(), 16) << workers << " workers";
  }
}

TEST(Latch, CountsDownAndReleasesWaiters) {
  Latch latch(2);
  EXPECT_FALSE(latch.try_wait());
  latch.count_down();
  EXPECT_FALSE(latch.try_wait());
  latch.count_down();
  EXPECT_TRUE(latch.try_wait());
  latch.wait();  // returns immediately at zero
}

TEST(Latch, WaitBlocksUntilAnotherThreadArrives) {
  Latch latch(1);
  ThreadPool pool(1);
  auto future = pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    latch.count_down();
  });
  latch.wait();
  EXPECT_TRUE(latch.try_wait());
  future.get();
}

TEST(ResolveWorkers, FollowsRequestAndSubtractsTheCaller) {
  ScopedThreadsEnv env(nullptr);
  EXPECT_EQ(ThreadPool::resolve_workers(1), 0u);  // serial mode
  EXPECT_EQ(ThreadPool::resolve_workers(3), 2u);
  EXPECT_EQ(ThreadPool::resolve_workers(8), 7u);
  // 0 = auto: hardware_concurrency participants, at least the caller.
  const std::size_t auto_workers = ThreadPool::resolve_workers(0);
  EXPECT_GE(auto_workers + 1,
            static_cast<std::size_t>(
                std::max(1u, std::thread::hardware_concurrency())));
}

TEST(ResolveWorkers, PsfThreadsEnvOverridesTheRequest) {
  ScopedThreadsEnv env("5");
  EXPECT_EQ(ThreadPool::resolve_workers(0), 4u);
  EXPECT_EQ(ThreadPool::resolve_workers(2), 4u);
  ScopedThreadsEnv garbage("not-a-number");
  EXPECT_EQ(ThreadPool::resolve_workers(3), 2u);  // ignored, request wins
}

}  // namespace
}  // namespace psf::exec

namespace psf::pattern {
namespace {

TEST(EnvValidation, RejectsConfigurationsWithActionableStatuses) {
  minimpi::World world(1);
  world.run([&](minimpi::Communicator& comm) {
    {
      RuntimeEnv env(comm, EnvOptions{}.with_cpu(false));
      const auto status = env.init();
      ASSERT_FALSE(status.is_ok());
      EXPECT_EQ(status.code(), support::ErrorCode::kInvalidArgument);
      EXPECT_NE(status.message().find("device"), std::string::npos);
    }
    {
      RuntimeEnv env(comm, EnvOptions{}.with_threads(-2));
      const auto status = env.init();
      ASSERT_FALSE(status.is_ok());
      EXPECT_EQ(status.code(), support::ErrorCode::kInvalidArgument);
      EXPECT_NE(status.message().find("num_threads"), std::string::npos);
    }
    {
      RuntimeEnv env(comm, EnvOptions{}.with_workload_scale(0.25));
      const auto status = env.init();
      ASSERT_FALSE(status.is_ok());
      EXPECT_EQ(status.code(), support::ErrorCode::kInvalidArgument);
      EXPECT_NE(status.message().find("workload_scale"), std::string::npos);
    }
    {
      RuntimeEnv env(comm, EnvOptions{}.with_gpus(64));
      const auto status = env.init();
      ASSERT_FALSE(status.is_ok());
      EXPECT_EQ(status.code(), support::ErrorCode::kInvalidArgument);
      EXPECT_NE(status.message().find("GPUs"), std::string::npos);
    }
  });
}

TEST(EnvValidation, FluentAndAggregateInitAgree) {
  const auto fluent = EnvOptions{}
                          .with_profile("heat3d")
                          .with_gpus(2)
                          .with_threads(4)
                          .with_overlap()
                          .with_workload_scale(10.0);
  EnvOptions aggregate;
  aggregate.app_profile = "heat3d";
  aggregate.use_gpus = 2;
  aggregate.num_threads = 4;
  aggregate.overlap = true;
  aggregate.workload_scale = 10.0;
  EXPECT_EQ(fluent.app_profile, aggregate.app_profile);
  EXPECT_EQ(fluent.use_gpus, aggregate.use_gpus);
  EXPECT_EQ(fluent.num_threads, aggregate.num_threads);
  EXPECT_EQ(fluent.overlap, aggregate.overlap);
  EXPECT_EQ(fluent.workload_scale, aggregate.workload_scale);
}

TEST(TryRun, MapsRankExceptionsToStatus) {
  minimpi::World world(2);
  const auto ok = world.try_run([](minimpi::Communicator&) {});
  EXPECT_TRUE(ok.is_ok());

  const auto failed = world.try_run([](minimpi::Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 exploded");
  });
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.code(), support::ErrorCode::kInternal);
  EXPECT_NE(failed.message().find("rank 1 exploded"), std::string::npos);
}

}  // namespace
}  // namespace psf::pattern

namespace psf::apps {
namespace {

/// The executor determinism guarantee: for ANY thread count the pattern
/// runtimes produce bit-identical results and virtual times, because
/// functional work is staged per block and merged in block order while
/// pricing stays on the controlling thread (docs/EXECUTOR.md).
class ThreadCountDeterminism : public ::testing::Test {
 protected:
  exec::ScopedThreadsEnv env_{nullptr};  // the knob must not interfere
};

TEST_F(ThreadCountDeterminism, KmeansResultsAreBitIdentical) {
  kmeans::Params params;
  params.num_points = 6000;
  params.num_clusters = 12;
  params.iterations = 2;
  const auto points = kmeans::generate_points(params);

  auto run_with_threads = [&](int num_threads) {
    minimpi::World world(2);
    kmeans::Result result;
    std::vector<double> vtimes(2, 0.0);
    world.run([&](minimpi::Communicator& comm) {
      const auto options = pattern::EnvOptions{}
                               .with_profile("kmeans")
                               .with_gpus(2)
                               .with_workload_scale(100.0)
                               .with_threads(num_threads);
      auto local = kmeans::run_framework(comm, options, params, points);
      vtimes[static_cast<std::size_t>(comm.rank())] = local.vtime;
      if (comm.rank() == 0) result = std::move(local);
    });
    return std::pair{result, vtimes};
  };

  const auto [serial, serial_vtimes] = run_with_threads(1);
  for (int num_threads : {2, 7}) {
    const auto [parallel, vtimes] = run_with_threads(num_threads);
    for (int r = 0; r < 2; ++r) {
      EXPECT_DOUBLE_EQ(vtimes[static_cast<std::size_t>(r)],
                       serial_vtimes[static_cast<std::size_t>(r)])
          << num_threads << " threads, rank " << r;
    }
    ASSERT_EQ(parallel.centers.size(), serial.centers.size());
    for (std::size_t i = 0; i < serial.centers.size(); ++i) {
      ASSERT_EQ(parallel.centers[i], serial.centers[i])
          << num_threads << " threads, center " << i;  // bit-identical
    }
  }
}

TEST_F(ThreadCountDeterminism, Heat3dResultsAreBitIdentical) {
  heat3d::Params params;
  params.nx = params.ny = params.nz = 12;
  params.iterations = 3;
  const auto field = heat3d::generate_field(params);

  auto run_with_threads = [&](int num_threads) {
    minimpi::World world(2);
    heat3d::Result result;
    world.run([&](minimpi::Communicator& comm) {
      const auto options = pattern::EnvOptions{}
                               .with_profile("heat3d")
                               .with_gpus(2)
                               .with_overlap()
                               .with_workload_scale(100.0)
                               .with_threads(num_threads);
      auto local = heat3d::run_framework(comm, options, params, field);
      if (comm.rank() == 0) result = std::move(local);
    });
    return result;
  };

  const auto serial = run_with_threads(1);
  for (int num_threads : {2, 7}) {
    const auto parallel = run_with_threads(num_threads);
    EXPECT_DOUBLE_EQ(parallel.vtime, serial.vtime) << num_threads;
    ASSERT_EQ(parallel.field.size(), serial.field.size());
    for (std::size_t i = 0; i < serial.field.size(); ++i) {
      ASSERT_EQ(parallel.field[i], serial.field[i])
          << num_threads << " threads, cell " << i;  // bit-identical
    }
  }
}

}  // namespace
}  // namespace psf::apps
