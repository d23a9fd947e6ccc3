// PSF — tests for the deterministic serving chaos harness: the fault-plan
// grammar extensions (job_fail / runner_stall / submit_burst), the
// seed-keyed injection streams, and their interaction with retry. Suites
// are named Chaos* so scripts/check.sh picks them up for the TSan pass.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "serve/serve.h"

namespace psf::serve {
namespace {

JobFn trivial_job(double vtime = 1.0) {
  return [vtime](JobContext&) -> support::StatusOr<double> { return vtime; };
}

RetryPolicy generous_retry(int max_attempts = 3) {
  return RetryPolicy{}
      .with_max_attempts(max_attempts)
      .with_base_backoff_ms(1.0)
      .with_budget_ratio(5.0);
}

TEST(ChaosPlan, ParsesServerClauses) {
  auto plan = fault::FaultPlan::parse(
      "job_fail:p=0.25,seed=7;runner_stall:ms=5,p=0.5,seed=11;"
      "submit_burst:every=10,count=4,priority=-2");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const fault::FaultPlan& parsed = plan.value();
  EXPECT_FALSE(parsed.empty());
  EXPECT_TRUE(parsed.has_server_chaos());
  // Each spec is copied out once after its null check: comparing fields
  // read through the getter again made g++ 12 warn -Wnull-dereference.
  ASSERT_NE(parsed.job_fail(), nullptr);
  const fault::JobFailSpec job_fail = *parsed.job_fail();
  EXPECT_DOUBLE_EQ(job_fail.p, 0.25);
  EXPECT_EQ(job_fail.seed, 7u);
  ASSERT_NE(parsed.runner_stall(), nullptr);
  const fault::RunnerStallSpec runner_stall = *parsed.runner_stall();
  EXPECT_EQ(runner_stall.ms, 5);
  EXPECT_DOUBLE_EQ(runner_stall.p, 0.5);
  EXPECT_EQ(runner_stall.seed, 11u);
  ASSERT_NE(parsed.submit_burst(), nullptr);
  const fault::SubmitBurstSpec submit_burst = *parsed.submit_burst();
  EXPECT_EQ(submit_burst.every, 10);
  EXPECT_EQ(submit_burst.count, 4);
  EXPECT_EQ(submit_burst.priority, -2);

  // submit_burst alone is client-side noise, not server chaos.
  auto burst_only = fault::FaultPlan::parse("submit_burst:every=3,count=2");
  ASSERT_TRUE(burst_only.is_ok());
  EXPECT_FALSE(burst_only.value().has_server_chaos());
  EXPECT_FALSE(burst_only.value().empty());
}

TEST(ChaosPlan, RejectsMalformed) {
  // job_fail probability must be in [0, 1): p=1 would fail every attempt
  // of every job forever.
  EXPECT_FALSE(fault::FaultPlan::parse("job_fail:p=1").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("job_fail:p=-0.1").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("job_fail:seed=3").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("runner_stall:ms=0").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("runner_stall:ms=5,p=1.5").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("submit_burst:every=0,count=1").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("submit_burst:every=2").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("job_fail:p=0.1,bogus=2").is_ok());
  EXPECT_FALSE(
      fault::FaultPlan::parse("job_fail:p=0.1;job_fail:p=0.2").is_ok());
}

/// Runs `jobs` trivial jobs (with retry) under `plan` and returns the
/// global fault-log snapshot of the injected events.
std::map<int, std::vector<std::string>> chaos_run(const std::string& plan,
                                                  int executor_threads,
                                                  int jobs) {
  fault::FaultLog::global().reset();
  Server server(ServerOptions{}
                    .with_workers(2)
                    .with_executor_threads(executor_threads)
                    .with_chaos_plan(plan));
  std::vector<JobHandle> handles;
  for (int i = 0; i < jobs; ++i) {
    auto handle = server.submit(JobSpec{}
                                    .with_name("job-" + std::to_string(i))
                                    .with_retry(generous_retry())
                                    .with_fn(trivial_job()));
    EXPECT_TRUE(handle.is_ok());
    if (handle.is_ok()) handles.push_back(handle.value());
  }
  server.drain();
  for (const auto& handle : handles) handle.wait();
  server.shutdown();
  return fault::FaultLog::global().snapshot();
}

TEST(ChaosDeterminism, SameSeedSameSequence) {
  const std::string plan =
      "job_fail:p=0.35,seed=9;runner_stall:ms=1,p=0.4,seed=4";
  const auto first = chaos_run(plan, 2, 30);
  const auto second = chaos_run(plan, 2, 30);
  EXPECT_FALSE(first.empty()) << "plan injected nothing";
  EXPECT_EQ(first, second)
      << "same seed must reproduce the identical injected sequence";

  // A different seed produces a different stream (overwhelmingly likely
  // at 30 jobs x p=0.35).
  const auto reseeded =
      chaos_run("job_fail:p=0.35,seed=10;runner_stall:ms=1,p=0.4,seed=4", 2,
                30);
  EXPECT_NE(first, reseeded);
}

TEST(ChaosDeterminism, WidthOneVsSeven) {
  const std::string plan =
      "job_fail:p=0.3,seed=21;runner_stall:ms=1,p=0.3,seed=22";
  const auto narrow = chaos_run(plan, 1, 24);
  const auto wide = chaos_run(plan, 7, 24);
  EXPECT_FALSE(narrow.empty());
  EXPECT_EQ(narrow, wide)
      << "injection is keyed by admission seq, not executor interleaving";
}

TEST(ChaosStall, StallDelaysJob) {
  fault::FaultLog::global().reset();
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_chaos_plan("runner_stall:ms=30,p=1"));
  auto handle =
      server.submit(JobSpec{}.with_name("stalled").with_fn(trivial_job()));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  EXPECT_EQ(result.state, JobState::kDone);
  EXPECT_EQ(result.vtime, 1.0) << "stalls are wall-clock-only, never vtime";
  EXPECT_GE(result.run_wall_s, 0.025)
      << "the injected 30ms stall lands in run_wall_s";
  const auto events = fault::FaultLog::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events.begin()->second.front().find("chaos.runner_stall ms=30"),
            std::string::npos);
}

TEST(ChaosFail, InjectedFailureIsRetryable) {
  fault::FaultLog::global().reset();
  Server server(ServerOptions{}
                    .with_workers(1)
                    .with_executor_threads(1)
                    .with_chaos_plan("job_fail:p=0.999999,seed=3"));
  std::atomic<int> calls{0};
  auto handle = server.submit(
      JobSpec{}
          .with_name("doomed")
          .with_retry(generous_retry(3))
          .with_fn([&calls](JobContext&) -> support::StatusOr<double> {
            calls.fetch_add(1);
            return 1.0;
          }));
  ASSERT_TRUE(handle.is_ok());
  const JobResult result = handle.value().wait();
  // Every attempt draws a failure, so retry runs to exhaustion and the
  // job body never executes.
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.status.code(), support::ErrorCode::kUnavailable);
  EXPECT_NE(result.status.message().find("chaos"), std::string::npos)
      << result.status.to_string();
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(calls.load(), 0) << "injected failures preempt the body";
  EXPECT_EQ(server.stats().retried, 2u);
  EXPECT_EQ(server.stats().failed, 1u);
}

}  // namespace
}  // namespace psf::serve
