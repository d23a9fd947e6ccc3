// PSF — hot-path performance features (docs/PERFORMANCE.md):
//
//   * small-message coalescing — opt-in: sub-threshold sends batch per
//     destination into one pooled frame priced as one wire message
//     (strictly cheaper on message storms than the default transport,
//     which sends each message on its own). FIFO/wildcard order and the
//     fault-injection protocol (CRC + retransmission + dedup) must hold
//     for frames exactly as for individual messages.
//   * double-buffered stream pipelines — devsim::StreamPipeline overlaps
//     the H2D copy of chunk k+1 with kernel k on two streams, records the
//     copy -> kernel "stream" trace edges, and accounts the overlapped
//     interval into devsim.copy_overlap_vtime.
//   * generated row kernels — TypedStencil lowers the element function to
//     the runtime's row loop; bytes must match a sequential reference
//     exactly at every executor width.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "apps/heat3d.h"
#include "devsim/device.h"
#include "minimpi/communicator.h"
#include "pattern/api.h"
#include "pattern/typed.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "timemodel/trace.h"

namespace psf {
namespace {

std::uint64_t counter_value(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

double timer_seconds(const char* name) {
  return metrics::Registry::global().timer(name).seconds();
}

// --- small-message coalescing ------------------------------------------------

struct StormRun {
  double makespan = 0.0;
  /// Sender's virtual time to inject the whole storm (send phase + flush).
  /// This is what coalescing optimizes: the per-message mpi_call overhead
  /// on the injecting rank. The end-to-end makespan is receiver-bound
  /// (every recv still pays its own call overhead) with or without coalescing.
  double inject_vtime = 0.0;
  bool payloads_ok = true;
};

/// 2-rank storm: rank 0 sends `count` small messages to rank 1, which
/// receives them in order and verifies content (per-(source,tag) FIFO).
StormRun run_storm(bool coalesced, int count, std::size_t msg_bytes) {
  minimpi::World world(2);
  world.set_coalescing(coalesced);
  StormRun run;
  std::vector<double> now(2, 0.0);
  world.run([&](minimpi::Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> payload(msg_bytes);
      for (int i = 0; i < count; ++i) {
        std::memset(payload.data(), i & 0xff, payload.size());
        comm.send(1, /*tag=*/7, payload);
      }
      comm.flush_coalesced();
      run.inject_vtime = comm.timeline().now();
    } else {
      for (int i = 0; i < count; ++i) {
        auto message = comm.recv_any(0, 7);
        if (message.payload.size() != msg_bytes ||
            std::to_integer<int>(message.payload.data()[0]) != (i & 0xff)) {
          run.payloads_ok = false;
        }
      }
    }
    comm.barrier();
    now[static_cast<std::size_t>(comm.rank())] = comm.timeline().now();
  });
  run.makespan = std::max(now[0], now[1]);
  return run;
}

TEST(HotpathCoalesce, AggregateStormInjectsAtLeastTwiceAsFast) {
  const auto off = run_storm(/*coalesced=*/false, 128, 256);
  const auto agg = run_storm(/*coalesced=*/true, 128, 256);
  EXPECT_TRUE(off.payloads_ok);
  EXPECT_TRUE(agg.payloads_ok);
  // One mpi_call per frame instead of per message: the sender's injection
  // time collapses (>= 2x on sub-KiB storms).
  EXPECT_LT(agg.inject_vtime * 2.0, off.inject_vtime);
  // End-to-end the receiver's per-recv call overhead dominates both
  // transports, so the makespan stays in the same ballpark (equal up to FP
  // noise from the different merge order) — the frame never hurts.
  EXPECT_NEAR(agg.makespan, off.makespan, off.makespan * 1e-6);
}

TEST(HotpathCoalesce, FramesAllocateOncePerFrameNotPerSub) {
  // Warm the pool so payload_allocs counts only genuinely fresh buffers
  // (the steady-state contract validate_metrics.py --assert-zero pins).
  (void)run_storm(/*coalesced=*/true, 64, 256);
  const std::uint64_t allocs_before = counter_value("minimpi.payload_allocs");
  const std::uint64_t frames_before = counter_value("minimpi.frames_sent");
  const std::uint64_t subs_before = counter_value("minimpi.msgs_coalesced");
  (void)run_storm(/*coalesced=*/true, 64, 256);
  const std::uint64_t allocs =
      counter_value("minimpi.payload_allocs") - allocs_before;
  const std::uint64_t frames =
      counter_value("minimpi.frames_sent") - frames_before;
  const std::uint64_t subs =
      counter_value("minimpi.msgs_coalesced") - subs_before;
  // All 64 storm subs rode frames, many subs per frame...
  EXPECT_GE(subs, 64u);
  EXPECT_GE(frames, 1u);
  EXPECT_LT(frames, subs);
  // ...and a frame is ONE pooled deposit: with a warm pool the coalesced
  // steady state allocates nothing per sub (at most one miss per frame).
  EXPECT_LE(allocs, frames);
}

TEST(HotpathCoalesce, InterleavedTagsKeepFifoAndWildcardOrder) {
  for (const bool coalesced : {false, true}) {
    minimpi::World world(2);
    world.set_coalescing(coalesced);
    std::vector<int> wildcard_tags;
    std::vector<int> per_tag_values;
    world.run([&](minimpi::Communicator& comm) {
      if (comm.rank() == 0) {
        // Interleave two tags; then a second wave read back by wildcard.
        for (int i = 0; i < 8; ++i) {
          comm.send_value<int>(1, /*tag=*/i % 2, i);
        }
        for (int i = 0; i < 6; ++i) {
          comm.send_value<int>(1, /*tag=*/100 + i, i);
        }
      } else {
        for (int i = 0; i < 8; ++i) {
          per_tag_values.push_back(comm.recv_value<int>(0, i % 2));
        }
        // Wildcard receives drain in earliest-deposit order, which for one
        // source is exactly the send order.
        for (int i = 0; i < 6; ++i) {
          auto message = comm.recv_any(0, minimpi::kAnyTag);
          wildcard_tags.push_back(message.tag);
        }
      }
      comm.barrier();
    });
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(per_tag_values[static_cast<std::size_t>(i)], i)
          << "per-tag FIFO broke at " << i << " coalesced " << coalesced;
    }
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(wildcard_tags[static_cast<std::size_t>(i)], 100 + i)
          << "wildcard order broke at " << i << " coalesced " << coalesced;
    }
  }
}

pattern::EnvOptions hybrid_options(const std::string& profile) {
  pattern::EnvOptions options;
  options.app_profile = profile;
  options.use_cpu = true;
  options.use_gpus = 2;
  options.workload_scale = 100.0;
  return options;
}

apps::heat3d::Result run_heat3d(bool coalesced,
                                const std::string& fault_plan,
                                const pattern::EnvOptions& options,
                                int ranks = 2, int threads = 0) {
  apps::heat3d::Params params;
  params.nx = params.ny = params.nz = 16;
  params.iterations = 4;
  const auto field = apps::heat3d::generate_field(params);
  minimpi::World world(ranks);
  world.set_coalescing(coalesced);
  apps::heat3d::Result result;
  world.run([&](minimpi::Communicator& comm) {
    auto opts = options;
    opts.fault_plan = fault_plan;
    opts.num_threads = threads;
    auto local = apps::heat3d::run_framework(comm, opts, params, field);
    if (comm.rank() == 0) result = std::move(local);
  });
  return result;
}

TEST(HotpathCoalesce, CoalescedTransportSurvivesFaultMatrix) {
  const auto options = hybrid_options("heat3d");
  const auto clean = run_heat3d(/*coalesced=*/false, "", options);
  // Drop, corrupt and duplicate single messages and whole frames: CRC
  // rejects every damaged copy, retransmission resends the message or
  // frame, dedup absorbs the copies.
  const char* plan = "msg_drop:p=0.2,corrupt=0.15,dup=0.15,seed=5";
  for (const bool coalesced : {false, true}) {
    const std::uint64_t retries = counter_value("minimpi.retries");
    const auto faulty = run_heat3d(coalesced, plan, options);
    EXPECT_GT(counter_value("minimpi.retries"), retries);
    ASSERT_EQ(faulty.field.size(), clean.field.size());
    for (std::size_t i = 0; i < clean.field.size(); ++i) {
      ASSERT_EQ(faulty.field[i], clean.field[i])
          << "cell " << i << " coalesced " << coalesced;
    }
    // Faulty transport costs virtual time, never correctness.
    EXPECT_GE(faulty.vtime, clean.vtime);
    // Same seed, same schedule: the retry tax is deterministic.
    const auto again = run_heat3d(coalesced, plan, options);
    EXPECT_DOUBLE_EQ(again.vtime, faulty.vtime);
  }
}

// --- double-buffered stream pipelines ---------------------------------------

devsim::DeviceDescriptor gpu_descriptor() {
  devsim::DeviceDescriptor gpu;
  gpu.type = devsim::DeviceType::kGpu;
  gpu.id = 1;
  gpu.compute_units = 4;
  gpu.memory_bytes = 1 << 24;
  return gpu;
}

TEST(HotpathPipeline, CopyOverlapsKernelAndFinishBeatsSerial) {
  timemodel::Timeline host;
  devsim::Device device(gpu_descriptor(), host);
  const double overlap_before = timer_seconds("devsim.copy_overlap_vtime");

  devsim::StreamPipeline pipeline(device);
  constexpr std::size_t kBytes = 1 << 20;
  constexpr double kKernelS = 1.0e-3;
  const double copy_s = device.descriptor().h2d_link.cost(kBytes);
  constexpr int kChunks = 6;
  for (int i = 0; i < kChunks; ++i) pipeline.step(kBytes, kKernelS);

  // Serial would pay copy + kernel per chunk; the ping-pong pipeline hides
  // each copy behind the previous kernel, so only the first copy is
  // exposed in steady state.
  const double serial = kChunks * (copy_s + kKernelS);
  EXPECT_LT(pipeline.finish(), serial);
  EXPECT_GE(pipeline.finish(), kChunks * std::max(copy_s, kKernelS));
  EXPECT_GT(pipeline.overlap_vtime(), 0.0);
  EXPECT_GT(timer_seconds("devsim.copy_overlap_vtime"), overlap_before);

  pipeline.drain(host);
  EXPECT_GE(host.now(), pipeline.finish());
}

TEST(HotpathPipeline, RecordsCopyToKernelStreamEdges) {
  timemodel::Timeline host;
  devsim::Device device(gpu_descriptor(), host);
  timemodel::TraceRecorder trace;
  device.set_trace(&trace, /*rank=*/0, /*lane=*/1);

  devsim::StreamPipeline pipeline(device);
  for (int i = 0; i < 3; ++i) pipeline.step(1 << 16, 5.0e-4, "tile kernel");

  int copy_spans = 0;
  int kernel_spans = 0;
  for (const auto& span : trace.spans()) {
    if (span.category == "copy") ++copy_spans;
    if (span.category == "compute") ++kernel_spans;
  }
  EXPECT_EQ(copy_spans, 3);
  EXPECT_EQ(kernel_spans, 3);
  int stream_edges = 0;
  for (const auto& edge : trace.edges()) {
    if (edge.kind == "stream") ++stream_edges;
  }
  // Every chunk's kernel depends on its own upload.
  EXPECT_GE(stream_edges, 3);
}

TEST(HotpathPipeline, Heat3dOverlapPipelineBeatsNoOverlapAtTwoRanks) {
  auto on = hybrid_options("heat3d");
  on.overlap = true;
  on.stream_pipeline = true;
  auto off_options = hybrid_options("heat3d");
  off_options.overlap = false;
  off_options.stream_pipeline = false;

  const auto fast = run_heat3d(/*coalesced=*/false, "", on);
  const auto slow = run_heat3d(/*coalesced=*/false, "", off_options);
  EXPECT_LT(fast.vtime, slow.vtime);
  ASSERT_EQ(fast.field.size(), slow.field.size());
  for (std::size_t i = 0; i < slow.field.size(); ++i) {
    ASSERT_EQ(fast.field[i], slow.field[i]) << "cell " << i;
  }
}

// --- generated row kernels ----------------------------------------------------

/// Cells computed by the kernels below, across all ranks and workers.
std::atomic<long> g_row_cells{0};

/// 5-point average; the sequential references below repeat the sum orders.
constexpr auto avg5 = [](const pattern::GridView<double, 2>& in,
                         const pattern::MutableGridView<double, 2>& out,
                         const int* c, const void* /*parameter*/) {
  g_row_cells.fetch_add(1, std::memory_order_relaxed);
  const int y = c[0];
  const int x = c[1];
  out(y, x) = 0.2 * (in(y, x) + in(y - 1, x) + in(y + 1, x) + in(y, x - 1) +
                     in(y, x + 1));
};

/// 7-point 3-D average.
constexpr auto avg7 = [](const pattern::GridView<double, 3>& in,
                         const pattern::MutableGridView<double, 3>& out,
                         const int* c, const void* /*parameter*/) {
  g_row_cells.fetch_add(1, std::memory_order_relaxed);
  const int z = c[0];
  const int y = c[1];
  const int x = c[2];
  out(z, y, x) = (in(z, y, x) + in(z - 1, y, x) + in(z + 1, y, x) +
                  in(z, y - 1, x) + in(z, y + 1, x) + in(z, y, x - 1) +
                  in(z, y, x + 1)) /
                 7.0;
};

std::vector<double> random_grid(std::size_t cells, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> grid(cells);
  for (auto& value : grid) value = rng.next_in(0.0, 10.0);
  return grid;
}

/// Sequential avg5 over an ny x nx grid with fixed borders.
std::vector<double> reference_2d(std::vector<double> in, std::size_t ny,
                                 std::size_t nx, int iterations) {
  std::vector<double> out = in;
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t y = 1; y + 1 < ny; ++y) {
      for (std::size_t x = 1; x + 1 < nx; ++x) {
        const std::size_t i = y * nx + x;
        out[i] = 0.2 * (in[i] + in[i - nx] + in[i + nx] + in[i - 1] +
                        in[i + 1]);
      }
    }
    std::swap(in, out);
  }
  return in;
}

/// Sequential avg7 over an nz x ny x nx grid with fixed borders.
std::vector<double> reference_3d(std::vector<double> in, std::size_t nz,
                                 std::size_t ny, std::size_t nx,
                                 int iterations) {
  std::vector<double> out = in;
  const std::size_t sz = ny * nx;
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t z = 1; z + 1 < nz; ++z) {
      for (std::size_t y = 1; y + 1 < ny; ++y) {
        for (std::size_t x = 1; x + 1 < nx; ++x) {
          const std::size_t i = z * sz + y * nx + x;
          out[i] = (in[i] + in[i - sz] + in[i + sz] + in[i - nx] +
                    in[i + nx] + in[i - 1] + in[i + 1]) /
                   7.0;
        }
      }
    }
    std::swap(in, out);
  }
  return in;
}

template <int N, typename Fn>
std::vector<double> run_stencil(const std::vector<std::size_t>& dims,
                                const std::vector<double>& initial, Fn fn,
                                int threads) {
  std::vector<double> assembled(initial.size(), 0.0);
  minimpi::World world(2);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.app_profile = "heat3d";
    options.use_cpu = true;
    options.use_gpus = 0;
    options.num_threads = threads;
    pattern::RuntimeEnv env(comm, options);
    pattern::TypedStencil<double, N> st(env);
    st.set_stencil(fn);
    st.set_grid(initial, dims);
    st.set_halo(1);
    EXPECT_TRUE(st.run(3).is_ok());
    st.write_back(assembled);
  });
  return assembled;
}

// The typed element function is lowered to the runtime's row loop, the only
// compute path; at every executor width the row dispatch must reproduce the
// bytes of the scalar per-cell sequential reference.
TEST(HotpathSimd, RowDispatch2dBitIdenticalToScalarAtEveryWidth) {
  const auto initial = random_grid(48 * 37, 11);
  const auto scalar = reference_2d(initial, 48, 37, 3);
  for (const int threads : {1, 7}) {
    g_row_cells.store(0);
    const auto rows = run_stencil<2>({48, 37}, initial, avg5, threads);
    EXPECT_GT(g_row_cells.load(), 0) << "row path not dispatched";
    ASSERT_EQ(rows.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(rows[i], scalar[i]) << "cell " << i << " width " << threads;
    }
  }
}

TEST(HotpathSimd, RowDispatch3dBitIdenticalToScalarAtEveryWidth) {
  const auto initial = random_grid(14 * 15 * 16, 23);
  const auto scalar = reference_3d(initial, 14, 15, 16, 3);
  for (const int threads : {1, 7}) {
    g_row_cells.store(0);
    const auto rows = run_stencil<3>({14, 15, 16}, initial, avg7, threads);
    EXPECT_GT(g_row_cells.load(), 0) << "row path not dispatched";
    ASSERT_EQ(rows.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(rows[i], scalar[i]) << "cell " << i << " width " << threads;
    }
  }
}

// --- all three legs together, across executor widths ------------------------

TEST(HotpathWidth, AllLegsOnBitIdenticalAcrossExecutorWidths) {
  auto options = hybrid_options("heat3d");
  options.overlap = true;
  options.stream_pipeline = true;
  const auto w1 = run_heat3d(/*coalesced=*/true, "", options, 2, 1);
  const auto w7 = run_heat3d(/*coalesced=*/true, "", options, 2, 7);
  EXPECT_DOUBLE_EQ(w1.vtime, w7.vtime);
  EXPECT_DOUBLE_EQ(w1.checksum, w7.checksum);
  ASSERT_EQ(w1.field.size(), w7.field.size());
  for (std::size_t i = 0; i < w1.field.size(); ++i) {
    ASSERT_EQ(w1.field[i], w7.field[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace psf
