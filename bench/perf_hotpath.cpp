// PSF — hot-path microbenchmarks: the pooled zero-copy message transport,
// sharded mailbox matching, World ping-pong, coalesced vs uncoalesced
// small-message storms, and the heat3d overlap pipeline.
//
// The transport loop models the halo/combine pattern the runtimes use: the
// pack writes straight into a recycled PooledBuffer (the staging buffer IS
// the message), the sharded mailbox matches exact (source, tag) with a
// queue-front pop, and the receiver consumes the payload in place
// (recv_any semantics). The numbers against the replaced list-mailbox
// transport are recorded in docs/PERFORMANCE.md ("Measuring it").
//
// Run: ./build/bench/perf_hotpath [--benchmark_filter=REGEX]
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "apps/heat3d.h"
#include "minimpi/communicator.h"
#include "minimpi/message.h"
#include "pattern/runtime_env.h"
#include "support/buffer_pool.h"

namespace {

/// Messages concurrently in flight per round, like a rank's posted isends
/// during a halo exchange or node-data scatter.
constexpr int kBatch = 8;

// --- message transport loop ------------------------------------------------

void BM_PooledTransport(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> field(bytes, std::byte{0x5c});
  psf::support::BufferPool pool;
  psf::minimpi::Mailbox mailbox(2);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      auto staged = pool.acquire(bytes);                 // recycled, no alloc
      std::memcpy(staged.data(), field.data(), bytes);   // pack = the message
      psf::minimpi::Message message;
      message.source = 0;
      message.tag = 7;
      message.payload = std::move(staged);
      mailbox.deposit(std::move(message));
    }
    for (int i = 0; i < kBatch; ++i) {
      psf::minimpi::Message message = mailbox.retrieve(0, 7);
      sink += static_cast<std::uint64_t>(message.payload[bytes / 2]);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch * static_cast<std::int64_t>(bytes));
}

BENCHMARK(BM_PooledTransport)->Arg(4 << 10)->Arg(64 << 10);

// --- matching: multi-tag backlog --------------------------------------------
// A rank with several posted streams (halo tags per dimension, count/id/data
// tags in IR) retrieves from a backlog of unrelated traffic; the sharded
// mailbox jumps to the (source, tag) queue.

constexpr int kTags = 64;

void BM_ShardedMatching(benchmark::State& state) {
  psf::support::BufferPool pool;
  psf::minimpi::Mailbox mailbox(2);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int tag = 0; tag < kTags; ++tag) {
      psf::minimpi::Message message;
      message.source = 0;
      message.tag = tag;
      message.payload = pool.acquire(64);
      mailbox.deposit(std::move(message));
    }
    // Worst case: consume in reverse deposit order.
    for (int tag = kTags - 1; tag >= 0; --tag) {
      sink += static_cast<std::uint64_t>(mailbox.retrieve(0, tag).tag);
    }
  }
  benchmark::DoNotOptimize(sink);
}

BENCHMARK(BM_ShardedMatching);

// --- end-to-end: World ping-pong (informational) ----------------------------
// The full Communicator path — virtual-time pricing, metrics, thread join —
// on the shipped implementation.

void BM_WorldPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kRoundTrips = 64;
  for (auto _ : state) {
    psf::minimpi::World world(2);
    world.run([bytes](psf::minimpi::Communicator& comm) {
      for (int i = 0; i < kRoundTrips; ++i) {
        if (comm.rank() == 0) {
          auto ball = comm.acquire_buffer(bytes);
          comm.send_pooled(1, 3, std::move(ball));
          auto back = comm.recv_any(1, 4);
          benchmark::DoNotOptimize(back.payload.data());
        } else {
          auto ball = comm.recv_any(0, 3);
          comm.send_pooled(0, 4, std::move(ball.payload));
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kRoundTrips * static_cast<std::int64_t>(bytes));
}

BENCHMARK(BM_WorldPingPong)->Arg(4 << 10)->Arg(64 << 10);

// --- small-message storm: coalesced vs uncoalesced --------------------------
// A rank blasting sub-threshold messages at a neighbor (the per-neighbor
// tiny-message pattern of irregular reductions and 1-cell halos). The
// Time column is MODELED time (UseManualTime): the sender's virtual time
// to inject the storm, which is what opt-in coalescing optimizes — one
// mpi_call plus one alpha-beta frame cost per flush instead of one per
// message on the default transport. Wall clock cannot carry this
// comparison in a threads-as-ranks simulator (both transports move the
// same payload bytes through process memory, and the frame pays extra
// staging copies for its modeled win). Expected: coalesced >= 2x modeled
// throughput on the <= 1 KiB rows.

constexpr int kStormMsgs = 512;

void run_message_storm(benchmark::State& state, bool coalesced) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    psf::minimpi::World world(2);
    world.set_coalescing(coalesced);
    double inject_vtime = 0.0;
    world.run([&](psf::minimpi::Communicator& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < kStormMsgs; ++i) {
          auto payload = comm.acquire_buffer(bytes);
          std::memset(payload.data(), i & 0xff, bytes);
          comm.send_pooled(1, 7, std::move(payload));
        }
        comm.flush_coalesced();
        inject_vtime = comm.timeline().now();
      } else {
        for (int i = 0; i < kStormMsgs; ++i) {
          auto message = comm.recv_any(0, 7);
          benchmark::DoNotOptimize(message.payload.data());
        }
      }
      comm.barrier();
    });
    state.SetIterationTime(inject_vtime);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStormMsgs * static_cast<std::int64_t>(bytes));
}

void BM_UncoalescedStorm(benchmark::State& state) {
  run_message_storm(state, /*coalesced=*/false);
}

void BM_CoalescedStorm(benchmark::State& state) {
  run_message_storm(state, /*coalesced=*/true);
}

// Fixed iteration counts: the modeled times are deterministic, so repeats
// add wall time without information.
BENCHMARK(BM_UncoalescedStorm)
    ->Arg(64)->Arg(256)->Arg(1 << 10)->Arg(4 << 10)
    ->UseManualTime()->Iterations(20);
BENCHMARK(BM_CoalescedStorm)
    ->Arg(64)->Arg(256)->Arg(1 << 10)->Arg(4 << 10)
    ->UseManualTime()->Iterations(20);

// --- stencil overlap on/off pair --------------------------------------------
// Heat3D sweeps with communication/computation overlap plus the
// double-buffered stream pipeline versus the fully serialized schedule.
// Wall time here is informational (both run the same cell updates); the
// virtual-time improvement is pinned by compare_bench.py --assert-faster on
// the run_all heat3d_overlap/heat3d_nooverlap rows.

void run_heat3d_bench(benchmark::State& state, bool overlap) {
  psf::apps::heat3d::Params params;
  params.nx = params.ny = params.nz = 24;
  params.iterations = 4;
  const auto field = psf::apps::heat3d::generate_field(params);
  double vtime = 0.0;
  for (auto _ : state) {
    psf::minimpi::World world(2);
    world.run([&](psf::minimpi::Communicator& comm) {
      psf::pattern::EnvOptions options;
      options.app_profile = "heat3d";
      options.use_cpu = true;
      options.use_gpus = 2;
      options.workload_scale = 100.0;
      options.overlap = overlap;
      options.stream_pipeline = overlap;
      const auto result =
          psf::apps::heat3d::run_framework(comm, options, params, field);
      if (comm.rank() == 0) vtime = result.vtime;
    });
  }
  state.counters["vtime"] = vtime;
}

void BM_Heat3dNoOverlap(benchmark::State& state) {
  run_heat3d_bench(state, /*overlap=*/false);
}

void BM_Heat3dOverlapPipeline(benchmark::State& state) {
  run_heat3d_bench(state, /*overlap=*/true);
}

BENCHMARK(BM_Heat3dNoOverlap)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Heat3dOverlapPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
