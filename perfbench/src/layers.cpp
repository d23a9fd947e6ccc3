// perfbench — per-layer probes for the traced run.
//
// [span] metrics time the benchmark's own calls into one layer's public
// functions, on inputs shaped like the swept apps'. [ctr] metrics copy the
// counters and timers the layers already export through metrics::Registry.
// Tracing inside src/ is not used here: every span is opened and closed in
// this file.
#include <sys/resource.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <vector>

#include "apps/heat3d.h"
#include "apps/sobel.h"
#include "bench.h"
#include "devsim/device.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "minimpi/communicator.h"
#include "pattern/reduction_object.h"
#include "pattern/runtime_env.h"
#include "pattern/typed.h"
#include "support/buffer_pool.h"
#include "support/rng.h"
#include "timemodel/timeline.h"

namespace perfbench {
namespace {

using psf::pattern::GridView;
using psf::pattern::MutableGridView;

/// Median wall seconds of `reps` calls of `fn`.
double median_wall(int reps, const std::function<void()>& fn) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    const auto begin = Clock::now();
    fn();
    walls.push_back(seconds_since(begin));
  }
  return median(walls);
}

/// Wall seconds of a 1-rank TypedStencil run (start + run + write_back) on
/// `grid`, median of `reps`.
template <typename T, int N, typename Fn>
double stencil_wall(std::span<const T> grid, std::vector<std::size_t> dims,
                    int iterations, const char* profile, Fn stencil,
                    int reps) {
  std::vector<double> walls;
  psf::minimpi::World world(1);
  for (int i = 0; i < reps; ++i) {
    world.run([&](psf::minimpi::Communicator& comm) {
      psf::pattern::EnvOptions options;
      options.app_profile = profile;
      options.num_threads = 4;
      psf::pattern::RuntimeEnv env(comm, options);
      PSF_CHECK(env.init().is_ok());
      std::vector<T> out(grid.size());
      const auto begin = Clock::now();
      psf::pattern::TypedStencil<T, N> st(env);
      st.set_stencil(stencil);
      st.set_grid(grid, dims);
      st.set_halo(1);
      PSF_CHECK(st.run(iterations).is_ok());
      st.write_back(out);
      walls.push_back(seconds_since(begin));
      env.finalize();
    });
  }
  return median(walls);
}

void probe_stencil(std::uint64_t seed, Report& report) {
  psf::apps::sobel::Params sobel;
  sobel.height = sobel.width = 1024;
  sobel.seed = derive_seed(seed, 1);
  const auto image = psf::apps::sobel::generate_image(sobel);
  psf::apps::heat3d::Params heat;
  heat.nx = heat.ny = heat.nz = 64;
  heat.seed = derive_seed(seed, 2);
  const auto field = psf::apps::heat3d::generate_field(heat);
  constexpr int kIterations = 3;
  const double sobel_s = stencil_wall<float, 2>(
      image, {sobel.height, sobel.width}, kIterations, "sobel",
      [](const GridView<float, 2>& in, const MutableGridView<float, 2>& out,
         const int* c, const void*) {
        const int y = c[0], x = c[1];
        const float gx = in(y - 1, x + 1) + 2.0f * in(y, x + 1) +
                         in(y + 1, x + 1) - in(y - 1, x - 1) -
                         2.0f * in(y, x - 1) - in(y + 1, x - 1);
        const float gy = in(y + 1, x - 1) + 2.0f * in(y + 1, x) +
                         in(y + 1, x + 1) - in(y - 1, x - 1) -
                         2.0f * in(y - 1, x) - in(y - 1, x + 1);
        const float magnitude = std::sqrt(gx * gx + gy * gy);
        out(y, x) = magnitude > 255.0f ? 255.0f : magnitude;
      },
      5);
  const double heat_s = stencil_wall<double, 3>(
      field, {heat.nx, heat.ny, heat.nz}, kIterations, "heat3d",
      [](const GridView<double, 3>& in, const MutableGridView<double, 3>& out,
         const int* c, const void*) {
        const int z = c[0], y = c[1], x = c[2];
        const double center = in(z, y, x);
        const double neighbors = in(z - 1, y, x) + in(z + 1, y, x) +
                                 in(z, y - 1, x) + in(z, y + 1, x) +
                                 in(z, y, x - 1) + in(z, y, x + 1);
        out(z, y, x) = center + 0.1 * (neighbors - 6.0 * center);
      },
      5);
  const double cells =
      static_cast<double>(image.size() + field.size()) * kIterations;
  report.set("stencil.cells_per_s", cells / (sobel_s + heat_s), "cells/s");
}

void add_doubles(void* dst, const void* src) {
  auto* a = static_cast<double*>(dst);
  const auto* b = static_cast<const double*>(src);
  for (int i = 0; i < 4; ++i) a[i] += b[i];
}

void probe_reduction_object(std::uint64_t seed, Report& report) {
  using psf::pattern::ObjectLayout;
  using psf::pattern::ReductionObject;
  // Kmeans' 40 cluster keys (hash layout) and moldyn's 8192 node keys
  // (dense layout), 4-double values.
  constexpr std::size_t kInserts = 1 << 18;
  psf::support::Xoshiro256 rng(derive_seed(seed, 9));
  std::vector<std::uint64_t> hash_keys(kInserts), dense_keys(kInserts);
  for (auto& key : hash_keys) key = rng.next_below(40);
  for (auto& key : dense_keys) key = rng.next_below(8192);
  const double value[4] = {1.0, 2.0, 3.0, 1.0};
  const double hash_s = median_wall(5, [&] {
    ReductionObject object(ObjectLayout::kHash, 64, sizeof(value),
                           add_doubles);
    for (const auto key : hash_keys) object.insert(key, value);
  });
  ReductionObject dense(ObjectLayout::kDense, 8192, sizeof(value),
                        add_doubles);
  const double dense_s = median_wall(5, [&] {
    dense.clear();
    for (const auto key : dense_keys) dense.insert(key, value);
  });
  report.set("reduction_object.insert_ns",
             (hash_s + dense_s) / (2.0 * kInserts) * 1e9, "ns");
  ReductionObject target(ObjectLayout::kDense, 8192, sizeof(value),
                         add_doubles);
  report.set("reduction_object.merge_ms",
             median_wall(50, [&] { target.merge_from(dense); }) * 1e3, "ms");
}

void probe_minimpi(Report& report) {
  double setup_us = 0.0;
  for (const int ranks : {1, 2, 4}) {
    setup_us += median_wall(30, [ranks] {
                  psf::minimpi::World world(ranks);
                  world.run([](psf::minimpi::Communicator&) {});
                }) *
                1e6 / 3.0;
  }
  report.set("minimpi.world_setup_us", setup_us, "us");
  // Full-image sum reduce of a sobel-sized float image, as sobel's result
  // assembly does, at 2 and 4 ranks; timed on the root.
  double reduce_ms = 0.0;
  for (const int ranks : {2, 4}) {
    std::vector<double> walls;
    psf::minimpi::World world(ranks);
    for (int rep = 0; rep < 5; ++rep) {
      world.run([&](psf::minimpi::Communicator& comm) {
        std::vector<float> image(1024 * 1024, 1.0f);
        comm.barrier();
        const auto begin = Clock::now();
        comm.reduce<float>(image, 0, [](float& a, float b) { a += b; });
        if (comm.rank() == 0) walls.push_back(seconds_since(begin));
      });
    }
    reduce_ms += median(walls) * 1e3 / 2.0;
  }
  report.set("minimpi.reduce_ms", reduce_ms, "ms");
}

void probe_exec_devsim_pool(Report& report) {
  psf::exec::ThreadPool pool(3);  // width 4: three workers plus the caller
  report.set("exec.parallel_for_us",
             median_wall(500,
                         [&] {
                           psf::exec::parallel_for(pool, 256,
                                                   [](std::size_t) {});
                         }) *
                 1e6,
             "us");
  psf::timemodel::Timeline host;
  psf::devsim::DeviceDescriptor gpu;
  gpu.type = psf::devsim::DeviceType::kGpu;
  gpu.id = 1;
  gpu.compute_units = 14;
  psf::devsim::Device device(gpu, host, &pool);
  report.set("devsim.launch_us",
             median_wall(500,
                         [&] {
                           device.run_blocks(
                               gpu.compute_units, 0,
                               [](const psf::devsim::BlockContext&) {});
                         }) *
                 1e6,
             "us");
  auto& buffers = psf::support::BufferPool::global();
  constexpr int kAcquires = 100000;
  report.set("buffer_pool.acquire_ns",
             median_wall(5,
                         [&] {
                           for (int i = 0; i < kAcquires; ++i) {
                             auto buffer = buffers.acquire(4096);
                             std::memset(buffer.data(), 0, 8);
                           }
                         }) /
                 kAcquires * 1e9,
             "ns");
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int host_cpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

void probe_layers(std::uint64_t seed, Report& report) {
  probe_stencil(seed, report);
  probe_reduction_object(seed, report);
  probe_minimpi(report);
  probe_exec_devsim_pool(report);
}

void report_layer_counters(const std::map<std::string, std::uint64_t>& counters,
                           const std::map<std::string, double>& timers,
                           std::uint64_t pool_hits, std::uint64_t pool_misses,
                           Report& report) {
  auto count = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto seconds = [&](const char* name) {
    const auto it = timers.find(name);
    return it == timers.end() ? 0.0 : it->second;
  };
  auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  for (const char* name :
       {"pattern.st.halo_bytes", "pattern.gr.chunks", "pattern.gr.object_merges",
        "pattern.ir.cross_edges", "pattern.ir.remote_replicas",
        "minimpi.messages_sent", "minimpi.bytes_sent", "minimpi.payload_allocs",
        "exec.tasks_executed", "exec.steals", "exec.steal_failures"}) {
    report.set(name, count(name), "count");
  }
  for (const char* name : {"pattern.st.exchange_vtime", "minimpi.recv_wait_vtime",
                           "devsim.copy_overlap_vtime", "exec.task_busy_wall"}) {
    report.set(name, seconds(name), "s");
  }
  report.set("minimpi.coalesce_ratio",
             ratio(count("minimpi.msgs_coalesced"),
                   count("minimpi.messages_sent")),
             "ratio");
  report.set("exec.steal_success",
             ratio(count("exec.steals"),
                   count("exec.steals") + count("exec.steal_failures")),
             "ratio");
  report.set("support.pool.hit_ratio",
             ratio(static_cast<double>(pool_hits),
                   static_cast<double>(pool_hits + pool_misses)),
             "ratio");
}

}  // namespace perfbench
