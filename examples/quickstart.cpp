// PSF quickstart — a complete generalized-reduction application in the
// style of the paper's Listing 2, written through the typed facade
// (TypedGReduce): word-length histogram over synthetic records, running on
// a simulated 4-node CPU+GPU cluster.
//
//   $ ./quickstart [nodes] [gpus-per-node]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pattern/api.h"
#include "support/rng.h"

namespace {

// --- user-defined functions (what an application developer writes) ---------

// One input unit is a record with a value in [0, 32); emit (bucket, 1).
constexpr auto bucket_emit = [](psf::pattern::TypedObject<std::uint64_t>& obj,
                                const std::uint32_t& value,
                                std::size_t /*index*/,
                                const void* /*parameter*/) {
  obj.insert(value % 32, 1);
};

constexpr auto count_reduce = [](std::uint64_t& dst,
                                 const std::uint64_t& src) { dst += src; };

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 2;

  // Synthetic input (the "file" every node can read its partition from).
  constexpr std::size_t kRecords = 1 << 20;
  std::vector<std::uint32_t> records(kRecords);
  psf::support::Xoshiro256 rng(2026);
  for (auto& record : records) {
    record = static_cast<std::uint32_t>(rng.next_below(1000));
  }

  // One process per node; CPU threads + GPUs inside each (paper III-B).
  psf::minimpi::World world(nodes, psf::timemodel::LinkModel::infiniband());
  world.run([&](psf::minimpi::Communicator& comm) {
    psf::pattern::EnvOptions options;
    options.app_profile = "kmeans";  // generic streaming-reduction profile
    options.use_cpu = true;
    options.use_gpus = gpus;

    psf::pattern::RuntimeEnv env(comm, options);   // Runtime_env env;
    PSF_CHECK(env.init().is_ok());                 // env.init();
    psf::pattern::TypedGReduce<std::uint32_t, std::uint64_t> gr(env);

    gr.set_emit(bucket_emit);
    gr.set_reduce(count_reduce);
    gr.set_input(records);
    gr.configure(64);
    PSF_CHECK(gr.run(1).is_ok());  // local pass + global tree combine

    if (comm.rank() == 0) {
      std::printf("bucket histogram over %zu records (%d nodes, CPU+%d GPU "
                  "per node):\n",
                  records.size(), nodes, gpus);
      std::uint64_t total = 0;
      std::size_t distinct = 0;
      for (std::uint64_t bucket = 0; bucket < 32; ++bucket) {
        std::uint64_t count = 0;
        if (gr.lookup_global(bucket, &count)) {
          total += count;
          ++distinct;
        }
      }
      std::printf("  distinct buckets: %zu, records accounted: %llu\n",
                  distinct, static_cast<unsigned long long>(total));
      std::printf("  simulated execution time: %.3f ms\n",
                  comm.timeline().now() * 1e3);
      std::printf("  devices used per node: %s\n",
                  gpus > 0 ? "CPU + GPUs (dynamic chunks)" : "CPU only");
    }
    env.finalize();
  });
  std::printf("quickstart OK\n");
  return 0;
}
