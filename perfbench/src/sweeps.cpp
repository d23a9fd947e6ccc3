// perfbench — the two batch workloads, stencil_sweep and reduction_sweep.
//
// Each sweeps its apps' public run_framework entry points over the devices
// {cpu, cpu+2gpu} and ranks {1, 2, 4}, at the sizes and paper-scale pricing
// of bench/bench_common.h, so modeled_speedup is the paper's Fig. 5 metric.
// Library defaults everywhere except the executor width, which keeps
// ranks x width within the 4 host cores. No A/B variants run here (no
// *_unfused, no heat3d_nooverlap, no msgstorm_*, no coalescing switch).
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "apps/heat3d.h"
#include "apps/kmeans.h"
#include "apps/minimd.h"
#include "apps/moldyn.h"
#include "apps/sobel.h"
#include "bench.h"
#include "minimpi/communicator.h"
#include "pattern/runtime_env.h"
#include "support/buffer_pool.h"
#include "support/metrics.h"
#include "timemodel/rates.h"
#include "timemodel/trace.h"

namespace perfbench {
namespace {

using psf::minimpi::Communicator;
using psf::pattern::EnvOptions;

/// Paper-scale pricing of one app (bench/bench_common.h's AppWorkload).
struct Scales {
  std::string profile;
  double workload_scale = 1.0;
  double comm_scale = 1.0;
  double node_scale = 0.0;
  double seq_units = 0.0;
  double seq_extra_vtime = 0.0;

  /// Virtual seconds one CPU core needs for the paper-scale workload.
  [[nodiscard]] double sequential_vtime() const {
    return seq_units * workload_scale /
               psf::timemodel::app_rates(profile).cpu_core_units_per_s +
           seq_extra_vtime;
  }
};

/// One swept app: inputs made from the workload seed, a sequential
/// reference, and a rank body whose rank-0 output is kept for checking.
class App {
 public:
  virtual ~App() = default;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Scales& scales() const { return scales_; }
  /// Rank body of one cell; returns this rank's modeled vtime.
  virtual double run_rank(Communicator& comm, const EnvOptions& options) = 0;
  /// Computes the sequential reference (run_sequential) once.
  virtual void make_reference() = 0;
  /// Compares the last cell's rank-0 output with the reference, within
  /// the tolerances tests/test_apps.cpp uses.
  [[nodiscard]] virtual bool last_output_matches() const = 0;

 protected:
  explicit App(std::string name) : name_(std::move(name)) {}
  std::string name_;
  Scales scales_;
};

bool fields_match(std::span<const double> a, std::span<const double> b,
                  double tolerance) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(std::abs(a[i] - b[i]) <= tolerance)) return false;
  }
  return true;
}

// --- stencil apps -------------------------------------------------------------

/// Sobel: paper 32768^2 image, scaled from 1024^2, 3 iterations.
class SobelApp final : public App {
 public:
  explicit SobelApp(std::uint64_t seed) : App("sobel") {
    params_.height = params_.width = 1024;
    params_.iterations = 3;
    params_.seed = seed;
    const double k = 32768.0 / static_cast<double>(params_.width);
    scales_.profile = "sobel";
    scales_.workload_scale = k * k;
    scales_.comm_scale = k;
    scales_.seq_units = static_cast<double>(params_.height * params_.width) *
                        params_.iterations;
    image_ = psf::apps::sobel::generate_image(params_);
  }
  double run_rank(Communicator& comm, const EnvOptions& options) override {
    auto result =
        psf::apps::sobel::run_framework(comm, options, params_, image_);
    if (comm.rank() == 0) last_ = std::move(result.image);
    return result.steady_vtime * params_.iterations;
  }
  void make_reference() override {
    reference_ = psf::apps::sobel::run_sequential(params_, image_).image;
  }
  [[nodiscard]] bool last_output_matches() const override {
    if (last_.size() != reference_.size()) return false;
    for (std::size_t i = 0; i < last_.size(); ++i) {
      if (!(std::abs(last_[i] - reference_[i]) <= 1e-4f)) return false;
    }
    return true;
  }

 private:
  psf::apps::sobel::Params params_;
  std::vector<float> image_, reference_, last_;
};

/// Heat3D: paper 512^3 grid, scaled from 64^3, 3 iterations. `fused` runs
/// the monitored pipeline (stencil + per-iteration residual reduction in
/// one tile loop), the loop-of-stencil-reduce pattern.
class Heat3dApp final : public App {
 public:
  Heat3dApp(std::uint64_t seed, bool fused)
      : App(fused ? "heat3d_fused" : "heat3d"), fused_(fused) {
    params_.nx = params_.ny = params_.nz = 64;
    params_.iterations = 3;
    params_.seed = seed;
    const double k = 512.0 / static_cast<double>(params_.nx);
    scales_.profile = "heat3d";
    scales_.workload_scale = k * k * k;
    scales_.comm_scale = k * k;
    scales_.seq_units =
        static_cast<double>(params_.nx * params_.ny * params_.nz) *
        params_.iterations;
    field_ = psf::apps::heat3d::generate_field(params_);
  }
  double run_rank(Communicator& comm, const EnvOptions& options) override {
    if (fused_) {
      auto result = psf::apps::heat3d::run_framework_monitored(
          comm, options, params_, field_, /*fused=*/true);
      if (comm.rank() == 0) {
        last_ = std::move(result.field);
        last_residuals_ = std::move(result.residuals);
      }
      return result.vtime;
    }
    auto result =
        psf::apps::heat3d::run_framework(comm, options, params_, field_);
    if (comm.rank() == 0) last_ = std::move(result.field);
    return result.steady_vtime * params_.iterations;
  }
  void make_reference() override {
    reference_ = psf::apps::heat3d::run_sequential(params_, field_).field;
    if (!fused_) return;
    // Residual i = sum of squared cell deltas between sweeps i and i+1.
    reference_residuals_.clear();
    std::vector<double> before = field_;
    auto step = params_;
    step.iterations = 1;
    for (int i = 0; i < params_.iterations; ++i) {
      auto after = psf::apps::heat3d::run_sequential(step, before).field;
      double residual = 0.0;
      for (std::size_t c = 0; c < after.size(); ++c) {
        const double delta = after[c] - before[c];
        residual += delta * delta;
      }
      reference_residuals_.push_back(residual);
      before = std::move(after);
    }
  }
  [[nodiscard]] bool last_output_matches() const override {
    if (!fields_match(last_, reference_, 1e-10)) return false;
    if (!fused_) return true;
    if (last_residuals_.size() != reference_residuals_.size()) return false;
    for (std::size_t i = 0; i < last_residuals_.size(); ++i) {
      if (!near(last_residuals_[i], reference_residuals_[i], 1e-9, 1e-12)) {
        return false;
      }
    }
    return true;
  }

 private:
  bool fused_;
  psf::apps::heat3d::Params params_;
  std::vector<double> field_, reference_, last_;
  std::vector<double> reference_residuals_, last_residuals_;
};

// --- reduction apps -----------------------------------------------------------

/// Kmeans: paper 200M points, scaled from 100k, 40 centers, 1 iteration.
/// `fused` also tracks the clustering inertia in the same emit pass.
class KmeansApp final : public App {
 public:
  KmeansApp(std::uint64_t seed, bool fused)
      : App(fused ? "kmeans_fused" : "kmeans"), fused_(fused) {
    params_.num_points = 100000;
    params_.num_clusters = 40;
    params_.iterations = 1;
    params_.seed = seed;
    scales_.profile = "kmeans";
    scales_.workload_scale = 2.0e8 / static_cast<double>(params_.num_points);
    // Only the combined reduction object crosses the network; its size
    // depends on k, not on the input size.
    scales_.comm_scale = 1.0;
    scales_.seq_units =
        static_cast<double>(params_.num_points) * params_.iterations;
    points_ = psf::apps::kmeans::generate_points(params_);
  }
  double run_rank(Communicator& comm, const EnvOptions& options) override {
    if (fused_) {
      auto result = psf::apps::kmeans::run_framework_monitored(
          comm, options, params_, points_, /*fused=*/true);
      if (comm.rank() == 0) {
        last_ = std::move(result.centers);
        last_inertia_ = std::move(result.inertia);
      }
      return result.vtime;
    }
    auto result =
        psf::apps::kmeans::run_framework(comm, options, params_, points_);
    if (comm.rank() == 0) last_ = std::move(result.centers);
    return result.vtime;
  }
  void make_reference() override {
    reference_ = psf::apps::kmeans::run_sequential(params_, points_).centers;
    if (!fused_) return;
    // Inertia of iteration i: squared distance of every point to its
    // nearest center before that iteration's update.
    reference_inertia_.clear();
    std::vector<double> centers =
        psf::apps::kmeans::initial_centers(params_, points_);
    auto step = params_;
    for (int i = 0; i < params_.iterations; ++i) {
      double inertia = 0.0;
      constexpr int kDims = psf::apps::kmeans::kDims;
      for (std::size_t p = 0; p < params_.num_points; ++p) {
        double best = 0.0;
        for (int c = 0; c < params_.num_clusters; ++c) {
          double dist = 0.0;
          for (int d = 0; d < kDims; ++d) {
            const double diff =
                static_cast<double>(points_[p * kDims + d]) -
                centers[static_cast<std::size_t>(c) * kDims + d];
            dist += diff * diff;
          }
          if (c == 0 || dist < best) best = dist;
        }
        inertia += best;
      }
      reference_inertia_.push_back(inertia);
      step.iterations = i + 1;
      centers = psf::apps::kmeans::run_sequential(step, points_).centers;
    }
  }
  [[nodiscard]] bool last_output_matches() const override {
    if (!fields_match(last_, reference_, 1e-6)) return false;
    if (!fused_) return true;
    if (last_inertia_.size() != reference_inertia_.size()) return false;
    for (std::size_t i = 0; i < last_inertia_.size(); ++i) {
      if (!near(last_inertia_[i], reference_inertia_[i], 1e-9)) return false;
    }
    return true;
  }

 private:
  bool fused_;
  psf::apps::kmeans::Params params_;
  std::vector<float> points_;
  std::vector<double> reference_, last_;
  std::vector<double> reference_inertia_, last_inertia_;
};

/// Moldyn: paper 1M nodes / 130M edges, scaled from 8192 / 65536 in an
/// elongated box, 3 iterations.
class MoldynApp final : public App {
 public:
  explicit MoldynApp(std::uint64_t seed) : App("moldyn") {
    params_.num_nodes = 8192;
    params_.num_edges = 65536;
    params_.aspect = 8.0;
    params_.iterations = 3;
    params_.seed = seed;
    molecules_ = psf::apps::moldyn::generate_molecules(params_);
    edges_ = psf::apps::moldyn::generate_edges(params_);
    scales_.profile = "moldyn";
    scales_.workload_scale = 1.3e8 / static_cast<double>(edges_.size());
    scales_.comm_scale = scales_.workload_scale;
    scales_.node_scale = 1.0e6 / static_cast<double>(params_.num_nodes);
    scales_.seq_units =
        static_cast<double>(edges_.size()) * params_.iterations;
  }
  double run_rank(Communicator& comm, const EnvOptions& options) override {
    // run_framework moves the molecules: every rank starts from a fresh copy.
    auto molecules = molecules_;
    const auto result = psf::apps::moldyn::run_framework(
        comm, options, params_, molecules, edges_);
    if (comm.rank() == 0) last_ = result;
    return result.steady_vtime * params_.iterations;
  }
  void make_reference() override {
    auto molecules = molecules_;
    reference_ =
        psf::apps::moldyn::run_sequential(params_, molecules, edges_);
  }
  [[nodiscard]] bool last_output_matches() const override {
    bool ok = near(last_.kinetic_energy, reference_.kinetic_energy, 1e-7) &&
              near(last_.position_checksum, reference_.position_checksum,
                   1e-6);
    for (int d = 0; d < 3; ++d) {
      ok = ok && near(last_.avg_velocity[d], reference_.avg_velocity[d], 0.0,
                      1e-9);
    }
    return ok;
  }

 private:
  psf::apps::moldyn::Params params_;
  std::vector<psf::apps::moldyn::Molecule> molecules_;
  std::vector<psf::pattern::Edge> edges_;
  psf::apps::moldyn::Result reference_, last_;
};

/// MiniMD: paper 500K atoms, scaled from 4096 in an elongated box,
/// 6 iterations with one neighbor-list rebuild.
class MinimdApp final : public App {
 public:
  explicit MinimdApp(std::uint64_t seed) : App("minimd") {
    params_.num_atoms = 4096;
    params_.side_xy = 4;
    params_.iterations = 6;
    params_.rebuild_every = 5;
    params_.seed = seed;
    atoms_ = psf::apps::minimd::generate_atoms(params_);
    const auto edges_per_step = static_cast<double>(
        psf::apps::minimd::build_neighbor_list(params_, atoms_).size());
    scales_.profile = "minimd";
    // Work units are edges; the paper's LJ system has ~37 neighbors/atom.
    scales_.workload_scale = 5.0e5 * 37.0 / 2.0 / edges_per_step;
    scales_.comm_scale = scales_.workload_scale;
    scales_.node_scale = 5.0e5 / static_cast<double>(params_.num_atoms);
    scales_.seq_units = edges_per_step * params_.iterations;
    const int rebuilds = (params_.iterations - 1) / params_.rebuild_every;
    scales_.seq_extra_vtime = rebuilds * edges_per_step *
                              scales_.workload_scale / 1.0e8;
  }
  double run_rank(Communicator& comm, const EnvOptions& options) override {
    auto atoms = atoms_;
    const auto result =
        psf::apps::minimd::run_framework(comm, options, params_, atoms);
    if (comm.rank() == 0) last_ = result;
    return result.steady_vtime * params_.iterations;
  }
  void make_reference() override {
    auto atoms = atoms_;
    reference_ = psf::apps::minimd::run_sequential(params_, atoms);
  }
  [[nodiscard]] bool last_output_matches() const override {
    return last_.last_edge_count == reference_.last_edge_count &&
           near(last_.kinetic_energy, reference_.kinetic_energy, 1e-6,
                1e-9) &&
           near(last_.temperature, reference_.temperature, 0.0, 1e-9) &&
           near(last_.position_checksum, reference_.position_checksum, 1e-6);
  }

 private:
  psf::apps::minimd::Params params_;
  std::vector<psf::apps::minimd::Atom> atoms_;
  psf::apps::minimd::Result reference_, last_;
};

// --- the sweep ----------------------------------------------------------------

struct DeviceMix {
  const char* slug;
  bool use_cpu;
  int use_gpus;
};
constexpr DeviceMix kDevices[] = {{"cpu", true, 0}, {"cpu+2gpu", true, 2}};
constexpr int kRanks[] = {1, 2, 4};
/// Executor width per rank count: ranks x width stays within 4 cores.
constexpr int width_for(int ranks) { return 4 / ranks; }

std::vector<std::unique_ptr<App>> make_apps(const std::string& workload,
                                            std::uint64_t seed) {
  std::vector<std::unique_ptr<App>> apps;
  if (workload == "stencil_sweep") {
    apps.push_back(std::make_unique<SobelApp>(derive_seed(seed, 1)));
    apps.push_back(std::make_unique<Heat3dApp>(derive_seed(seed, 2), false));
    apps.push_back(std::make_unique<Heat3dApp>(derive_seed(seed, 2), true));
  } else {
    apps.push_back(std::make_unique<KmeansApp>(derive_seed(seed, 3), false));
    apps.push_back(std::make_unique<KmeansApp>(derive_seed(seed, 3), true));
    apps.push_back(std::make_unique<MoldynApp>(derive_seed(seed, 4)));
    apps.push_back(std::make_unique<MinimdApp>(derive_seed(seed, 5)));
  }
  return apps;
}

/// Runs one cell: a fresh paper-priced World, every rank through the app's
/// run_framework. Returns the makespan vtime (max over ranks).
double run_cell(App& app, const DeviceMix& devices, int ranks,
                psf::timemodel::TraceRecorder* trace) {
  const auto preset = psf::timemodel::testbed_preset();
  psf::minimpi::World world(ranks, psf::timemodel::LinkModel::infiniband(),
                            preset.overheads);
  world.set_byte_scale(app.scales().comm_scale);
  world.set_trace(trace);
  std::vector<double> vtimes(static_cast<std::size_t>(ranks), 0.0);
  world.run([&](Communicator& comm) {
    EnvOptions options;
    options.app_profile = app.scales().profile;
    options.use_cpu = devices.use_cpu;
    options.use_gpus = devices.use_gpus;
    options.workload_scale = app.scales().workload_scale;
    options.comm_scale = app.scales().comm_scale;
    options.node_scale = app.scales().node_scale;
    options.num_threads = width_for(ranks);
    options.trace = trace;
    vtimes[static_cast<std::size_t>(comm.rank())] =
        app.run_rank(comm, options);
  });
  return *std::max_element(vtimes.begin(), vtimes.end());
}

/// Timings of one pass over every cell.
struct PassTimes {
  std::vector<double> latency;             ///< per cell, seconds
  double analysis_s = 0.0;                 ///< critical-path analysis wall
  std::map<std::string, double> critical;  ///< vtime by category (traced)
};

/// Each cell's fastest latency over `passes`, in seconds.
std::vector<double> cell_fastest(const std::vector<PassTimes>& passes) {
  std::vector<std::vector<double>> series(passes.front().latency.size());
  for (const auto& p : passes) {
    for (std::size_t c = 0; c < series.size(); ++c) {
      series[c].push_back(p.latency[c]);
    }
  }
  return fastest(series);
}

class Sweep {
 public:
  Sweep(const std::string& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {}

  /// Generates the inputs (again). Same seed, same inputs.
  void generate() { apps_ = make_apps(workload_, seed_); }

  /// Sequential references; returns their wall (the apps.reference_ms span).
  double make_references() {
    const auto begin = Clock::now();
    for (auto& app : apps_) app->make_reference();
    return seconds_since(begin);
  }

  /// One pass over all cells; every cell's output and vtime are checked.
  PassTimes pass(Report& report, bool traced) {
    PassTimes times;
    std::size_t cell = 0;
    for (auto& app : apps_) {
      for (const auto& devices : kDevices) {
        for (const int ranks : kRanks) {
          std::unique_ptr<psf::timemodel::TraceRecorder> trace;
          if (traced) trace = std::make_unique<psf::timemodel::TraceRecorder>();
          const auto begin = Clock::now();
          const double vtime = run_cell(*app, devices, ranks, trace.get());
          times.latency.push_back(seconds_since(begin));
          if (cell_app_.size() <= cell) cell_app_.push_back(app->name());
          // Vtime must repeat bit-identically across passes and with the
          // recorder armed; the output must match the sequential reference.
          if (vtimes_.size() <= cell) {
            vtimes_.push_back(vtime);
            speedups_.push_back(app->scales().sequential_vtime() / vtime);
          }
          report.check(vtime == vtimes_[cell] && app->last_output_matches());
          if (trace) {
            const auto analysis_begin = Clock::now();
            const auto graph =
                psf::analysis::TraceGraph::from_recorder(*trace);
            const auto path = psf::analysis::analyze(graph).critical_path;
            times.analysis_s += seconds_since(analysis_begin);
            for (const auto& [category, seconds] : path.by_category) {
              times.critical[category] += seconds;
            }
          }
          ++cell;
        }
      }
    }
    return times;
  }

  /// Geometric mean over cells of sequential vtime / modeled vtime.
  [[nodiscard]] double modeled_speedup() const {
    double log_sum = 0.0;
    for (double s : speedups_) log_sum += std::log(s);
    return std::exp(log_sum / static_cast<double>(speedups_.size()));
  }
  [[nodiscard]] std::size_t cells() const { return vtimes_.size(); }
  /// App name of every cell, in pass order.
  [[nodiscard]] const std::vector<std::string>& cell_app() const {
    return cell_app_;
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<App>> apps_;
  std::vector<double> vtimes_;    ///< per cell, from the first pass
  std::vector<double> speedups_;  ///< per cell
  std::vector<std::string> cell_app_;
};

/// Set-up: the apps' inputs and their sequential references. The first
/// set-up is timed from process start.
double set_up(Sweep& sweep, Clock::time_point begin, double& reference_s) {
  sweep.generate();
  reference_s = sweep.make_references();
  return seconds_since(begin);
}

}  // namespace

void run_sweep(const Options& options, Clock::time_point start,
               Report& report) {
  report.notes.push_back("nproc " + std::to_string(host_cpus()) +
                         "; executor width 4/2/1 at 1/2/4 ranks");
  Sweep sweep(options.workload, options.seed);
  double reference_s = 0.0;
  // The first set-up is timed from process start; more follow every second
  // measured pass, and setup_s is the median of all. Set-ups made back to
  // back at process start all catch the same moment of the host: their
  // median spread 0.25 over six runs, where set-ups spread over the
  // measuring period gave a median that spread 0.05.
  std::vector<double> setups;
  setups.push_back(set_up(sweep, start, reference_s));
  // One warm pass, untimed: the process's first passes run up to 2x slower
  // than later ones, and that cold cost moves with the host's noise far
  // more than any bound allows.
  sweep.pass(report, /*traced=*/false);

  auto& registry = psf::metrics::Registry::global();
  auto& pool = psf::support::BufferPool::global();
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> timers;
  std::uint64_t pool_hits = 0, pool_misses = 0;
  if (options.trace) {
    // Counter pass: one untraced pass with the registry zeroed first.
    registry.reset_values();
    const std::uint64_t hits0 = pool.hits(), misses0 = pool.misses();
    sweep.pass(report, false);
    counters = registry.counters();
    for (const auto& [name, sample] : registry.timers()) {
      timers[name] = sample.seconds;
    }
    pool_hits = pool.hits() - hits0;
    pool_misses = pool.misses() - misses0;
  }

  // Measured passes (untraced), at least three.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<PassTimes> passes;
  const auto measure_begin = Clock::now();
  while (passes.size() < 3 || seconds_since(measure_begin) < budget) {
    passes.push_back(sweep.pass(report, false));
    if (passes.size() % 2 == 0) {
      setups.push_back(set_up(sweep, Clock::now(), reference_s));
    }
  }
  const auto cell_s = cell_fastest(passes);
  const double wall = sum(cell_s);

  if (!options.trace) {
    report.set("setup_s", median(setups), "s");
    report.set("wall_s", wall, "s");
    report.set("modeled_speedup", sweep.modeled_speedup(), "x");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    // A sweep is one closed-loop client: its rate is cells per second.
    report.set("max_rate_jobs_per_s",
               static_cast<double>(sweep.cells()) / wall, "1/s");
    return;
  }

  // Traced passes: same cells with a TraceRecorder per cell; the first
  // gives the span count and the vtime split.
  std::vector<PassTimes> traced;
  registry.reset_values();
  const auto traced_begin = Clock::now();
  traced.push_back(sweep.pass(report, true));
  report.set("timemodel.trace_spans",
             static_cast<double>(
                 registry.counter("timemodel.trace_spans").value()),
             "count");
  while (traced.size() < 2 || seconds_since(traced_begin) < budget) {
    traced.push_back(sweep.pass(report, true));
  }
  std::vector<double> analysis;
  for (const auto& p : traced) analysis.push_back(p.analysis_s);
  report.set("trace.overhead_ratio", sum(cell_fastest(traced)) / wall,
             "ratio");
  report.set("analysis.critical_path_ms", median(analysis) * 1e3, "ms");
  for (const char* category : {"compute", "comm", "copy", "idle"}) {
    const auto it = traced.front().critical.find(category);
    report.set(std::string("vtime.") + category + "_s",
               it == traced.front().critical.end() ? 0.0 : it->second, "s");
  }
  std::map<std::string, double> app_s;
  for (std::size_t c = 0; c < cell_s.size(); ++c) {
    app_s[sweep.cell_app()[c]] += cell_s[c];
  }
  for (const auto& [app, seconds] : app_s) {
    report.set("apps." + app + ".run_ms", seconds * 1e3, "ms");
  }
  report.set("apps.reference_ms", reference_s * 1e3, "ms");
  report_layer_counters(counters, timers, pool_hits, pool_misses, report);
  probe_layers(options.seed, report);
}

}  // namespace perfbench
