// PSF — Pattern Specification Framework
// Pattern composition layer: the fused stencil_reduce pattern and the
// pattern-DAG runner, behind one unified typed surface.
//
// The three pattern runtimes (GR/IR/ST) are deliberately independent — the
// paper's apps drive them one at a time. Real applications chain them: a
// stencil sweep feeds a convergence reduction every iteration (heat3d
// residual, kmeans delta), and pipelines of stages want to share the rank's
// executor, buffer pool and trace. This layer adds exactly that glue:
//
//  * `StencilReduce` — the fused stencil+reduce pattern (Aldinucci et al.,
//    "A parallel pattern for iterative stencil + reduce"): the sweep's tile
//    loop emits into per-block staging reduction objects as it writes each
//    cell, and the iteration boundary reuses GR's binary-tree
//    combine/broadcast. This deletes the second grid pass and one barrier
//    per iteration while staying BIT-IDENTICAL to the unfused
//    sweep-then-reduce sequence at every executor width (same staging
//    structure, same fixed merge order, same combine tree).
//
//  * `PatternGraph` — a small deterministic DAG runner whose nodes are
//    pattern stages and whose edges hand pooled buffers downstream
//    zero-copy. Stages share one RuntimeEnv (executor + devices + virtual
//    clock); every handoff records a causal trace edge so psf-analyze
//    attributes the critical path across stages.
//
//  * `Pattern` — the concept every composable stage satisfies
//    (`run(iterations) -> support::Status`); TypedStencil, TypedGReduce,
//    TypedIReduce and StencilReduce all model it, so any of them drops into
//    a PatternGraph stage unchanged.
//
// All entry points validate their wiring and return support::Status per the
// framework error contract (support/error.h); nothing here aborts on bad
// user input.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pattern/greduction.h"
#include "pattern/reduction_object.h"
#include "pattern/stencil.h"
#include "pattern/typed.h"
#include "support/buffer_pool.h"
#include "support/error.h"

namespace psf::pattern {

class RuntimeEnv;

/// A composable pattern stage: anything that can execute `iterations`
/// collective steps and report failure through the Status contract. The
/// typed facades (TypedStencil, TypedGReduce, TypedIReduce) and the fused
/// StencilReduce all model this, so they plug into PatternGraph::add_stage
/// directly.
template <typename P>
concept Pattern = requires(P& pattern, int iterations) {
  { pattern.run(iterations) } -> std::same_as<support::Status>;
};

// ---------------------------------------------------------------------------
// StencilReduce — fused stencil + reduction
// ---------------------------------------------------------------------------

/// Fused stencil+reduction pattern. Obtain from RuntimeEnv::get_SR(); it
/// borrows the environment's StencilRuntime for the sweep and GR's
/// combine_and_broadcast for the iteration boundary.
///
/// Per step() the sweep runs exactly as StencilRuntime::start() would, but
/// each interior cell additionally feeds a captureless emit right after it
/// is written, into a per-(device, block, pass) staging object. Staging
/// objects merge in fixed device -> block -> inner-then-boundary order, so
/// the reduction bytes are independent of executor width — and identical to
/// set_fused(false), which instead re-walks the grid after the sweep
/// (StencilRuntime::reduce_pass) at the cost of one full extra grid pass
/// plus a barrier. Prefer the typed facade TypedStencilReduce below.
class StencilReduce {
 public:
  explicit StencilReduce(RuntimeEnv& env);
  ~StencilReduce();

  StencilReduce(const StencilReduce&) = delete;
  StencilReduce& operator=(const StencilReduce&) = delete;

  // --- stencil side (forwards to the borrowed StencilRuntime) ---------------

  void set_stencil_func(StencilFn fn);
  void set_grid(const void* global_grid, std::size_t elem_bytes,
                const std::vector<std::size_t>& dims);
  void set_halo(int halo);
  void set_topology(const std::vector<int>& dims);
  void set_periodic(const std::vector<bool>& periodic);
  void set_parameter(const void* parameter);

  // --- reduction side -------------------------------------------------------

  /// Per-cell emit, called once for every interior cell of every sweep (see
  /// CellEmitFn in pattern/stencil.h for the aliasing contract).
  void set_cell_emit(CellEmitFn emit) { emit_ = emit; }
  void set_emit_parameter(const void* parameter) { emit_parameter_ = parameter; }
  /// The commutative/associative combine for staged values.
  void set_combine(ReduceFn reduce) { reduce_ = reduce; }
  /// Size the reduction: `capacity` distinct keys of `value_size` bytes.
  void configure_object(std::size_t capacity, std::size_t value_size);
  /// Fused (default) folds the emit into the sweep's tile loop at zero
  /// extra virtual time; unfused runs the reference second grid pass. Both
  /// produce bit-identical grids AND reductions — unfused exists as the
  /// semantics oracle and the bench baseline the fusion is measured against.
  void set_fused(bool fused) { fused_ = fused; }

  // --- execution ------------------------------------------------------------

  /// One sweep + one global reduction (collective). After it returns,
  /// reduction() holds the combined object, valid on every rank.
  support::Status step();
  /// Run `iterations` fused steps.
  support::Status run(int iterations);

  /// The global reduction of the latest step(); valid on every rank.
  [[nodiscard]] const ReductionObject& reduction() const;

  /// Distributed write-back of the grid (StencilRuntime::write_back).
  void write_back(void* global_out) const;

  /// Collective gather of the grid to `root` (StencilRuntime::gather).
  void gather(void* global_out, int root);

  // --- introspection --------------------------------------------------------

  struct Stats {
    double last_sweep_vtime = 0.0;        ///< halo exchange + compute + swap
    double last_reduce_pass_vtime = 0.0;  ///< extra grid pass (0 when fused)
    double last_combine_vtime = 0.0;      ///< staging merge + tree + bcast
    double last_step_vtime = 0.0;         ///< whole step, this rank
    int steps = 0;
    bool fused = true;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] StencilRuntime& stencil() noexcept { return *st_; }

 private:
  class StagingSink;

  [[nodiscard]] support::Status validate() const;

  RuntimeEnv* env_;
  StencilRuntime* st_;
  CellEmitFn emit_ = nullptr;
  const void* emit_parameter_ = nullptr;
  ReduceFn reduce_ = nullptr;
  std::size_t object_capacity_ = 0;
  std::size_t value_size_ = 0;
  bool fused_ = true;
  std::unique_ptr<StagingSink> sink_;
  std::unique_ptr<ReductionObject> global_;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// PatternGraph — deterministic pattern-DAG runner
// ---------------------------------------------------------------------------

class PatternGraph;

/// Execution context handed to each stage callable: its inputs (spans into
/// the producers' pooled output buffers, zero-copy), its output channel, and
/// the shared environment. Only valid during the stage call.
class StageContext {
 public:
  [[nodiscard]] RuntimeEnv& env() noexcept;
  /// 0-based round index of PatternGraph::run.
  [[nodiscard]] int round() const noexcept { return round_; }

  /// Number of inbound edges (in connect() order).
  [[nodiscard]] std::size_t num_inputs() const noexcept;
  /// Bytes the `index`-th producer published this round. The span aliases
  /// the producer's pooled buffer — read-only, zero-copy, valid until the
  /// round ends.
  [[nodiscard]] std::span<const std::byte> input(std::size_t index) const;

  /// Publish this stage's output for the round by copying `bytes` into a
  /// pooled buffer. One publish per stage per round.
  support::Status publish(std::span<const std::byte> bytes);
  /// Zero-copy variant: reserve a pooled output buffer of `size` bytes and
  /// write the payload directly into the returned span (it is the published
  /// output; contents are NOT zeroed). Fails like publish() on re-publish.
  support::StatusOr<std::span<std::byte>> reserve_output(std::size_t size);

 private:
  friend class PatternGraph;
  StageContext(PatternGraph* graph, std::size_t stage, int round)
      : graph_(graph), stage_(stage), round_(round) {}

  PatternGraph* graph_;
  std::size_t stage_;
  int round_;
};

/// A DAG of pattern stages sharing one RuntimeEnv. Stages execute in a
/// DETERMINISTIC topological order (Kahn's algorithm, ties broken by
/// insertion order), so two runs of the same graph schedule identically.
/// Edges hand pooled buffers downstream and record `handoff` trace edges,
/// stitching the stages into one causal DAG for psf-analyze.
///
/// Like the pattern runtimes, a graph is a per-rank SPMD object: every rank
/// builds the same graph and run() executes stage bodies collectively.
class PatternGraph {
 public:
  /// Stage body: runs one round of the stage's pattern(s).
  using StageFn = std::function<support::Status(StageContext&)>;

  explicit PatternGraph(RuntimeEnv& env);
  ~PatternGraph();

  PatternGraph(const PatternGraph&) = delete;
  PatternGraph& operator=(const PatternGraph&) = delete;

  /// Add a named stage. Names are unique non-empty identifiers; they appear
  /// in error messages, trace spans and psf-analyze output.
  support::Status add_stage(std::string name, StageFn fn);

  /// Add a Pattern-modeling stage that runs `iterations` of `pattern` per
  /// round. The pattern is borrowed and must outlive the graph.
  template <Pattern P>
  support::Status add_stage(std::string name, P& pattern, int iterations = 1) {
    return add_stage(std::move(name),
                     [&pattern, iterations](StageContext&) {
                       return pattern.run(iterations);
                     });
  }

  /// Declare a buffer handoff from stage `from` to stage `to`. When
  /// `bytes` is non-zero the producer must publish exactly that many bytes
  /// each round (checked at run time); 0 accepts any size. Both stages must
  /// already exist — dangling edges are rejected here, not discovered
  /// during run().
  support::Status connect(const std::string& from, const std::string& to,
                          std::size_t bytes = 0);

  /// Validate the wiring and fix the execution order. Called implicitly by
  /// run(); call it directly to surface graph errors (cycles, conflicting
  /// edge sizes) before paying for any stage work.
  support::Status compile();

  /// Execute `rounds` rounds; each round runs every stage once in the
  /// compiled topological order. Output buffers return to the buffer pool
  /// at the end of each round, so the steady state re-acquires the same
  /// storage with zero pool misses.
  support::Status run(int rounds = 1);

  /// The compiled stage order (valid after compile()/run()).
  [[nodiscard]] const std::vector<std::string>& topo_order() const noexcept {
    return topo_names_;
  }

 private:
  friend class StageContext;

  struct EdgeRec {
    std::size_t from = 0;
    std::size_t to = 0;
    std::size_t declared_bytes = 0;  ///< 0 = any size
  };
  struct StageRec {
    std::string name;
    StageFn fn;
    std::vector<std::size_t> in_edges;   ///< edge indices, connect() order
    std::vector<std::size_t> out_edges;
    // Per-round state:
    support::PooledBuffer output;
    std::size_t published_bytes = 0;
    bool has_output = false;
    std::uint64_t span = 0;  ///< trace span of this stage, current round
  };

  [[nodiscard]] std::size_t find_stage(const std::string& name) const;
  [[nodiscard]] std::string known_stages() const;

  RuntimeEnv* env_;
  std::vector<StageRec> stages_;
  std::vector<EdgeRec> edges_;
  std::vector<std::size_t> order_;      ///< compiled topological order
  std::vector<std::string> topo_names_;
  bool compiled_ = false;
};

// ---------------------------------------------------------------------------
// TypedStencilReduce — typed facade over StencilReduce
// ---------------------------------------------------------------------------

/// Typed fused stencil+reduce for element type T, dimensionality N and
/// reduction value type Value — the composition counterpart of TypedStencil.
/// Callables must be CAPTURELESS (same restriction as the other typed
/// facades); state goes through set_parameter / set_emit_parameter.
///
///   TypedStencilReduce<double, 3, double> sr(env);
///   sr.set_stencil([](const GridView<double, 3>& in,
///                     const MutableGridView<double, 3>& out,
///                     const int* c, const void*) { ... });
///   sr.set_emit([](TypedObject<double>& obj, const GridView<double, 3>& old_g,
///                  const GridView<double, 3>& new_g, const int* c,
///                  const void*) { obj.insert(0, delta(old_g, new_g, c)); });
///   sr.set_combine([](double& dst, const double& src) { dst += src; });
template <typename T, int N, typename Value>
  requires std::is_trivially_copyable_v<T> &&
           std::is_trivially_copyable_v<Value> && (N >= 1 && N <= 3)
class TypedStencilReduce {
 public:
  explicit TypedStencilReduce(RuntimeEnv& env) : sr_(env.get_SR()) {}

  /// Captureless stencil callable: (in view, out view, offset[N], param).
  template <typename Parameter = void, typename Fn>
  void set_stencil(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "stencil callables must be captureless; use set_parameter");
    sr_->set_stencil_func([](const void* input, void* output,
                             const int* offset, const int* size,
                             const void* parameter) {
      GridView<T, N> in(input, size);
      MutableGridView<T, N> out(output, size);
      Fn{}(in, out, offset, static_cast<const Parameter*>(parameter));
    });
  }

  /// Captureless per-cell emit: (object, old grid, new grid, offset[N],
  /// param), called right after the sweep writes the cell at `offset`. Read
  /// only that cell in either view — neighbors of the new grid may not be
  /// written yet.
  template <typename Parameter = void, typename Fn>
  void set_emit(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "emit callables must be captureless; use set_emit_parameter");
    sr_->set_cell_emit([](ReductionObject* obj, const void* old_grid,
                          const void* new_grid, const int* offset,
                          const int* size, const void* parameter) {
      TypedObject<Value> typed(*obj);
      GridView<T, N> before(old_grid, size);
      GridView<T, N> after(new_grid, size);
      Fn{}(typed, before, after, offset,
           static_cast<const Parameter*>(parameter));
    });
  }

  /// Captureless combine callable for reduction values.
  template <typename Fn>
  void set_combine(Fn) {
    static_assert(std::is_empty_v<Fn>, "combine callables must be captureless");
    sr_->set_combine([](void* dst, const void* src) {
      Fn{}(*static_cast<Value*>(dst), *static_cast<const Value*>(src));
    });
  }

  void set_grid(std::span<const T> grid,
                const std::vector<std::size_t>& dims) {
    PSF_CHECK(dims.size() == static_cast<std::size_t>(N));
    std::size_t cells = 1;
    for (std::size_t d : dims) cells *= d;
    PSF_CHECK_MSG(cells == grid.size(), "grid size does not match extents");
    sr_->set_grid(grid.data(), sizeof(T), dims);
  }
  void set_halo(int halo) { sr_->set_halo(halo); }
  void set_topology(const std::vector<int>& dims) { sr_->set_topology(dims); }
  void set_periodic(const std::vector<bool>& periodic) {
    sr_->set_periodic(periodic);
  }
  template <typename Parameter>
  void set_parameter(const Parameter* parameter) {
    sr_->set_parameter(parameter);
  }
  template <typename Parameter>
  void set_emit_parameter(const Parameter* parameter) {
    sr_->set_emit_parameter(parameter);
  }
  /// Size the reduction for `capacity` distinct keys.
  void configure(std::size_t capacity) {
    sr_->configure_object(capacity, sizeof(Value));
  }
  void set_fused(bool fused) { sr_->set_fused(fused); }

  support::Status step() { return sr_->step(); }
  support::Status run(int iterations) { return sr_->run(iterations); }

  [[nodiscard]] bool lookup(std::uint64_t key, Value* out) const {
    return sr_->reduction().lookup(key, out);
  }
  void write_back(std::span<T> out) const { sr_->write_back(out.data()); }
  void gather(std::span<T> out, int root) { sr_->gather(out.data(), root); }

  [[nodiscard]] const StencilReduce::Stats& stats() const noexcept {
    return sr_->stats();
  }
  [[nodiscard]] StencilReduce& raw() noexcept { return *sr_; }

 private:
  StencilReduce* sr_;
};

static_assert(Pattern<StencilReduce>);
static_assert(Pattern<TypedStencilReduce<double, 3, double>>);
static_assert(Pattern<TypedStencil<double, 2>>);
static_assert(Pattern<TypedGReduce<std::uint32_t, double>>);
static_assert(Pattern<TypedIReduce<double, double>>);

}  // namespace psf::pattern
