// PSF — Pattern Specification Framework
// Pattern composition layer implementation (see compose.h).
#include "pattern/compose.h"

#include <algorithm>
#include <cstring>

#include "devsim/device.h"
#include "pattern/runtime_env.h"
#include "support/metrics.h"
#include "timemodel/trace.h"

namespace psf::pattern {

// ---------------------------------------------------------------------------
// StencilReduce::StagingSink
// ---------------------------------------------------------------------------

/// Per-(device, block, pass) staging objects for the emit path. Slots are
/// laid out device-major, two per block (inner pass, boundary pass); blocks
/// write disjoint slots, so concurrent launches never race. block_object()
/// replaces the slot with a FRESH object on every fetch — one fetch per
/// block launch — which is what makes a host replay after a device loss
/// idempotent. merge_into() walks slots in their fixed layout order, so the
/// merged bytes are independent of executor width and identical between the
/// fused sweep and the unfused reduce_pass (both visit (device, block,
/// pass) the same way).
class StencilReduce::StagingSink : public StencilEmitSink {
 public:
  void reset(const std::vector<devsim::Device*>& devices, std::size_t capacity,
             std::size_t value_size, ReduceFn reduce) {
    capacity_ = capacity;
    value_size_ = value_size;
    reduce_ = reduce;
    offsets_.assign(devices.size() + 1, 0);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      offsets_[d + 1] =
          offsets_[d] +
          static_cast<std::size_t>(devices[d]->descriptor().compute_units);
    }
    slots_.clear();
    slots_.resize(offsets_.back() * 2);
  }

  ReductionObject* block_object(int device, int block,
                                bool inner_pass) override {
    auto& slot = slots_[(offsets_[static_cast<std::size_t>(device)] +
                         static_cast<std::size_t>(block)) *
                            2 +
                        (inner_pass ? 0 : 1)];
    slot = std::make_unique<ReductionObject>(ObjectLayout::kHash, capacity_,
                                             value_size_, reduce_);
    return slot.get();
  }

  void merge_into(ReductionObject& target) const {
    for (const auto& slot : slots_) {
      if (slot) target.merge_from(*slot);
    }
  }

 private:
  std::size_t capacity_ = 0;
  std::size_t value_size_ = 0;
  ReduceFn reduce_ = nullptr;
  std::vector<std::size_t> offsets_;
  std::vector<std::unique_ptr<ReductionObject>> slots_;
};

// ---------------------------------------------------------------------------
// StencilReduce
// ---------------------------------------------------------------------------

StencilReduce::StencilReduce(RuntimeEnv& env)
    : env_(&env), st_(env.get_ST()), sink_(std::make_unique<StagingSink>()) {}

StencilReduce::~StencilReduce() = default;

void StencilReduce::set_stencil_func(StencilFn fn) {
  // The composition layer is a sanctioned caller of the raw setter — the
  // typed facade lowers through here.
  PSF_SUPPRESS_DEPRECATED_BEGIN
  st_->set_stencil_func(fn);
  PSF_SUPPRESS_DEPRECATED_END
}

void StencilReduce::set_grid(const void* global_grid, std::size_t elem_bytes,
                             const std::vector<std::size_t>& dims) {
  st_->set_grid(global_grid, elem_bytes, dims);
}

void StencilReduce::set_halo(int halo) { st_->set_halo(halo); }

void StencilReduce::set_topology(const std::vector<int>& dims) {
  st_->set_topology(dims);
}

void StencilReduce::set_periodic(const std::vector<bool>& periodic) {
  st_->set_periodic(periodic);
}

void StencilReduce::set_parameter(const void* parameter) {
  st_->set_parameter(parameter);
}

void StencilReduce::configure_object(std::size_t capacity,
                                     std::size_t value_size) {
  object_capacity_ = capacity;
  value_size_ = value_size;
}

support::Status StencilReduce::validate() const {
  if (emit_ == nullptr) {
    return support::Status::invalid_argument(
        "stencil_reduce: no per-cell emit registered — call set_cell_emit() "
        "(or TypedStencilReduce::set_emit) before step()");
  }
  if (reduce_ == nullptr) {
    return support::Status::invalid_argument(
        "stencil_reduce: no combine registered — call set_combine() before "
        "step()");
  }
  if (object_capacity_ == 0 || value_size_ == 0) {
    return support::Status::invalid_argument(
        "stencil_reduce: reduction object not sized — call "
        "configure_object(capacity, value_size) (TypedStencilReduce: "
        "configure(capacity)) before step()");
  }
  return support::Status::ok();
}

support::Status StencilReduce::step() {
  PSF_RETURN_IF_ERROR(validate());
  auto& comm = env_->comm();
  const double step_t0 = comm.timeline().now();

  sink_->reset(env_->active_devices(), object_capacity_, value_size_,
               reduce_);
  if (fused_) {
    // The emit rides the sweep's tile loop: zero extra grid traffic, zero
    // extra launches, no second barrier.
    st_->set_fused_emit(emit_, emit_parameter_, sink_.get());
    support::Status sweep = st_->start();
    st_->clear_fused_emit();
    PSF_RETURN_IF_ERROR(sweep);
  } else {
    // Reference path: sweep, then re-walk the grid as a separate pass.
    PSF_RETURN_IF_ERROR(st_->start());
    PSF_RETURN_IF_ERROR(
        st_->reduce_pass(emit_, emit_parameter_, sink_.get()));
  }

  const double combine_t0 = comm.timeline().now();
  global_ = std::make_unique<ReductionObject>(ObjectLayout::kHash,
                                              object_capacity_, value_size_,
                                              reduce_);
  sink_->merge_into(*global_);
  auto* trace = env_->options().trace;
  const std::uint64_t combine_span =
      combine_and_broadcast(comm, *global_, trace, "sr combine");
  stats_.last_combine_vtime = comm.timeline().now() - combine_t0;
  if (combine_span != 0) {
    // The combine consumes the per-device compute spans: the boundary-tile
    // spans when the emit was fused into the sweep, the reduce-pass spans
    // otherwise.
    const auto& spans = fused_ ? st_->last_compute_span_ids()
                               : st_->last_reduce_span_ids();
    for (const std::uint64_t span : spans) {
      trace->record_edge(span, combine_span, "chunk");
    }
  }

  stats_.last_sweep_vtime = st_->stats().last_iteration_vtime;
  stats_.last_reduce_pass_vtime = fused_ ? 0.0 : st_->last_reduce_pass_vtime();
  stats_.last_step_vtime = comm.timeline().now() - step_t0;
  stats_.fused = fused_;
  ++stats_.steps;
  PSF_METRIC_ADD("pattern.sr.steps", 1);
  PSF_METRIC_OBSERVE("pattern.sr.step_vtime", stats_.last_step_vtime);
  return support::Status::ok();
}

support::Status StencilReduce::run(int iterations) {
  if (iterations <= 0) {
    return support::Status::invalid_argument(
        "stencil_reduce: run(iterations = " + std::to_string(iterations) +
        ") — iterations must be positive");
  }
  for (int i = 0; i < iterations; ++i) {
    PSF_RETURN_IF_ERROR(step());
  }
  return support::Status::ok();
}

const ReductionObject& StencilReduce::reduction() const {
  PSF_CHECK_MSG(global_ != nullptr, "reduction() before step()");
  return *global_;
}

void StencilReduce::write_back(void* global_out) const {
  st_->write_back(global_out);
}

void StencilReduce::gather(void* global_out, int root) {
  st_->gather(global_out, root);
}

// ---------------------------------------------------------------------------
// StageContext
// ---------------------------------------------------------------------------

RuntimeEnv& StageContext::env() noexcept { return *graph_->env_; }

std::size_t StageContext::num_inputs() const noexcept {
  return graph_->stages_[stage_].in_edges.size();
}

std::span<const std::byte> StageContext::input(std::size_t index) const {
  const auto& stage = graph_->stages_[stage_];
  PSF_CHECK_MSG(index < stage.in_edges.size(),
                "stage '" << stage.name << "' has " << stage.in_edges.size()
                          << " input(s); input(" << index
                          << ") is out of range");
  const auto& producer =
      graph_->stages_[graph_->edges_[stage.in_edges[index]].from];
  // run() verified the producer published before this stage started.
  return {producer.output.data(), producer.published_bytes};
}

support::Status StageContext::publish(std::span<const std::byte> bytes) {
  auto reserved = reserve_output(bytes.size());
  if (!reserved.is_ok()) return reserved.status();
  std::memcpy(reserved.value().data(), bytes.data(), bytes.size());
  return support::Status::ok();
}

support::StatusOr<std::span<std::byte>> StageContext::reserve_output(
    std::size_t size) {
  auto& stage = graph_->stages_[stage_];
  if (stage.has_output) {
    return support::Status::failed_precondition(
        "stage '" + stage.name +
        "' already published an output this round — one publish per stage "
        "per round");
  }
  stage.output = support::BufferPool::global().acquire(size);
  stage.published_bytes = size;
  stage.has_output = true;
  return std::span<std::byte>{stage.output.data(), size};
}

// ---------------------------------------------------------------------------
// PatternGraph
// ---------------------------------------------------------------------------

PatternGraph::PatternGraph(RuntimeEnv& env) : env_(&env) {}

PatternGraph::~PatternGraph() = default;

std::size_t PatternGraph::find_stage(const std::string& name) const {
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].name == name) return i;
  }
  return stages_.size();
}

std::string PatternGraph::known_stages() const {
  if (stages_.empty()) return "(none)";
  std::string out;
  for (const auto& stage : stages_) {
    if (!out.empty()) out += ", ";
    out += "'" + stage.name + "'";
  }
  return out;
}

support::Status PatternGraph::add_stage(std::string name, StageFn fn) {
  if (name.empty()) {
    return support::Status::invalid_argument(
        "pattern_graph: stage names must be non-empty");
  }
  if (fn == nullptr) {
    return support::Status::invalid_argument(
        "pattern_graph: stage '" + name + "' has no body — pass a callable");
  }
  if (find_stage(name) != stages_.size()) {
    return support::Status::invalid_argument(
        "pattern_graph: duplicate stage '" + name +
        "' — stage names must be unique");
  }
  StageRec stage;
  stage.name = std::move(name);
  stage.fn = std::move(fn);
  stages_.push_back(std::move(stage));
  compiled_ = false;
  return support::Status::ok();
}

support::Status PatternGraph::connect(const std::string& from,
                                      const std::string& to,
                                      std::size_t bytes) {
  const std::size_t src = find_stage(from);
  if (src == stages_.size()) {
    return support::Status::invalid_argument(
        "pattern_graph: connect('" + from + "' -> '" + to +
        "') references unknown stage '" + from +
        "' — add_stage() it first (known stages: " + known_stages() + ")");
  }
  const std::size_t dst = find_stage(to);
  if (dst == stages_.size()) {
    return support::Status::invalid_argument(
        "pattern_graph: connect('" + from + "' -> '" + to +
        "') references unknown stage '" + to +
        "' — add_stage() it first (known stages: " + known_stages() + ")");
  }
  if (src == dst) {
    return support::Status::invalid_argument(
        "pattern_graph: connect('" + from + "' -> '" + to +
        "') is a self-loop; a stage cannot consume its own round's output");
  }
  for (const std::size_t e : stages_[src].out_edges) {
    if (edges_[e].to == dst) {
      return support::Status::invalid_argument(
          "pattern_graph: '" + from + "' -> '" + to +
          "' is already connected");
    }
  }
  EdgeRec edge;
  edge.from = src;
  edge.to = dst;
  edge.declared_bytes = bytes;
  stages_[src].out_edges.push_back(edges_.size());
  stages_[dst].in_edges.push_back(edges_.size());
  edges_.push_back(edge);
  compiled_ = false;
  return support::Status::ok();
}

support::Status PatternGraph::compile() {
  if (compiled_) return support::Status::ok();
  if (stages_.empty()) {
    return support::Status::failed_precondition(
        "pattern_graph: no stages — add_stage() before compile()/run()");
  }

  // A producer publishes one buffer per round, so every non-zero size its
  // out-edges declare must agree.
  for (const auto& stage : stages_) {
    std::size_t declared = 0;
    for (const std::size_t e : stage.out_edges) {
      const std::size_t bytes = edges_[e].declared_bytes;
      if (bytes == 0) continue;
      if (declared == 0) {
        declared = bytes;
      } else if (declared != bytes) {
        return support::Status::invalid_argument(
            "pattern_graph: stage '" + stage.name +
            "' has outgoing edges declaring conflicting sizes (" +
            std::to_string(declared) + " vs " + std::to_string(bytes) +
            " bytes) — a stage publishes one buffer per round");
      }
    }
  }

  // Kahn's algorithm with deterministic tie-breaking: among ready stages,
  // always pick the lowest insertion index. The resulting order is a pure
  // function of the graph structure — independent of executor width, rank
  // count, or map iteration order.
  std::vector<std::size_t> indegree(stages_.size(), 0);
  for (const auto& edge : edges_) ++indegree[edge.to];
  order_.clear();
  topo_names_.clear();
  std::vector<bool> placed(stages_.size(), false);
  while (order_.size() < stages_.size()) {
    std::size_t next = stages_.size();
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      if (!placed[i] && indegree[i] == 0) {
        next = i;
        break;
      }
    }
    if (next == stages_.size()) {
      std::string cyclic;
      for (std::size_t i = 0; i < stages_.size(); ++i) {
        if (placed[i]) continue;
        if (!cyclic.empty()) cyclic += ", ";
        cyclic += "'" + stages_[i].name + "'";
      }
      return support::Status::invalid_argument(
          "pattern_graph: stage dependencies form a cycle involving " +
          cyclic + " — pattern graphs must be acyclic");
    }
    placed[next] = true;
    order_.push_back(next);
    topo_names_.push_back(stages_[next].name);
    for (const std::size_t e : stages_[next].out_edges) {
      --indegree[edges_[e].to];
    }
  }
  compiled_ = true;
  return support::Status::ok();
}

support::Status PatternGraph::run(int rounds) {
  PSF_RETURN_IF_ERROR(compile());
  if (rounds <= 0) {
    return support::Status::invalid_argument(
        "pattern_graph: run(rounds = " + std::to_string(rounds) +
        ") — rounds must be positive");
  }
  auto& comm = env_->comm();
  auto* trace = env_->options().trace;
  for (int round = 0; round < rounds; ++round) {
    for (const std::size_t idx : order_) {
      StageRec& stage = stages_[idx];
      // Inputs must exist before the stage starts; missing ones are wiring
      // bugs surfaced with the producing stage's name.
      for (const std::size_t e : stage.in_edges) {
        const EdgeRec& edge = edges_[e];
        const StageRec& producer = stages_[edge.from];
        if (!producer.has_output) {
          return support::Status::failed_precondition(
              "pattern_graph: stage '" + stage.name +
              "' consumes the output of '" + producer.name +
              "', which published nothing this round — its body must call "
              "publish()/reserve_output()");
        }
        if (edge.declared_bytes != 0 &&
            producer.published_bytes != edge.declared_bytes) {
          return support::Status::failed_precondition(
              "pattern_graph: edge '" + producer.name + "' -> '" +
              stage.name + "' declared " +
              std::to_string(edge.declared_bytes) + " bytes but '" +
              producer.name + "' published " +
              std::to_string(producer.published_bytes) +
              " — fix the stage or the connect() declaration");
        }
      }
      const double t0 = comm.timeline().now();
      StageContext ctx(this, idx, round);
      support::Status status = stage.fn(ctx);
      if (!status.is_ok()) {
        return support::Status(
            status.code(),
            "pattern_graph: stage '" + stage.name + "' failed (round " +
                std::to_string(round) + "): " + status.message());
      }
      if (trace != nullptr) {
        stage.span = trace->record("stage:" + stage.name, "stage",
                                   comm.rank(), 0, t0, comm.timeline().now());
        // Handoff edges stitch the per-stage sub-DAGs into one causal
        // graph, so psf-analyze's critical path crosses stage boundaries.
        for (const std::size_t e : stage.in_edges) {
          trace->record_edge(stages_[edges_[e].from].span, stage.span,
                             "handoff");
        }
      }
    }
    // Round boundary: return every output to the pool. Next round's
    // publishes re-acquire the same size classes — steady-state rounds run
    // with zero pool misses.
    for (auto& stage : stages_) {
      stage.output.release();
      stage.published_bytes = 0;
      stage.has_output = false;
      stage.span = 0;
    }
    PSF_METRIC_ADD("pattern.graph.rounds", 1);
  }
  return support::Status::ok();
}

}  // namespace psf::pattern
