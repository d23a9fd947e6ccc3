// PSF — Pattern Specification Framework
// Typed convenience layer over the C-style pattern APIs.
//
// The paper's interface is C-style (void* units, function pointers with
// opaque parameter blocks) — faithful, but easy to misuse. These wrappers
// add compile-time typing for the common case without touching the
// runtimes: a thin, zero-overhead shim that fills in sizes and casts.
//
//   psf::pattern::TypedGR<Point, Accum> gr(env);
//   gr.set_emit([](auto& obj, const Point& p, std::size_t i) {
//     obj.insert(key_of(p), Accum{...});
//   });
//
// Restrictions: the callable must be CAPTURELESS (it is lowered to the
// function pointers the runtimes expect, exactly like CUDA kernels cannot
// capture host state); extra state goes through the typed parameter.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "pattern/greduction.h"
#include "pattern/ireduction.h"
#include "pattern/reduction_object.h"
#include "pattern/runtime_env.h"
#include "pattern/stencil.h"

namespace psf::pattern {

/// Typed view of a ReductionObject for a fixed value type.
template <typename Value>
  requires std::is_trivially_copyable_v<Value>
class TypedObject {
 public:
  explicit TypedObject(ReductionObject& object) : object_(&object) {
    PSF_CHECK_MSG(object.value_size() == sizeof(Value),
                  "typed view with mismatched value size");
  }

  void insert(std::uint64_t key, const Value& value) {
    object_->insert(key, &value);
  }

  [[nodiscard]] bool lookup(std::uint64_t key, Value* out) const {
    return object_->lookup(key, out);
  }

  [[nodiscard]] ReductionObject& raw() noexcept { return *object_; }

 private:
  ReductionObject* object_;
};

/// Typed generalized reduction: Unit is the input record, Value the
/// reduction value. Emit/reduce callables must be captureless.
template <typename Unit, typename Value>
  requires std::is_trivially_copyable_v<Unit> &&
           std::is_trivially_copyable_v<Value>
class TypedGR {
 public:
  /// Typed emit signature: (object, unit, global index, parameter).
  template <typename Parameter>
  using EmitFn = void (*)(TypedObject<Value>&, const Unit&, std::size_t,
                          const Parameter*);
  using ReduceTypedFn = void (*)(Value&, const Value&);

  explicit TypedGR(RuntimeEnv& env) : runtime_(env.get_GR()) {}

  /// Register a captureless emit callable.
  template <typename Parameter = void, typename Fn>
  void set_emit(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "emit callables must be captureless (like CUDA kernels); "
                  "pass state through set_parameter");
    // The typed facade is the sanctioned caller of the raw setter.
    PSF_SUPPRESS_DEPRECATED_BEGIN
    runtime_->set_emit_func(
        [](ReductionObject* obj, const void* input, std::size_t index,
           const void* parameter) {
          TypedObject<Value> typed(*obj);
          Fn{}(typed, *static_cast<const Unit*>(input), index,
               static_cast<const Parameter*>(parameter));
        });
    PSF_SUPPRESS_DEPRECATED_END
  }

  /// Register a captureless reduce callable.
  template <typename Fn>
  void set_reduce(Fn) {
    static_assert(std::is_empty_v<Fn>, "reduce callables must be captureless");
    PSF_SUPPRESS_DEPRECATED_BEGIN
    runtime_->set_reduce_func([](void* dst, const void* src) {
      Fn{}(*static_cast<Value*>(dst), *static_cast<const Value*>(src));
    });
    PSF_SUPPRESS_DEPRECATED_END
  }

  void set_input(std::span<const Unit> units) {
    runtime_->set_input(units.data(), sizeof(Unit), units.size());
  }

  template <typename Parameter>
  void set_parameter(const Parameter* parameter) {
    runtime_->set_parameter(parameter);
  }

  /// Size the reduction object for `capacity` distinct keys.
  void configure(std::size_t capacity) {
    runtime_->configure_object(capacity, sizeof(Value));
  }

  support::Status start() { return runtime_->start(); }

  /// Pattern-interface entry point (pattern/compose.h): each iteration is
  /// one local pass plus the global tree combine, so after run() the global
  /// reduction is valid on every rank.
  support::Status run(int iterations) {
    if (iterations <= 0) {
      return support::Status::invalid_argument(
          "typed_greduce: run(iterations = " + std::to_string(iterations) +
          ") — iterations must be positive");
    }
    for (int i = 0; i < iterations; ++i) {
      PSF_RETURN_IF_ERROR(runtime_->start());
      (void)runtime_->get_global_reduction();
    }
    return support::Status::ok();
  }

  [[nodiscard]] bool lookup_local(std::uint64_t key, Value* out) const {
    return runtime_->get_local_reduction().lookup(key, out);
  }
  [[nodiscard]] bool lookup_global(std::uint64_t key, Value* out) {
    return runtime_->get_global_reduction().lookup(key, out);
  }

  [[nodiscard]] GReductionRuntime& raw() noexcept { return *runtime_; }

 private:
  GReductionRuntime* runtime_;
};

/// Typed irregular reduction: Node is the node record, Value the per-node
/// reduction value.
template <typename Node, typename Value>
  requires std::is_trivially_copyable_v<Node> &&
           std::is_trivially_copyable_v<Value>
class TypedIR {
 public:
  explicit TypedIR(RuntimeEnv& env) : runtime_(env.get_IR()) {}

  /// Captureless edge compute: (object, edge, nodes-array, parameter).
  template <typename Parameter = void, typename Fn>
  void set_edge_compute(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "edge callables must be captureless; use set_parameter");
    PSF_SUPPRESS_DEPRECATED_BEGIN
    runtime_->set_edge_comp_func(
        [](ReductionObject* obj, const EdgeView& edge,
           const void* /*edge_data*/, const void* node_data,
           const void* parameter) {
          TypedObject<Value> typed(*obj);
          Fn{}(typed, edge, static_cast<const Node*>(node_data),
               static_cast<const Parameter*>(parameter));
        });
    PSF_SUPPRESS_DEPRECATED_END
  }

  template <typename Fn>
  void set_node_reduce(Fn) {
    static_assert(std::is_empty_v<Fn>, "reduce callables must be captureless");
    PSF_SUPPRESS_DEPRECATED_BEGIN
    runtime_->set_node_reduc_func([](void* dst, const void* src) {
      Fn{}(*static_cast<Value*>(dst), *static_cast<const Value*>(src));
    });
    PSF_SUPPRESS_DEPRECATED_END
  }

  /// Captureless per-node update: (node, value-or-null, parameter).
  template <typename Parameter = void, typename Fn>
  void update_nodedata(Fn) {
    static_assert(std::is_empty_v<Fn>, "update callables must be captureless");
    runtime_->update_nodedata(
        [](void* node, const void* value, const void* parameter) {
          Fn{}(*static_cast<Node*>(node), static_cast<const Value*>(value),
               static_cast<const Parameter*>(parameter));
        });
  }

  void set_nodes(std::span<Node> nodes) {
    runtime_->set_nodes(nodes.data(), sizeof(Node), nodes.size());
    runtime_->configure_value(sizeof(Value));
  }

  void set_edges(std::span<const Edge> edges) {
    runtime_->set_edges(edges.data(), edges.size(), nullptr, 0);
  }

  template <typename EdgeData>
  void set_edges(std::span<const Edge> edges,
                 std::span<const EdgeData> edge_data) {
    PSF_CHECK(edge_data.size() == edges.size());
    runtime_->set_edges(edges.data(), edges.size(), edge_data.data(),
                        sizeof(EdgeData));
  }

  template <typename Parameter>
  void set_parameter(const Parameter* parameter) {
    runtime_->set_parameter(parameter);
  }

  support::Status start() { return runtime_->start(); }

  /// Pattern-interface entry point (pattern/compose.h): one collective
  /// edge-compute + node-combine pass per iteration.
  support::Status run(int iterations) {
    if (iterations <= 0) {
      return support::Status::invalid_argument(
          "typed_ireduce: run(iterations = " + std::to_string(iterations) +
          ") — iterations must be positive");
    }
    for (int i = 0; i < iterations; ++i) {
      PSF_RETURN_IF_ERROR(runtime_->start());
    }
    return support::Status::ok();
  }

  [[nodiscard]] bool lookup_local(std::uint32_t local_node, Value* out) const {
    return runtime_->get_local_reduction().lookup(local_node, out);
  }

  [[nodiscard]] IReductionRuntime& raw() noexcept { return *runtime_; }

 private:
  IReductionRuntime* runtime_;
};

/// Typed grid view for stencil functions: wraps the raw buffer + padded
/// extents the runtime passes, with bounds-checked accessors in debug.
template <typename T, int N>
class GridView {
 public:
  GridView(const void* buffer, const int* size)
      : data_(static_cast<const T*>(buffer)), size_(size) {}

  [[nodiscard]] const T& operator()(int x0) const
    requires(N == 1)
  {
    return data_[x0];
  }
  [[nodiscard]] const T& operator()(int x0, int x1) const
    requires(N == 2)
  {
    return data_[static_cast<std::size_t>(x0) * size_[1] + x1];
  }
  [[nodiscard]] const T& operator()(int x0, int x1, int x2) const
    requires(N == 3)
  {
    return data_[(static_cast<std::size_t>(x0) * size_[1] + x1) * size_[2] +
                 x2];
  }

  [[nodiscard]] int extent(int dim) const { return size_[dim]; }

 private:
  const T* data_;
  const int* size_;
};

/// Mutable counterpart of GridView.
template <typename T, int N>
class MutableGridView {
 public:
  MutableGridView(void* buffer, const int* size)
      : data_(static_cast<T*>(buffer)), size_(size) {}

  [[nodiscard]] T& operator()(int x0) const
    requires(N == 1)
  {
    return data_[x0];
  }
  [[nodiscard]] T& operator()(int x0, int x1) const
    requires(N == 2)
  {
    return data_[static_cast<std::size_t>(x0) * size_[1] + x1];
  }
  [[nodiscard]] T& operator()(int x0, int x1, int x2) const
    requires(N == 3)
  {
    return data_[(static_cast<std::size_t>(x0) * size_[1] + x1) * size_[2] +
                 x2];
  }

 private:
  T* data_;
  const int* size_;
};

/// Typed stencil runtime for element type T and dimensionality N.
template <typename T, int N>
  requires std::is_trivially_copyable_v<T> && (N >= 1 && N <= 3)
class TypedST {
 public:
  explicit TypedST(RuntimeEnv& env) : runtime_(env.get_ST()) {}

  /// Captureless stencil callable: (in view, out view, offset[N], param).
  template <typename Parameter = void, typename Fn>
  void set_stencil(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "stencil callables must be captureless; use set_parameter");
    PSF_SUPPRESS_DEPRECATED_BEGIN
    runtime_->set_stencil_func([](const void* input, void* output,
                                  const int* offset, const int* size,
                                  const void* parameter) {
      GridView<T, N> in(input, size);
      MutableGridView<T, N> out(output, size);
      Fn{}(in, out, offset, static_cast<const Parameter*>(parameter));
    });
    PSF_SUPPRESS_DEPRECATED_END
  }

  void set_grid(std::span<const T> grid,
                const std::vector<std::size_t>& dims) {
    PSF_CHECK(dims.size() == static_cast<std::size_t>(N));
    std::size_t cells = 1;
    for (std::size_t d : dims) cells *= d;
    PSF_CHECK_MSG(cells == grid.size(), "grid size does not match extents");
    runtime_->set_grid(grid.data(), sizeof(T), dims);
  }

  void set_halo(int halo) { runtime_->set_halo(halo); }

  /// Virtual processor topology (one extent per grid dimension, product ==
  /// number of ranks). Empty = choose automatically.
  void set_topology(const std::vector<int>& dims) {
    runtime_->set_topology(dims);
  }

  /// Periodic boundaries per dimension (default: none).
  void set_periodic(const std::vector<bool>& periodic) {
    runtime_->set_periodic(periodic);
  }

  template <typename Parameter>
  void set_parameter(const Parameter* parameter) {
    runtime_->set_parameter(parameter);
  }

  support::Status run(int iterations) { return runtime_->run(iterations); }
  void write_back(std::span<T> out) const {
    runtime_->write_back(out.data());
  }
  /// Collective: the whole grid lands in `out` on `root` only.
  void gather(std::span<T> out, int root) {
    runtime_->gather(out.data(), root);
  }

  [[nodiscard]] StencilRuntime& raw() noexcept { return *runtime_; }

 private:
  StencilRuntime* runtime_;
};

/// Preferred name for the typed stencil runtime: grids are indexed through
/// GridView as `in(y, x)` instead of the deprecated-for-new-code GET_*
/// macros in pattern/api.h.
template <typename T, int Dims>
using TypedStencil = TypedST<T, Dims>;

/// Preferred names for the typed reduction runtimes, completing the typed
/// surface: all three patterns (TypedGReduce, TypedIReduce, TypedStencil)
/// model the Pattern concept in pattern/compose.h and compose through it.
template <typename Unit, typename Value>
using TypedGReduce = TypedGR<Unit, Value>;
template <typename Node, typename Value>
using TypedIReduce = TypedIR<Node, Value>;

}  // namespace psf::pattern
