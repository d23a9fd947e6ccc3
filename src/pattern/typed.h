// PSF — Pattern Specification Framework
// Typed pattern facades: the one way to write each pattern.
//
// The runtimes keep the paper's C-style interface (void* units, function
// pointers with opaque parameter blocks, Table I). Applications write typed,
// captureless callables instead; each facade lowers them to those function
// pointers at compile time, filling in sizes and casts, so there is no
// per-call dispatch beyond the paper's own.
//
//   psf::pattern::TypedGReduce<Point, Accum> gr(env);
//   gr.set_emit([](auto& obj, const Point& p, std::size_t i, const void*) {
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
  // Built on every lowered callback call, so the check is a plain
  // PSF_CHECK, whose failure path is small enough to inline there (a
  // PSF_CHECK_MSG message stream kept the constructor out of line).
  explicit TypedObject(ReductionObject& object) : object_(&object) {
    PSF_CHECK(object.value_size() == sizeof(Value) &&
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
class TypedGReduce {
 public:
  explicit TypedGReduce(RuntimeEnv& env) : runtime_(env.get_GR()) {}

  /// Register a captureless emit callable:
  /// (object, unit, global index, parameter).
  template <typename Parameter = void, typename Fn>
  void set_emit(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "emit callables must be captureless (like CUDA kernels); "
                  "pass state through set_parameter");
    runtime_->set_emit_func([](ReductionObject* obj, const void* input,
                               std::size_t index, const void* parameter) {
      TypedObject<Value> typed(*obj);
      Fn{}(typed, *static_cast<const Unit*>(input), index,
           static_cast<const Parameter*>(parameter));
    });
  }

  /// Register a captureless reduce callable: (dst, src).
  template <typename Fn>
  void set_reduce(Fn) {
    static_assert(std::is_empty_v<Fn>, "reduce callables must be captureless");
    runtime_->set_reduce_func([](void* dst, const void* src) {
      Fn{}(*static_cast<Value*>(dst), *static_cast<const Value*>(src));
    });
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
  /// Collective on the first call after start(): combines every rank's
  /// object (binary tree) and broadcasts it; later calls read that result.
  [[nodiscard]] bool lookup_global(std::uint64_t key, Value* out) {
    return runtime_->get_global_reduction().lookup(key, out);
  }

  [[nodiscard]] GReductionRuntime& raw() noexcept { return *runtime_; }

 private:
  GReductionRuntime* runtime_;
};

/// Typed irregular reduction: Node is the node record, Value the per-node
/// reduction value, EdgeData the optional per-edge attribute record (void:
/// edges carry no data).
template <typename Node, typename Value, typename EdgeData = void>
  requires std::is_trivially_copyable_v<Node> &&
           std::is_trivially_copyable_v<Value> &&
           (std::is_void_v<EdgeData> ||
            std::is_trivially_copyable_v<EdgeData>)
class TypedIReduce {
 public:
  explicit TypedIReduce(RuntimeEnv& env) : runtime_(env.get_IR()) {}

  /// Captureless edge compute: (object, edge, nodes-array, parameter), or
  /// (object, edge, edge data, nodes-array, parameter) when the facade has
  /// an EdgeData type.
  template <typename Parameter = void, typename Fn>
  void set_edge_compute(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "edge callables must be captureless; use set_parameter");
    runtime_->set_edge_comp_func(
        [](ReductionObject* obj, const EdgeView& edge, const void* edge_data,
           const void* node_data, const void* parameter) {
          TypedObject<Value> typed(*obj);
          const auto* nodes = static_cast<const Node*>(node_data);
          const auto* typed_parameter =
              static_cast<const Parameter*>(parameter);
          if constexpr (std::is_void_v<EdgeData>) {
            (void)edge_data;
            Fn{}(typed, edge, nodes, typed_parameter);
          } else {
            Fn{}(typed, edge, *static_cast<const EdgeData*>(edge_data), nodes,
                 typed_parameter);
          }
        });
  }

  template <typename Fn>
  void set_node_reduce(Fn) {
    static_assert(std::is_empty_v<Fn>, "reduce callables must be captureless");
    runtime_->set_node_reduc_func([](void* dst, const void* src) {
      Fn{}(*static_cast<Value*>(dst), *static_cast<const Value*>(src));
    });
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

  void set_edges(std::span<const Edge> edges)
    requires std::is_void_v<EdgeData>
  {
    runtime_->set_edges(edges.data(), edges.size(), nullptr, 0);
  }

  /// Edges plus one attribute record per edge, handed to the edge compute.
  template <typename E = EdgeData>
    requires(std::is_same_v<E, EdgeData> && !std::is_void_v<E>)
  void set_edges(std::span<const Edge> edges,
                 std::type_identity_t<std::span<const E>> edge_data) {
    PSF_CHECK(edge_data.size() == edges.size());
    runtime_->set_edges(edges.data(), edges.size(), edge_data.data(),
                        sizeof(E));
  }

  /// Connectivity changed (e.g. a rebuilt neighbor list): the next start()
  /// redoes the partitioning and the id exchange, charged as a rebuild.
  void reset_edges(std::span<const Edge> edges)
    requires std::is_void_v<EdgeData>
  {
    runtime_->reset_edges(edges.data(), edges.size(), nullptr, 0);
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

namespace detail {

/// Row-major addressing of an N-dimensional padded grid, shared by the two
/// views. The strides are cached as std::ptrdiff_t at construction, so an
/// access is one multiply-add per outer dimension and a generated row loop
/// (stencil_rows) keeps them in registers instead of re-deriving them from
/// `size`.
template <int N>
class GridIndex {
 public:
  explicit GridIndex(const int* size) : size_(size) {
    if constexpr (N == 2) {
      stride0_ = size[1];
    } else if constexpr (N == 3) {
      stride1_ = size[2];
      stride0_ = static_cast<std::ptrdiff_t>(size[1]) * stride1_;
    }
  }

  [[nodiscard]] std::ptrdiff_t at(int x0) const
    requires(N == 1)
  {
    return x0;
  }
  [[nodiscard]] std::ptrdiff_t at(int x0, int x1) const
    requires(N == 2)
  {
    return x0 * stride0_ + x1;
  }
  [[nodiscard]] std::ptrdiff_t at(int x0, int x1, int x2) const
    requires(N == 3)
  {
    return x0 * stride0_ + x1 * stride1_ + x2;
  }

  [[nodiscard]] int extent(int dim) const { return size_[dim]; }

 private:
  const int* size_;
  std::ptrdiff_t stride0_ = 0;
  std::ptrdiff_t stride1_ = 0;
};

}  // namespace detail

/// Typed read-only view of a padded stencil grid: wraps the raw buffer and
/// padded extents the runtime passes; `in(y, x)` is element (y, x). Accesses
/// are unchecked, like the raw buffer they wrap.
template <typename T, int N>
class GridView {
 public:
  GridView(const void* buffer, const int* size)
      : data_(static_cast<const T*>(buffer)), index_(size) {}

  [[nodiscard]] const T& operator()(int x0) const
    requires(N == 1)
  {
    return data_[index_.at(x0)];
  }
  [[nodiscard]] const T& operator()(int x0, int x1) const
    requires(N == 2)
  {
    return data_[index_.at(x0, x1)];
  }
  [[nodiscard]] const T& operator()(int x0, int x1, int x2) const
    requires(N == 3)
  {
    return data_[index_.at(x0, x1, x2)];
  }

  [[nodiscard]] int extent(int dim) const { return index_.extent(dim); }

 private:
  const T* data_;
  detail::GridIndex<N> index_;
};

/// Mutable counterpart of GridView.
template <typename T, int N>
class MutableGridView {
 public:
  MutableGridView(void* buffer, const int* size)
      : data_(static_cast<T*>(buffer)), index_(size) {}

  [[nodiscard]] T& operator()(int x0) const
    requires(N == 1)
  {
    return data_[index_.at(x0)];
  }
  [[nodiscard]] T& operator()(int x0, int x1) const
    requires(N == 2)
  {
    return data_[index_.at(x0, x1)];
  }
  [[nodiscard]] T& operator()(int x0, int x1, int x2) const
    requires(N == 3)
  {
    return data_[index_.at(x0, x1, x2)];
  }

  [[nodiscard]] int extent(int dim) const { return index_.extent(dim); }

 private:
  T* data_;
  detail::GridIndex<N> index_;
};

/// Lowers a captureless per-cell stencil callable
/// `Fn{}(in, out, c, parameter)` to the runtime's row kernel (StencilRowFn):
/// the two views are built once per call and `c[N-1]` walks the `count`
/// cells of the segment. Instantiated per callable, so the element function
/// inlines into the loop.
template <typename T, int N, typename Parameter, typename Fn>
void stencil_rows(const void* input, void* output, const int* offset,
                  const int* size, int count, const void* parameter) {
  const GridView<T, N> in(input, size);
  const MutableGridView<T, N> out(output, size);
  const auto* typed = static_cast<const Parameter*>(parameter);
  int c[N];
  for (int d = 0; d < N; ++d) c[d] = offset[d];
  const int end = c[N - 1] + count;
  for (; c[N - 1] < end; ++c[N - 1]) Fn{}(in, out, c, typed);
}

/// Typed stencil runtime for element type T and dimensionality N.
template <typename T, int N>
  requires std::is_trivially_copyable_v<T> && (N >= 1 && N <= 3)
class TypedStencil {
 public:
  explicit TypedStencil(RuntimeEnv& env) : runtime_(env.get_ST()) {}

  /// Captureless stencil callable: (in view, out view, offset[N], param).
  template <typename Parameter = void, typename Fn>
  void set_stencil(Fn) {
    static_assert(std::is_empty_v<Fn>,
                  "stencil callables must be captureless; use set_parameter");
    runtime_->set_kernel(&stencil_rows<T, N, Parameter, Fn>);
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

}  // namespace psf::pattern
