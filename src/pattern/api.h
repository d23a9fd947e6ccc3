// PSF — Pattern Specification Framework
// Umbrella public API header, including the paper's DEVICE function
// qualifier macro (paper Section II-A).
//
// A typical application includes only this header:
//
//   #include "pattern/api.h"
//
//   DEVICE void my_emit(psf::pattern::ReductionObject* obj,
//                       const void* input, std::size_t index,
//                       const void* parameter) { ... }
//
//   psf::minimpi::World world(nodes);
//   world.run([&](psf::minimpi::Communicator& comm) {
//     psf::pattern::RuntimeEnv env(comm, options);
//     auto* gr = env.get_GR();
//     gr->set_emit_func(my_emit);
//     ...
//   });
//
// NOTE: the raw reduction setters (set_emit_func & friends) are kept for
// paper parity but deprecated for new code. Prefer the typed facades in
// pattern/typed.h (TypedGReduce, TypedIReduce, TypedStencil) and the
// composition layer in pattern/compose.h (TypedStencilReduce,
// PatternGraph), which add compile-time typing, fused stencil+reduce steps
// and multi-stage pipelines over the same runtimes. Stencils are written
// only through TypedStencil: its per-cell callable is lowered to the
// runtime's row kernel (StencilRuntime::set_kernel).
#pragma once

#include "pattern/greduction.h"
#include "pattern/ireduction.h"
#include "pattern/reduction_object.h"
#include "pattern/runtime_env.h"
#include "pattern/stencil.h"

/// The system-defined function qualifier the paper requires at the start of
/// user-defined functions. It expands to the device-specific qualifiers
/// (__host__ __device__ under nvcc); in the simulator both "sides" share the
/// host ISA, so it expands to nothing.
#define DEVICE
