// PSF — Pattern Specification Framework
// Umbrella public API header.
//
// A typical application includes this header and writes each pattern
// through its typed facade (pattern/typed.h):
//
//   #include "pattern/api.h"
//
//   psf::minimpi::World world(nodes);
//   world.run([&](psf::minimpi::Communicator& comm) {
//     psf::pattern::RuntimeEnv env(comm, options);
//     psf::pattern::TypedGReduce<Record, Count> gr(env);
//     gr.set_emit([](auto& obj, const Record& r, std::size_t, const void*) {
//       obj.insert(key_of(r), Count{1});
//     });
//     ...
//   });
//
// TypedGReduce, TypedIReduce and TypedStencil lower their captureless
// callables to the runtimes' function pointers (the paper's Table I
// interface); the composition layer in pattern/compose.h
// (TypedStencilReduce, PatternGraph) adds fused stencil+reduce steps and
// multi-stage pipelines over the same runtimes.
#pragma once

#include "pattern/greduction.h"
#include "pattern/ireduction.h"
#include "pattern/reduction_object.h"
#include "pattern/runtime_env.h"
#include "pattern/stencil.h"
#include "pattern/typed.h"
