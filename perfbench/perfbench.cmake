# PSF benchmark program: a build hook for the repository's own CMake project,
# so psf_perfbench links the libraries exactly as the repository builds them.
# perfbench/run.py configures the repository root with
#   -DCMAKE_PROJECT_psf_INCLUDE=<this file>
# and builds only the psf_perfbench target.
add_executable(psf_perfbench
  ${CMAKE_CURRENT_LIST_DIR}/src/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/sweeps.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/serve_open.cpp
  ${CMAKE_CURRENT_LIST_DIR}/src/layers.cpp)
target_include_directories(psf_perfbench PRIVATE ${CMAKE_CURRENT_LIST_DIR}/src)
target_link_libraries(psf_perfbench PRIVATE psf_apps psf_serve psf_analysis)
# The hook runs inside project(), before the repository sets its standard.
target_compile_features(psf_perfbench PRIVATE cxx_std_20)
