// The six-code benchmark suite (Section 4.3: "a set of six real codes").
//
// TFFT2 is reconstructed from the paper itself; the other five are synthetic
// equivalents of the benchmark set used in the companion experiments [10],
// each exercising a distinct access-pattern class the framework must handle:
//
//   tfft2    — FFT butterflies, transposes, conjugate symmetry (non-affine
//              subscripts, shifted/reverse storage, reverse distribution)
//   swim     — shallow-water stencils over many arrays (overlap storage,
//              frontier halos, one long L chain, cyclic time loop)
//   tomcatv  — mesh-generation stencil + row-local solves (R/W overlap)
//   hydro2d  — alternating row/column sweeps (transpose redistributions,
//              C edges inside a cyclic program)
//   mgrid    — 1-D multigrid restriction/interpolation (2:1 chunk coupling
//              between grid levels)
//   trfd     — triangular loop nests (non-rectangular iteration spaces,
//              conservative descriptor bounds)
//
// On top of the six, the suite carries the AI/HPC kernel family
// (codes/kernels.hpp): tiled matmul, 2-D convolution, blocked attention and
// a time-tiled batched stencil — the AutoLALA-style loop nests whose tiled
// and sliding-window subscripts stress descriptor union/coalescing, overlap
// distances and C-edge placement in ways the 1999 codes never produce
// (EXPERIMENTS.md section "AI/HPC kernel family").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/walker.hpp"

namespace ad::codes {

[[nodiscard]] ir::Program makeSwim();
[[nodiscard]] ir::Program makeTomcatv();
[[nodiscard]] ir::Program makeHydro2d();
[[nodiscard]] ir::Program makeMgrid();
[[nodiscard]] ir::Program makeTrfd();

/// Resolves by-name parameter values against a program's symbol table.
/// Power-of-two parameters are given by their *value* (which must be a power
/// of two); the binding is applied to the log symbol.
[[nodiscard]] ir::Bindings bindParams(const ir::Program& program,
                                      const std::map<std::string, std::int64_t>& byName);

struct CodeInfo {
  std::string name;
  std::function<ir::Program()> build;
  /// Problem sizes used for the 64-processor efficiency study.
  std::map<std::string, std::int64_t> studyParams;
  /// Smaller sizes for quick runs/tests.
  std::map<std::string, std::int64_t> smallParams;
  /// Sizes for the trace replay: enough accesses for meaningful
  /// accesses/sec rates, small enough that a 1-core CI box replays them fast.
  std::map<std::string, std::int64_t> simParams;
};

/// The whole suite — the six 1999 codes followed by the AI/HPC kernel
/// family — with study, small (non-pow2 for the kernels) and sim sizes.
[[nodiscard]] const std::vector<CodeInfo>& benchmarkSuite();

}  // namespace ad::codes
