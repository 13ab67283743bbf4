// adlocality — access-descriptor based locality analysis for DSM
// multiprocessors.
//
// Umbrella header: includes the whole public API. Layers, bottom up:
//
//   sym::        symbolic integer expressions, range analysis, Diophantine
//   ir::         loop-nest programs (phases, DOALL loops, array references)
//   frontend::   the mini-Fortran phase-language parser
//   desc::       ARD / PD / ID access descriptors and their operations
//   loc::        intra-/inter-phase locality, balanced condition, Table-1
//   lcg::        the Locality-Communication Graph
//   ilp::        the Table-2 integer program and its exact solver
//   comm::       put-schedule generation (global redistributions, aggregated)
//   dsm::        the DSM machine model and execution simulator
//   codes::      the benchmark suite (six 1999 codes + AI/HPC kernels)
//   driver::     the end-to-end pipeline
//
// See README.md for a walkthrough and DESIGN.md for the paper mapping.
#pragma once

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "comm/schedule.hpp"
#include "descriptors/ard.hpp"
#include "descriptors/iteration_descriptor.hpp"
#include "descriptors/phase_descriptor.hpp"
#include "driver/pipeline.hpp"
#include "dsm/machine.hpp"
#include "frontend/parser.hpp"
#include "ilp/cost_model.hpp"
#include "ilp/model.hpp"
#include "ir/ir.hpp"
#include "ir/walker.hpp"
#include "lcg/lcg.hpp"
#include "locality/analysis.hpp"
#include "symbolic/diophantine.hpp"
#include "symbolic/expr.hpp"
#include "symbolic/ranges.hpp"
