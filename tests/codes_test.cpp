#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "lcg/lcg.hpp"
#include "reference_oracles.hpp"

namespace ad::codes {
namespace {

TEST(Suite, AllCodesBuildAndValidate) {
  for (const auto& code : benchmarkSuite()) {
    const ir::Program prog = code.build();
    EXPECT_FALSE(prog.phases().empty()) << code.name;
    EXPECT_FALSE(prog.arrays().empty()) << code.name;
    for (const auto& ph : prog.phases()) {
      EXPECT_TRUE(ph.hasParallelLoop()) << code.name << "/" << ph.name();
    }
    // Parameters resolve.
    const auto params = bindParams(prog, code.smallParams);
    EXPECT_FALSE(params.empty()) << code.name;
  }
}

TEST(Suite, BindParamsResolvesPow2) {
  const auto prog = makeTFFT2();
  const auto params = bindParams(prog, {{"P", 16}, {"Q", 8}});
  const auto p = *prog.symbols().lookup("p");
  const auto q = *prog.symbols().lookup("q");
  EXPECT_EQ(params.at(p), 4);
  EXPECT_EQ(params.at(q), 3);
  EXPECT_THROW((void)bindParams(prog, {{"P", 12}}), ContractViolation);
  EXPECT_THROW((void)bindParams(prog, {{"ZZZ", 1}}), ContractViolation);
}

TEST(Swim, OneChainPerArrayAndOverlapHalos) {
  const auto prog = makeSwim();
  const auto params = bindParams(prog, {{"N", 32}});
  const auto lcg = lcg::buildLCG(prog, params, 4);
  // U is read with halos in CALC1/CALC2 and written in CALC3: all L edges
  // (including the cyclic back edge) -> a single chain.
  const auto& gu = lcg.graph("U");
  for (const auto& e : gu.edges) {
    EXPECT_EQ(e.label, loc::EdgeLabel::kLocal) << "U edge " << e.from << "->" << e.to;
  }
  EXPECT_EQ(gu.chains().size(), 1u);
  // CALC1 shows overlapping storage for U (row halo).
  const auto infoU = loc::analyzePhaseArray(prog, 0, "U");
  ASSERT_TRUE(infoU.overlap.has_value());
  EXPECT_TRUE(*infoU.overlap);
  // CU is written in CALC1 without overlap and read with halo in CALC2.
  const auto infoCU = loc::analyzePhaseArray(prog, 0, "CU");
  ASSERT_TRUE(infoCU.overlap.has_value());
  EXPECT_FALSE(*infoCU.overlap);
}

TEST(Swim, PipelineIsFullyLocal) {
  const auto prog = makeSwim();
  driver::PipelineConfig config;
  config.params = bindParams(prog, {{"N", 64}});
  config.processors = 8;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);
  for (const auto& ph : result.planned.phases) {
    EXPECT_EQ(ph.remoteAccesses, 0) << ph.phase;
  }
  // One distribution serves the whole cycle: the only communication is the
  // frontier halo refresh, never a global redistribution.
  for (const auto& r : result.planned.redistributions) {
    EXPECT_TRUE(r.frontier) << r.array << " before phase " << r.beforePhase;
  }
  EXPECT_GT(result.plannedEfficiency(), 0.8);
}

TEST(Hydro2d, AlternatingSweepsForceRedistribution) {
  const auto prog = makeHydro2d();
  const auto params = bindParams(prog, {{"N", 32}});
  const auto lcg = lcg::buildLCG(prog, params, 4);
  // Row sweep then column sweep cannot share a distribution: C edges.
  EXPECT_GT(lcg.communicationEdges(), 0u);

  driver::PipelineConfig config;
  config.params = params;
  config.processors = 4;
  const auto result = driver::analyzeAndSimulate(prog, config);
  // The planned execution pays redistributions but keeps phases local-ish;
  // it must still beat the naive plan, which has fine-grain remote traffic
  // in one of the two directions every iteration.
  EXPECT_GT(result.naive.totalRemoteAccesses(), 0);
  EXPECT_LE(result.planned.parallelTime(), result.naive.parallelTime());
}

TEST(Mgrid, FineCoarseChunkCoupling) {
  const auto prog = makeMgrid();
  const auto params = bindParams(prog, {{"N", 256}});
  driver::PipelineConfig config;
  config.params = params;
  config.processors = 4;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);
  // The fine-grid chunk is twice the coarse-grid chunk wherever the
  // restriction edge is local.
  const auto& gf = result.lcg.graph("UF");
  bool sawLocalRestrict = false;
  for (const auto& e : gf.edges) {
    if (e.label == loc::EdgeLabel::kLocal && e.condition) {
      sawLocalRestrict = true;
    }
  }
  EXPECT_TRUE(sawLocalRestrict);
  EXPECT_GT(result.plannedEfficiency(), result.naiveEfficiency() * 0.99);
}

TEST(Tomcatv, RowChainStaysLocal) {
  const auto prog = makeTomcatv();
  driver::PipelineConfig config;
  config.params = bindParams(prog, {{"N", 48}});
  config.processors = 6;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);
  for (const auto& ph : result.planned.phases) {
    EXPECT_EQ(ph.remoteAccesses, 0) << ph.phase;
  }
  EXPECT_GT(result.plannedEfficiency(), 0.85);
}

TEST(Trfd, TriangularNestsAnalyzeConservatively) {
  const auto prog = makeTrfd();
  const auto params = bindParams(prog, {{"N", 24}});
  // Descriptors are supersets: validate against the walker on XIJ.
  const auto info = loc::analyzePhaseArray(prog, 0, "XIJ");
  const auto& phase = prog.phase(0);
  for (std::int64_t i = 0; i < ir::parallelTripCount(phase, params); ++i) {
    const auto truth = reference::touchedAddressesInIteration(prog, phase, "XIJ", params, i);
    const auto predicted = info.id.addressesAt(i, params);
    const std::set<std::int64_t> predSet(predicted.begin(), predicted.end());
    for (const auto a : truth) EXPECT_TRUE(predSet.count(a)) << "i=" << i << " a=" << a;
  }
  // The transposed second phase communicates.
  const auto lcg = lcg::buildLCG(prog, params, 4);
  EXPECT_GT(lcg.communicationEdges(), 0u);
  // The pipeline still runs end to end.
  driver::PipelineConfig config;
  config.params = params;
  config.processors = 4;
  const auto result = driver::analyzeAndSimulate(prog, config);
  EXPECT_GT(result.planned.parallelTime(), 0.0);
}

// --- AI/HPC kernel family (codes/kernels.hpp) ------------------------------

/// Suite lookup by name; the kernels sit behind the six 1999 codes.
const CodeInfo& kernelInfo(const std::string& name) {
  for (const auto& code : benchmarkSuite()) {
    if (code.name == name) return code;
  }
  ADD_FAILURE() << "no suite code named " << name;
  std::abort();
}

TEST(Matmul, TiledSubscriptsCoalesceButForceRedistribution) {
  const auto& info = kernelInfo("matmul");
  const ir::Program prog = info.build();
  const auto params = bindParams(prog, info.smallParams);  // NT=3, T=4: non-pow2
  const auto lcg = lcg::buildLCG(prog, params, 8);

  // A: written by rows in INIT, read by T-row tiles in GEMM. The tile reads
  // coalesce into one descriptor per chunk, but the chunk granularities
  // differ (1 row vs T rows) — a genuine C edge / redistribution.
  const auto& ga = lcg.graph("A");
  ASSERT_EQ(ga.nodes.size(), 2u);
  ASSERT_EQ(ga.edges.size(), 1u);
  EXPECT_EQ(ga.edges[0].label, loc::EdgeLabel::kComm);

  // B: every GEMM iteration reads the whole array (tk spans all tiles), so
  // the read descriptor is iteration-invariant — slope 0, broadcast C edge.
  const auto& gb = lcg.graph("B");
  ASSERT_EQ(gb.edges.size(), 1u);
  EXPECT_EQ(gb.edges[0].label, loc::EdgeLabel::kComm);

  // C: single R/W reduction node, owner-computes, no edges at all.
  const auto& gc = lcg.graph("C");
  ASSERT_EQ(gc.nodes.size(), 1u);
  EXPECT_EQ(gc.nodes[0].attr, loc::Attr::kReadWrite);
  EXPECT_TRUE(gc.edges.empty());

  // Descriptors stay exact supersets of the walker on the tiled read.
  const auto& gemm = prog.phase(1);
  const auto infoA = loc::analyzePhaseArray(prog, 1, "A");
  for (std::int64_t ti = 0; ti < ir::parallelTripCount(gemm, params); ++ti) {
    const auto truth = reference::touchedAddressesInIteration(prog, gemm, "A", params, ti);
    const auto predicted = infoA.id.addressesAt(ti, params);
    const std::set<std::int64_t> predSet(predicted.begin(), predicted.end());
    for (const auto a : truth) EXPECT_TRUE(predSet.count(a)) << "ti=" << ti << " a=" << a;
  }
}

TEST(Conv2d, SlidingWindowNeedsHaloRowsOnly) {
  const auto& info = kernelInfo("conv2d");
  const ir::Program prog = info.build();
  driver::PipelineConfig config;
  config.params = bindParams(prog, info.smallParams);
  config.processors = 8;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);

  // OUT flows CONV -> ACT under the same row distribution: an L edge.
  const auto& gout = result.lcg.graph("OUT");
  ASSERT_EQ(gout.edges.size(), 1u);
  EXPECT_EQ(gout.edges[0].label, loc::EdgeLabel::kLocal);

  // The K x K window makes the IMG read region per iteration K rows deep:
  // overlapping storage with distance (K-1)*N. The LOAD -> CONV edge stays
  // L under one row-block distribution; the only communication is the
  // frontier halo refresh of those K-1 boundary rows.
  const auto infoImg = loc::analyzePhaseArray(prog, 1, "IMG");
  ASSERT_TRUE(infoImg.overlap.has_value());
  EXPECT_TRUE(*infoImg.overlap);
  const auto& gimg = result.lcg.graph("IMG");
  ASSERT_EQ(gimg.edges.size(), 1u);
  EXPECT_EQ(gimg.edges[0].label, loc::EdgeLabel::kLocal);
  ASSERT_EQ(result.planned.redistributions.size(), 1u);
  EXPECT_EQ(result.planned.redistributions[0].array, "IMG");
  EXPECT_TRUE(result.planned.redistributions[0].frontier);

  // The plan still wins: naive pays fine-grain window traffic every phase.
  EXPECT_LE(result.planned.parallelTime(), result.naive.parallelTime() * 1.05);
}

TEST(Attention, ChainStaysLocalWhileKVBroadcasts) {
  const auto& info = kernelInfo("attention");
  const ir::Program prog = info.build();
  driver::PipelineConfig config;
  config.params = bindParams(prog, info.smallParams);
  config.processors = 8;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);

  // The query-side dataflow Q -> S -> PM -> O all rides one block-of-queries
  // distribution: every edge on those arrays is L.
  for (const char* arr : {"Q", "S", "PM"}) {
    for (const auto& e : result.lcg.graph(arr).edges) {
      EXPECT_EQ(e.label, loc::EdgeLabel::kLocal) << arr;
    }
  }
  // K and V are read wholesale by every query block: C edges (the broadcast).
  for (const char* arr : {"KM", "VM"}) {
    const auto& g = result.lcg.graph(arr);
    ASSERT_EQ(g.edges.size(), 1u) << arr;
    EXPECT_EQ(g.edges[0].label, loc::EdgeLabel::kComm) << arr;
  }
  EXPECT_EQ(result.planned.redistributions.size(), 2u);

  // The softmax row accumulator is privatized: a single P node, replicated,
  // never a cross-phase dependence.
  const auto& grw = result.lcg.graph("RW");
  ASSERT_EQ(grw.nodes.size(), 1u);
  EXPECT_EQ(grw.nodes[0].attr, loc::Attr::kPrivatized);
  EXPECT_TRUE(grw.edges.empty());
}

TEST(StencilTT, CyclicPingPongFormsSingleLocalChains) {
  const auto& info = kernelInfo("stencil_tt");
  const ir::Program prog = info.build();
  const auto params = bindParams(prog, info.smallParams);
  const auto lcg = lcg::buildLCG(prog, params, 8);

  // Each ping-pong buffer alternates W/R across the two steps; the x+-1
  // reads stay inside one batch row, so every edge — including the cyclic
  // back edge — is L and each array forms exactly one chain.
  for (const char* arr : {"A", "B"}) {
    const auto& g = lcg.graph(arr);
    ASSERT_EQ(g.edges.size(), 2u) << arr;
    EXPECT_TRUE(g.edges.back().backEdge) << arr;
    for (const auto& e : g.edges) {
      EXPECT_EQ(e.label, loc::EdgeLabel::kLocal) << arr;
    }
    EXPECT_EQ(g.chains().size(), 1u) << arr;
  }

  // One distribution serves the whole time loop: no redistribution, no
  // remote accesses in the planned execution.
  driver::PipelineConfig config;
  config.params = params;
  config.processors = 8;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);
  EXPECT_TRUE(result.planned.redistributions.empty());
  for (const auto& ph : result.planned.phases) {
    EXPECT_EQ(ph.remoteAccesses, 0) << ph.phase;
  }
}

// Pipeline smoke test across the whole suite at small sizes and several
// processor counts: everything must analyze, solve, plan and simulate.
class SuiteSweep : public ::testing::TestWithParam<std::tuple<std::size_t, std::int64_t>> {};

TEST_P(SuiteSweep, PipelineRuns) {
  const auto [codeIdx, H] = GetParam();
  const auto& code = codes::benchmarkSuite()[codeIdx];
  const ir::Program prog = code.build();
  driver::PipelineConfig config;
  config.params = bindParams(prog, code.smallParams);
  config.processors = H;
  const auto result = driver::analyzeAndSimulate(prog, config);
  EXPECT_GT(result.planned.parallelTime(), 0.0) << code.name;
  EXPECT_GT(result.naive.parallelTime(), 0.0) << code.name;
  // The LCG-driven plan never loses to naive by more than rounding noise.
  EXPECT_LE(result.planned.parallelTime(), result.naive.parallelTime() * 1.05) << code.name;
}

INSTANTIATE_TEST_SUITE_P(AllCodes, SuiteSweep,
                         ::testing::Combine(::testing::Range<std::size_t>(
                                                0, codes::benchmarkSuite().size()),
                                            ::testing::Values<std::int64_t>(2, 4, 8)),
                         [](const auto& info) {
                           return codes::benchmarkSuite()[std::get<0>(info.param)].name + "_H" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace ad::codes
