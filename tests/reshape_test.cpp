// Array reshaping: the paper's headline advantage over contemporary
// iteration/data distribution frameworks is that LMAD-style descriptors are
// computed on the *linearized* memory, so a program may view the same array
// through different shapes in different phases (the interprocedural
// reshaping situation) and the analysis still relates the regions.
#include <gtest/gtest.h>

#include "descriptors/phase_descriptor.hpp"
#include "driver/pipeline.hpp"
#include "frontend/parser.hpp"
#include "ir/walker.hpp"
#include "reference_oracles.hpp"

namespace ad {
namespace {

using sym::Expr;

Expr c(std::int64_t v) { return Expr::constant(v); }

TEST(Reshape, MultiDimDeclarationsLinearizeRowMajor) {
  ir::Program prog;
  const auto n = prog.symbols().parameter("N");
  const auto m = prog.symbols().parameter("M");
  prog.declareArray("A", {Expr::symbol(n), Expr::symbol(m)});
  const auto& decl = prog.array("A");
  EXPECT_EQ(decl.size, Expr::symbol(n) * Expr::symbol(m));
  ASSERT_EQ(decl.dims.size(), 2u);

  const auto i = prog.symbols().index("i");
  const auto j = prog.symbols().index("j");
  EXPECT_EQ(decl.linearize({Expr::symbol(i), Expr::symbol(j)}),
            Expr::symbol(i) * Expr::symbol(m) + Expr::symbol(j));
  // A single subscript is the raw linear view.
  EXPECT_EQ(decl.linearize({Expr::symbol(i)}), Expr::symbol(i));
  // Wrong arity is rejected.
  EXPECT_THROW((void)decl.linearize({Expr::symbol(i), Expr::symbol(j), Expr::symbol(i)}),
               ProgramError);
}

TEST(Reshape, ThreeDimLinearization) {
  ir::Program prog;
  prog.declareArray("B", {c(4), c(5), c(6)});
  EXPECT_EQ(prog.array("B").size.asInteger(), 120);
  // B(1, 2, 3) -> (1*5 + 2)*6 + 3 = 45.
  EXPECT_EQ(prog.array("B").linearize({c(1), c(2), c(3)}).asInteger(), 45);
}

TEST(Reshape, FrontendParsesMultiDimRefs) {
  const auto prog = frontend::parseProgram(R"(
    param N
    array A(N, N)
    phase f {
      doall i = 0, N - 1 {
        do j = 0, N - 1 {
          update A(i, j)
        }
      }
    }
  )");
  const auto n = *prog.symbols().lookup("N");
  const auto i = *prog.symbols().lookup("i");
  const auto j = *prog.symbols().lookup("j");
  ASSERT_EQ(prog.phase(0).refs().size(), 2u);
  EXPECT_EQ(prog.phase(0).refs()[0].subscript,
            Expr::symbol(i) * Expr::symbol(n) + Expr::symbol(j));
}

TEST(Reshape, FrontendRejectsBadArity) {
  EXPECT_THROW((void)frontend::parseProgram(R"(
    param N
    array A(N, N)
    phase f { doall i = 0, N-1 { read A(i, i, i) } }
  )"),
               frontend::ParseError);
  EXPECT_THROW((void)frontend::parseProgram(R"(
    param N
    phase f { doall i = 0, N-1 { read B(i, i) } }
  )"),
               frontend::ParseError);
}

// The reshaping scenario itself: one phase fills A as an N x N matrix, the
// next reads the same memory as a flat vector (a subroutine receiving the
// array as a 1-D formal), the third as the transposed view.
class ReshapedViews : public ::testing::Test {
 protected:
  ReshapedViews() {
    prog = frontend::parseProgram(R"(
      param N
      array A(N, N)
      phase fill2d {
        doall i = 0, N - 1 {
          do j = 0, N - 1 { write A(i, j) }
        }
      }
      phase scan1d {
        doall k = 0, N*N - 1 {
          read A(k)
        }
      }
      phase transposed {
        doall j = 0, N - 1 {
          do i = 0, N - 1 { read A(i, j) }
        }
      }
    )");
  }
  ir::Program prog;
};

TEST_F(ReshapedViews, DescriptorsUnifyAcrossViews) {
  // The 2-D fill and the 1-D scan describe the same region; the balanced
  // condition relates them (N*p_fill = p_scan) and the edge is local.
  const auto n = *prog.symbols().lookup("N");
  const auto lcg = lcg::buildLCG(prog, {{n, 32}}, 4);
  const auto& g = lcg.graph("A");
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0].label, loc::EdgeLabel::kLocal) << "fill2d -> scan1d";
  ASSERT_TRUE(g.edges[0].condition.has_value());
  // slope of the 2-D phase is N, of the 1-D phase is 1.
  EXPECT_EQ(g.edges[0].condition->slopeK, Expr::symbol(n));
  EXPECT_EQ(*g.edges[0].condition->slopeG.asInteger(), 1);
  // The transposed read cannot share the row distribution: communication.
  EXPECT_EQ(g.edges[1].label, loc::EdgeLabel::kComm) << "scan1d -> transposed";
}

TEST_F(ReshapedViews, PipelineKeepsReshapedViewsLocal) {
  const auto n = *prog.symbols().lookup("N");
  driver::PipelineConfig config;
  config.params = {{n, 32}};
  config.processors = 4;
  const auto result = driver::analyzeAndSimulate(prog, config);
  ASSERT_TRUE(result.solution.feasible);
  // fill2d and scan1d run without remote accesses under one distribution;
  // the transpose pays one redistribution.
  EXPECT_EQ(result.planned.phases[0].remoteAccesses, 0);
  EXPECT_EQ(result.planned.phases[1].remoteAccesses, 0);
  EXPECT_EQ(result.planned.phases[2].remoteAccesses, 0);
  ASSERT_EQ(result.planned.redistributions.size(), 1u);
  EXPECT_EQ(result.planned.redistributions[0].beforePhase, 2u);
}

TEST_F(ReshapedViews, WalkerAgreesAcrossViews) {
  // Ground truth: all three phases touch exactly the same address set.
  const auto n = *prog.symbols().lookup("N");
  const ir::Bindings params{{n, 8}};
  const auto a1 = reference::touchedAddresses(prog, prog.phase(0), "A", params);
  const auto a2 = reference::touchedAddresses(prog, prog.phase(1), "A", params);
  const auto a3 = reference::touchedAddresses(prog, prog.phase(2), "A", params);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1, a3);
  EXPECT_EQ(a1.size(), 64u);
}

}  // namespace
}  // namespace ad
