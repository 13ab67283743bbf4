#include <gtest/gtest.h>

#include "codes/tfft2.hpp"
#include "ir/ir.hpp"
#include "ir/walker.hpp"
#include "support/diagnostics.hpp"
#include "reference_oracles.hpp"

namespace ad::ir {
namespace {

using sym::Expr;

Expr c(std::int64_t v) { return Expr::constant(v); }

TEST(Ir, PhaseRejectsTwoParallelLoops) {
  Program prog;
  prog.declareArray("A", c(100));
  PhaseBuilder b(prog, "bad");
  b.doall("i", c(0), c(9)).doall("j", c(0), c(9)).read("A", b.idx("i"));
  EXPECT_THROW(b.commit(), ProgramError);
}

TEST(Ir, PhaseRejectsRepeatedIndex) {
  Program prog;
  prog.declareArray("A", c(100));
  PhaseBuilder b(prog, "bad");
  b.loop("i", c(0), c(9)).loop("i", c(0), c(9));
  EXPECT_THROW(b.commit(), ProgramError);
}

TEST(Ir, ValidateCatchesUndeclaredArray) {
  Program prog;
  PhaseBuilder b(prog, "f");
  b.doall("i", c(0), c(9)).read("B", b.idx("i"));
  b.commit();
  EXPECT_THROW(prog.validate(), ProgramError);
}

TEST(Ir, ValidateCatchesForeignIndexInSubscript) {
  Program prog;
  prog.declareArray("A", c(100));
  const sym::SymbolId stray = prog.symbols().index("stray");
  PhaseBuilder b(prog, "f");
  b.doall("i", c(0), c(9)).read("A", Expr::symbol(stray));
  b.commit();
  EXPECT_THROW(prog.validate(), ProgramError);
}

TEST(Ir, ValidateCatchesInnerIndexInBound) {
  Program prog;
  prog.declareArray("A", c(100));
  const sym::SymbolId inner = prog.symbols().index("jj");
  PhaseBuilder b(prog, "f");
  // Outer loop bound uses the inner loop's index: invalid.
  b.loop("ii", c(0), Expr::symbol(inner)).loop("jj", c(0), c(3)).read("A", b.idx("ii"));
  b.commit();
  EXPECT_THROW(prog.validate(), ProgramError);
}

TEST(Ir, AccessQueries) {
  Program prog;
  prog.declareArray("A", c(100));
  prog.declareArray("B", c(100));
  PhaseBuilder b(prog, "f");
  b.doall("i", c(0), c(9));
  b.read("A", b.idx("i")).write("B", b.idx("i")).privatize("B");
  b.commit();
  const Phase& ph = prog.phase(0);
  EXPECT_TRUE(ph.reads("A"));
  EXPECT_FALSE(ph.writes("A"));
  EXPECT_TRUE(ph.writes("B"));
  EXPECT_TRUE(ph.isPrivatized("B"));
  EXPECT_FALSE(ph.isPrivatized("A"));
  EXPECT_TRUE(ph.accesses("A"));
  EXPECT_FALSE(ph.accesses("C"));
  EXPECT_EQ(ph.refsTo("A").size(), 1u);
}

TEST(Ir, UpdateAddsReadAndWrite) {
  Program prog;
  prog.declareArray("A", c(100));
  PhaseBuilder b(prog, "f");
  b.doall("i", c(0), c(9)).update("A", b.idx("i"));
  b.commit();
  EXPECT_TRUE(prog.phase(0).reads("A"));
  EXPECT_TRUE(prog.phase(0).writes("A"));
  EXPECT_EQ(prog.phase(0).refs().size(), 2u);
}

TEST(Ir, TFFT2BuildsAndValidates) {
  Program prog = codes::makeTFFT2();
  EXPECT_EQ(prog.phases().size(), 8u);
  EXPECT_EQ(prog.arrays().size(), 2u);
  EXPECT_EQ(prog.phaseIndex("CFFTZWORK"), 2u);
  EXPECT_TRUE(prog.phase(2).isPrivatized("Y"));
  EXPECT_FALSE(prog.phase(2).isPrivatized("X"));
  // Every phase has exactly one parallel loop.
  for (const auto& ph : prog.phases()) {
    EXPECT_TRUE(ph.hasParallelLoop()) << ph.name();
    EXPECT_TRUE(ph.loops()[ph.parallelLoopPos()].parallel);
  }
  // Listing mentions both arrays and the doall structure.
  const std::string s = prog.str();
  EXPECT_NE(s.find("doall"), std::string::npos);
  EXPECT_NE(s.find("array X"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Walker
// ---------------------------------------------------------------------------

class WalkerTest : public ::testing::Test {
 protected:
  WalkerTest() : prog(codes::makeTFFT2()) {
    // P = 4 (p=2), Q = 3 is the paper's Figure 4 setting... Q must be a
    // power of two in our reconstruction, so use Q = 4 (q=2) here and the
    // exact paper values in the descriptor tests where Q is unconstrained.
    params[*prog.symbols().lookup("p")] = 2;
    params[*prog.symbols().lookup("q")] = 2;
  }
  Program prog;
  Bindings params;
};

TEST_F(WalkerTest, ParallelTripCounts) {
  // F1: PQ = 16, F2: P = 4, F3: Q = 4, F8: PQ/2 = 8 (one iteration per
  // conjugate-symmetric pair).
  EXPECT_EQ(parallelTripCount(prog.phase(0), params), 16);
  EXPECT_EQ(parallelTripCount(prog.phase(1), params), 4);
  EXPECT_EQ(parallelTripCount(prog.phase(2), params), 4);
  EXPECT_EQ(parallelTripCount(prog.phase(7), params), 8);
}

TEST_F(WalkerTest, F3TouchesHalfBlocks) {
  // Phase F3 touches [2P*i, 2P*i + P - 1] per parallel iteration i.
  const auto addrs = reference::touchedAddressesInIteration(prog, prog.phase(2), "X", params, 1);
  // P=4: [8..11].
  EXPECT_EQ(addrs, (std::vector<std::int64_t>{8, 9, 10, 11}));
}

TEST_F(WalkerTest, F3WholeArrayCoverage) {
  const auto addrs = reference::touchedAddresses(prog, prog.phase(2), "X", params);
  // Q=4 blocks of P=4 every 2P=8: {0..3, 8..11, 16..19, 24..27}.
  EXPECT_EQ(addrs.size(), 16u);
  EXPECT_EQ(addrs.front(), 0);
  EXPECT_EQ(addrs.back(), 27);
  for (std::int64_t a : addrs) EXPECT_LT(a % 8, 4);
}

TEST_F(WalkerTest, IterationCountMatchesNestProduct) {
  // F2 is a P x Q rectangular nest.
  int count = 0;
  reference::forEachIteration(prog, prog.phase(1), params, [&](const Bindings&) { ++count; });
  EXPECT_EQ(count, 4 * 4);
}

TEST_F(WalkerTest, TriangularNestRespectsCoupledBounds) {
  // F3's inner loops depend on L: total iterations per I are
  // sum_L (P*2^-L)*(2^(L-1)) = p * P/2 = 2*2 = 4 per L... = p*P/2 = 4.
  int count = 0;
  reference::forEachIteration(prog, prog.phase(2), params, [&](const Bindings&) { ++count; });
  // Q * p * P/2 = 4 * 2 * 2 = 16.
  EXPECT_EQ(count, 16);
}

TEST_F(WalkerTest, AccessesCarryParallelIteration) {
  const auto check = [&](const reference::ConcreteAccess& a, const Bindings& b) {
    const auto I = *prog.symbols().lookup("I");
    EXPECT_EQ(a.parallelIter, b.at(I));
    // All F3 X accesses stay inside the iteration's 2P block.
    if (a.ref->array == "X") {
      EXPECT_GE(a.address, 8 * a.parallelIter);
      EXPECT_LT(a.address, 8 * a.parallelIter + 8);
    }
  };
  reference::forEachRunAccess(prog, prog.phase(2), params, check);
}

}  // namespace
}  // namespace ad::ir
