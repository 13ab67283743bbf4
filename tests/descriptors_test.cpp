#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>

#include "codes/tfft2.hpp"
#include "descriptors/ard.hpp"
#include "descriptors/iteration_descriptor.hpp"
#include "descriptors/phase_descriptor.hpp"
#include "ir/walker.hpp"
#include "support/diagnostics.hpp"
#include "reference_oracles.hpp"

namespace ad::desc {
namespace {

using ir::Program;
using sym::Expr;

Expr c(std::int64_t v) { return Expr::constant(v); }

class Tfft2Descriptors : public ::testing::Test {
 protected:
  Tfft2Descriptors() : prog(codes::makeTFFT2()) {
    p = *prog.symbols().lookup("p");
    q = *prog.symbols().lookup("q");
    P = Expr::pow2(Expr::symbol(p));
    Q = Expr::pow2(Expr::symbol(q));
  }

  sym::RangeAnalyzer analyzerFor(std::size_t phase) const {
    // The Assumptions object must outlive the analyzer; a std::list keeps
    // earlier entries stable across insertions.
    cache.push_back(prog.phase(phase).assumptions(prog.symbols()));
    return sym::RangeAnalyzer(cache.back());
  }

  Program prog;
  sym::SymbolId p{}, q{};
  Expr P, Q;
  mutable std::list<sym::Assumptions> cache;
};

// ---------------------------------------------------------------------------
// Figure 2: the ARDs of X in phase F3
// ---------------------------------------------------------------------------

TEST_F(Tfft2Descriptors, Figure2ARDsOfF3) {
  const auto& f3 = prog.phase(2);
  const auto ards = buildARDs(prog, f3, "X");
  ASSERT_EQ(ards.size(), 4u);  // two addresses, each read+write

  const sym::SymbolId L = *prog.symbols().lookup("L");
  const sym::SymbolId J = *prog.symbols().lookup("J");

  const ARD& a1 = ards[0];
  ASSERT_EQ(a1.dims.size(), 4u);
  // alpha = (Q, (P-2)*2^-L + 1, P*2^-L, 2^(L-1))
  EXPECT_EQ(a1.dims[0].alpha, Q);
  EXPECT_EQ(a1.dims[1].alpha, (P - c(2)) * Expr::pow2(-Expr::symbol(L)) + c(1));
  EXPECT_EQ(a1.dims[2].alpha, P * Expr::pow2(-Expr::symbol(L)));
  EXPECT_EQ(a1.dims[3].alpha, Expr::pow2(Expr::symbol(L) - c(1)));
  // delta = (2P, J*2^(L-1), 2^(L-1), 1)
  EXPECT_EQ(a1.dims[0].delta, c(2) * P);
  EXPECT_EQ(a1.dims[1].delta, Expr::symbol(J) * Expr::pow2(Expr::symbol(L) - c(1)));
  EXPECT_EQ(a1.dims[2].delta, Expr::pow2(Expr::symbol(L) - c(1)));
  EXPECT_EQ(a1.dims[3].delta.asInteger(), 1);
  // lambda = (1, 1, 1, 1)
  for (const auto& d : a1.dims) EXPECT_EQ(d.lambda, 1);
  // tau_1 = 0
  EXPECT_TRUE(a1.tau.isZero());
  EXPECT_TRUE(a1.dims[0].parallel);
  EXPECT_EQ(a1.deltaP, c(2) * P);

  // Second reference: tau_2 = P/2, everything else identical.
  const ARD& a2 = ards[2];
  EXPECT_EQ(a2.tau, Expr::pow2(Expr::symbol(p) - c(1)));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a2.dims[i].alpha, a1.dims[i].alpha);
    EXPECT_EQ(a2.dims[i].delta, a1.dims[i].delta);
  }
  // seq bounds: phi_seq in [0, P/2 - 1] for ref 1.
  EXPECT_TRUE(a1.seqMin.isZero());
  EXPECT_EQ(a1.seqMax, Expr::pow2(Expr::symbol(p) - c(1)) - c(1));
}

// ---------------------------------------------------------------------------
// Figure 3: the PD simplification chain
// ---------------------------------------------------------------------------

TEST_F(Tfft2Descriptors, Figure3CoalescingAndUnion) {
  auto pd = buildPhaseDescriptor(prog, 2, "X");
  ASSERT_EQ(pd.terms().size(), 4u);
  ASSERT_EQ(pd.terms()[0].dims.size(), 4u);

  const auto ra = analyzerFor(2);
  // Figure 3(b)+(c): coalescing removes the non-affine delta_2 = J*2^(L-1)
  // and delta_3 = 2^(L-1), leaving delta = (2P, 1), alpha = (Q, P/2).
  const std::size_t removed = coalesceStrides(pd, ra);
  EXPECT_EQ(removed, 2u * 4u);  // two dims removed in each of the 4 terms
  for (const auto& t : pd.terms()) {
    ASSERT_EQ(t.dims.size(), 2u);
    EXPECT_TRUE(t.dims[0].parallel);
    EXPECT_EQ(t.dims[0].delta, c(2) * P);
    EXPECT_EQ(t.dims[0].alpha, Q);
    EXPECT_EQ(t.dims[1].delta.asInteger(), 1);
    EXPECT_EQ(t.dims[1].alpha, Expr::pow2(Expr::symbol(p) - c(1)));  // P/2
  }

  // Figure 3(d): access-descriptor union merges the read/write duplicates
  // and then the two shifted regions [0,P/2-1] and [P/2,P-1] into one
  // contiguous region of P elements per parallel iteration.
  const std::size_t merged = unionTerms(pd, ra);
  EXPECT_EQ(merged, 3u);
  ASSERT_EQ(pd.terms().size(), 1u);
  const auto& t = pd.terms()[0];
  EXPECT_TRUE(t.tau.isZero());
  EXPECT_EQ(t.dims[1].alpha, P);
  EXPECT_EQ(t.seqMax, P - c(1));
}

TEST_F(Tfft2Descriptors, MinOffsetAndAdjustDistance) {
  auto pd = buildPhaseDescriptor(prog, 2, "X");
  const auto ra = analyzerFor(2);
  const auto tmin = pd.minOffset(ra);
  ASSERT_TRUE(tmin.has_value());
  EXPECT_TRUE(tmin->isZero());
  // Adjust distance of a descriptor whose first term starts at P/2 relative
  // to base 0: R = (P/2 - 0) / (2P) is not integer => nullopt; relative to
  // its own offset it is 0.
  const auto rSelf = adjustDistance(pd, pd.terms()[0].tau, ra);
  ASSERT_TRUE(rSelf.has_value());
  EXPECT_TRUE(rSelf->isZero());
}

// ---------------------------------------------------------------------------
// Figures 4 and 8: iteration descriptors, upper limits, memory gap
// ---------------------------------------------------------------------------

TEST_F(Tfft2Descriptors, Figure4And8IterationDescriptors) {
  auto pd = buildPhaseDescriptor(prog, 2, "X");
  const auto ra = analyzerFor(2);
  coalesceStrides(pd, ra);
  unionTerms(pd, ra);
  const auto id = buildIterationDescriptor(pd);
  ASSERT_EQ(id.terms().size(), 1u);
  EXPECT_TRUE(id.uniformParallelStride());

  // UL(I(X,i)) = 2P*i + P - 1; with P=4 the paper's Figure 8 values 3,11,19.
  const std::map<sym::SymbolId, std::int64_t> bind{{p, 2}};
  for (std::int64_t i : {0, 1, 2}) {
    const auto ul = id.upperLimit(c(i), ra);
    ASSERT_TRUE(ul.has_value());
    EXPECT_EQ(ul->evaluate(bind).asInteger(), 8 * i + 3) << "i=" << i;
  }

  // Memory gap h = 2P - P = P (the paper's h = 4 for P = 4).
  const auto h = id.memoryGap(ra);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(*h, P);
  EXPECT_EQ(h->evaluate(bind).asInteger(), 4);

  // Chunk upper limit: UL(I(X,0), p3) = 2P*(p3-1) + P - 1.
  const sym::SymbolId pk = prog.symbols().parameter("pk");
  const auto ulc = id.upperLimitChunk(c(0), Expr::symbol(pk), ra);
  ASSERT_TRUE(ulc.has_value());
  EXPECT_EQ(*ulc, c(2) * P * (Expr::symbol(pk) - c(1)) + P - c(1));

  // No overlapping storage in F3.
  const auto ov = id.hasOverlap(ra);
  ASSERT_TRUE(ov.has_value());
  EXPECT_FALSE(*ov);
  EXPECT_FALSE(id.overlapDistance(ra).has_value());
}

TEST_F(Tfft2Descriptors, Figure4ConcreteAddresses) {
  auto pd = buildPhaseDescriptor(prog, 2, "X");
  const auto ra = analyzerFor(2);
  coalesceStrides(pd, ra);
  unionTerms(pd, ra);
  const auto id = buildIterationDescriptor(pd);
  const std::map<sym::SymbolId, std::int64_t> bind{{p, 2}};
  // Figure 4 (P=4): iteration i covers [8i, 8i+3].
  for (std::int64_t i : {0, 1, 2}) {
    const auto addrs = id.addressesAt(i, bind);
    EXPECT_EQ(addrs, (std::vector<std::int64_t>{8 * i, 8 * i + 1, 8 * i + 2, 8 * i + 3}));
  }
}

// ---------------------------------------------------------------------------
// Storage symmetries (Figure 5 semantics, Table 2 distances) at F8
// ---------------------------------------------------------------------------

TEST_F(Tfft2Descriptors, F8StorageSymmetries) {
  auto pd = buildPhaseDescriptor(prog, 7, "X");
  const auto ra = analyzerFor(7);
  coalesceStrides(pd, ra);
  unionTerms(pd, ra);
  // Four distinct regions: i, i+PQ, PQ-i, 2PQ-i (read+write dedups merged).
  ASSERT_EQ(pd.terms().size(), 4u);
  const auto id = buildIterationDescriptor(pd);
  EXPECT_FALSE(id.uniformParallelStride());

  const Expr PQ = P * Q;
  // Term order follows reference order: X(i), X(i+PQ), X(PQ-i), X(2PQ-i).
  const auto s01 = id.symmetry(0, 1, ra);
  ASSERT_TRUE(s01.shifted.has_value());
  EXPECT_EQ(*s01.shifted, PQ);  // Delta_d^81 = PQ
  EXPECT_FALSE(s01.reverse.has_value());

  const auto s02 = id.symmetry(0, 2, ra);
  ASSERT_TRUE(s02.reverse.has_value());
  EXPECT_EQ(*s02.reverse, PQ);  // Delta_r^81(1) = PQ
  EXPECT_FALSE(s02.shifted.has_value());

  const auto s03 = id.symmetry(0, 3, ra);
  ASSERT_TRUE(s03.reverse.has_value());
  EXPECT_EQ(*s03.reverse, c(2) * PQ);  // Delta_r^81(2) = 2PQ
}

TEST_F(Tfft2Descriptors, F1PointUnionAndShiftedY) {
  // X(2i), X(2i+1) must union into one two-element region...
  auto pdx = buildPhaseDescriptor(prog, 0, "X");
  const auto ra = analyzerFor(0);
  coalesceStrides(pdx, ra);
  unionTerms(pdx, ra);
  ASSERT_EQ(pdx.terms().size(), 1u);
  EXPECT_EQ(pdx.terms()[0].seqMax, c(1));
  // ...while Y(i), Y(i+PQ) stay separate with Delta_d = PQ (Table 2's
  // Delta_d^12).
  auto pdy = buildPhaseDescriptor(prog, 0, "Y");
  coalesceStrides(pdy, ra);
  unionTerms(pdy, ra);
  ASSERT_EQ(pdy.terms().size(), 2u);
  const auto idy = buildIterationDescriptor(pdy);
  const auto sym01 = idy.symmetry(0, 1, ra);
  ASSERT_TRUE(sym01.shifted.has_value());
  EXPECT_EQ(*sym01.shifted, P * Q);
}

TEST_F(Tfft2Descriptors, F4ReversedSequentialStride) {
  // TRANSC writes Y block-reversed: the J dimension has lambda = -1 but the
  // covered region is the same 2P block.
  const auto ards = buildARDs(prog, prog.phase(3), "Y");
  ASSERT_EQ(ards.size(), 1u);
  ASSERT_EQ(ards[0].dims.size(), 2u);
  EXPECT_EQ(ards[0].dims[1].lambda, -1);
  EXPECT_EQ(ards[0].dims[1].delta.asInteger(), 1);
  EXPECT_EQ(ards[0].dims[1].alpha, c(2) * P);
  EXPECT_TRUE(ards[0].seqMin.isZero());
  EXPECT_EQ(ards[0].seqMax, c(2) * P - c(1));
}

// ---------------------------------------------------------------------------
// Property test: descriptor regions are supersets of the ground truth, and
// exact for the phases where the algebra promises exactness.
// ---------------------------------------------------------------------------

class DescriptorSoundness : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DescriptorSoundness, IDCoversWalkerAddresses) {
  const auto [pv, qv] = GetParam();
  Program prog = codes::makeTFFT2();
  const sym::SymbolId p = *prog.symbols().lookup("p");
  const sym::SymbolId q = *prog.symbols().lookup("q");
  const ir::Bindings params{{p, pv}, {q, qv}};

  for (std::size_t k = 0; k < prog.phases().size(); ++k) {
    const auto& phase = prog.phase(k);
    const auto assumptions = phase.assumptions(prog.symbols());
    const sym::RangeAnalyzer ra(assumptions);
    for (const auto& arrName : {"X", "Y"}) {
      if (!phase.accesses(arrName)) continue;
      auto pd = buildPhaseDescriptor(prog, k, arrName);
      coalesceStrides(pd, ra);
      unionTerms(pd, ra);
      const auto id = buildIterationDescriptor(pd);

      const std::int64_t trips = ir::parallelTripCount(phase, params);
      for (std::int64_t i = 0; i < trips; ++i) {
        const auto truth =
            reference::touchedAddressesInIteration(prog, phase, arrName, params, i);
        const auto predicted = id.addressesAt(i, params);
        const std::set<std::int64_t> predSet(predicted.begin(), predicted.end());
        for (std::int64_t a : truth) {
          EXPECT_TRUE(predSet.count(a))
              << phase.name() << " " << arrName << " iter " << i << " addr " << a
              << " (P=" << (1 << pv) << ", Q=" << (1 << qv) << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ParamSweep, DescriptorSoundness,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2}, std::pair{2, 3},
                                           std::pair{3, 2}, std::pair{3, 3}, std::pair{4, 3}));

TEST(DescriptorExactness, F3PredictionsAreExact) {
  Program prog = codes::makeTFFT2();
  const sym::SymbolId p = *prog.symbols().lookup("p");
  const sym::SymbolId q = *prog.symbols().lookup("q");
  for (auto [pv, qv] : {std::pair{2, 2}, std::pair{3, 3}, std::pair{4, 2}}) {
    const ir::Bindings params{{p, pv}, {q, qv}};
    const auto& phase = prog.phase(2);
    const auto assumptions = phase.assumptions(prog.symbols());
    const sym::RangeAnalyzer ra(assumptions);
    auto pd = buildPhaseDescriptor(prog, 2, "X");
    coalesceStrides(pd, ra);
    unionTerms(pd, ra);
    const auto id = buildIterationDescriptor(pd);
    for (std::int64_t i = 0; i < ir::parallelTripCount(phase, params); ++i) {
      EXPECT_EQ(id.addressesAt(i, params),
                reference::touchedAddressesInIteration(prog, phase, "X", params, i));
    }
  }
}

TEST(DescriptorErrors, IndeterminateStrideSignThrows) {
  Program prog;
  prog.declareArray("A", Expr::constant(1000));
  const sym::SymbolId n = prog.symbols().parameter("N");
  ir::PhaseBuilder b(prog, "f");
  b.doall("i", c(0), c(9));
  b.loop("j", c(0), c(9));
  // Subscript (j - 5)*j is non-monotone in j: stride sign flips.
  const Expr j = b.idx("j");
  b.read("A", (j - c(5)) * j + Expr::symbol(n) * b.idx("i"));
  b.commit();
  EXPECT_THROW((void)buildARDs(prog, prog.phase(0), "A"), AnalysisError);
}

TEST(DescriptorErrors, NonLinearParallelIndexThrows) {
  Program prog;
  prog.declareArray("A", Expr::constant(1000));
  ir::PhaseBuilder b(prog, "f");
  b.doall("i", c(0), c(9));
  const Expr i = b.idx("i");
  b.read("A", i * i);
  b.commit();
  EXPECT_THROW((void)buildARDs(prog, prog.phase(0), "A"), AnalysisError);
}

}  // namespace
}  // namespace ad::desc
