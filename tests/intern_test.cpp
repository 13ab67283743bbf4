// Hash-consing arena unit tests: pointer identity, cached hashes, table
// growth, footprint accounting, clear() semantics, and hash-quality
// independence (the degenerate-hash hook collapses every expression into one
// shard/bucket and nothing but probe lengths may change).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "support/budget.hpp"
#include "symbolic/intern.hpp"
#include "symbolic/ranges.hpp"

namespace ad {
namespace {

using sym::Expr;
using sym::ExprIntern;
using sym::InternedExpr;

Expr c(std::int64_t v) { return Expr::constant(v); }

/// A family of distinct normal forms over a private symbol table.
std::vector<Expr> makeFamily(sym::SymbolTable& st, int n) {
  const auto p = st.parameter("P");
  const auto i = st.index("i");
  std::vector<Expr> out;
  for (int k = 0; k < n; ++k) {
    Expr e = Expr::symbol(p) * c(k + 1) + Expr::symbol(i) * c(k % 7) + c(k - 3);
    if (k % 3 == 0) e = e + Expr::pow2(Expr::symbol(i) + c(k % 5));
    out.push_back(e);
  }
  return out;
}

class InternTest : public ::testing::Test {
 protected:
  // Each case restarts the arena cold; clear() also drops the proof memo, so
  // no pointer-keyed entry can survive into the next case.
  void SetUp() override { ExprIntern::global().clear(); }
  void TearDown() override { ExprIntern::global().clear(); }
};

TEST_F(InternTest, PointerIdentityForEqualExprs) {
  sym::SymbolTable st;
  const auto exprs = makeFamily(st, 32);
  for (const Expr& e : exprs) {
    const InternedExpr a = ExprIntern::global().intern(e);
    const Expr copy = e;  // distinct object, same normal form
    const InternedExpr b = ExprIntern::global().intern(copy);
    ASSERT_TRUE(a);
    EXPECT_EQ(a, b);                  // pointer identity
    EXPECT_EQ(a.get(), b.get());      // literally the same node
    EXPECT_EQ(*a, e);                 // canonical node holds the value
    EXPECT_EQ(a.hash(), sym::fingerprintExpr(e));  // cached structural hash
  }
  EXPECT_EQ(ExprIntern::global().size(), exprs.size());
}

TEST_F(InternTest, DistinctExprsGetDistinctNodes) {
  sym::SymbolTable st;
  const auto exprs = makeFamily(st, 64);
  std::vector<const Expr*> nodes;
  for (const Expr& e : exprs) nodes.push_back(ExprIntern::global().intern(e).get());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      EXPECT_NE(nodes[i], nodes[j]) << "exprs " << i << " and " << j;
    }
  }
}

TEST_F(InternTest, MoveOverloadInternsWithoutChangingIdentity) {
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  const Expr e = Expr::symbol(p) * c(7) + c(11);
  Expr tmp = e;
  const InternedExpr a = ExprIntern::global().intern(std::move(tmp));
  const InternedExpr b = ExprIntern::global().intern(e);
  EXPECT_EQ(a, b);
  EXPECT_EQ(*a, e);
}

TEST_F(InternTest, SurvivesTableGrowthAndManyNodes) {
  // Push well past the initial per-shard capacity so every shard resizes at
  // least once; previously returned handles must stay valid (bump-arena
  // nodes never move — only the slot vectors rehash).
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  const auto q = st.parameter("Q");
  std::vector<InternedExpr> handles;
  std::vector<Expr> exprs;
  for (int k = 0; k < 5000; ++k) {
    exprs.push_back(Expr::symbol(p) * c(k) + Expr::symbol(q) * c(k % 13) + c(k / 7));
    handles.push_back(ExprIntern::global().intern(exprs.back()));
  }
  EXPECT_EQ(ExprIntern::global().size(), exprs.size());
  for (std::size_t k = 0; k < exprs.size(); ++k) {
    EXPECT_EQ(*handles[k], exprs[k]);
    EXPECT_EQ(ExprIntern::global().intern(exprs[k]), handles[k]);
  }
  const auto stats = ExprIntern::global().tableStats();
  EXPECT_EQ(stats.exprs, exprs.size());
  // The 70% growth policy keeps the aggregate load factor reasonable.
  EXPECT_GT(stats.loadFactor(), 0.05);
  EXPECT_LE(stats.loadFactor(), 0.75);
}

TEST_F(InternTest, BytesGaugeTracksArenaFootprint) {
  sym::SymbolTable st;
  EXPECT_EQ(ExprIntern::global().bytes(), 0u);
  EXPECT_EQ(obs::metrics().gauge("ad.intern.bytes").value(), 0);
  const auto exprs = makeFamily(st, 16);
  for (const Expr& e : exprs) (void)ExprIntern::global().intern(e);
  const std::size_t after = ExprIntern::global().bytes();
  EXPECT_GT(after, 0u);
  EXPECT_EQ(obs::metrics().gauge("ad.intern.bytes").value(),
            static_cast<std::int64_t>(after));
  EXPECT_EQ(obs::metrics().gauge("ad.intern.exprs").value(),
            static_cast<std::int64_t>(exprs.size()));
  // Re-interning allocates nothing new.
  for (const Expr& e : exprs) (void)ExprIntern::global().intern(e);
  EXPECT_EQ(ExprIntern::global().bytes(), after);

  ExprIntern::global().clear();
  EXPECT_EQ(ExprIntern::global().bytes(), 0u);
  EXPECT_EQ(ExprIntern::global().size(), 0u);
  EXPECT_EQ(obs::metrics().gauge("ad.intern.bytes").value(), 0);
  EXPECT_EQ(obs::metrics().gauge("ad.intern.exprs").value(), 0);
}

TEST_F(InternTest, ClearDropsProofMemoContexts) {
  // The proof memo keys entries by arena pointers, so clearing the arena
  // must drop the memo too (dangling keys otherwise).
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  sym::Assumptions assumptions(st);
  const sym::ProofMemoEnabledGuard on(true);
  const sym::RangeAnalyzer ra(assumptions);
  EXPECT_TRUE(ra.proveNonNegative(Expr::symbol(p) - c(1)));
  EXPECT_GT(sym::ProofMemo::global().stats().contexts, 0);
  ExprIntern::global().clear();
  EXPECT_EQ(sym::ProofMemo::global().stats().contexts, 0);
  EXPECT_EQ(ExprIntern::global().size(), 0u);
}

TEST_F(InternTest, RegistryHitOnTheNewestOfManyContextsProbesOneBucket) {
  // The registry is keyed by each context's cached hash, so a hit compares
  // only the entries of its own bucket, however many contexts a long-lived
  // server has made (a list scan would step through all of them).
  constexpr std::int64_t kContexts = 1000;
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  sym::ProofMemo& memo = sym::ProofMemo::global();
  const auto assumptionsFor = [&](std::int64_t k) {
    sym::Assumptions a(st);
    a.setRange(p, c(1), c(k + 1));
    return a;
  };
  for (std::int64_t k = 0; k < kContexts; ++k) (void)memo.context(assumptionsFor(k));
  ASSERT_EQ(memo.stats().contexts, kContexts);

  obs::Profiler& profiler = obs::profiler();
  profiler.reset();
  profiler.enable();
  const auto newest = memo.context(assumptionsFor(kContexts - 1));
  profiler.disable();
  const obs::ShardStats& registry = profiler.shard(obs::ShardFamily::kMemoRegistry, 0);
  EXPECT_EQ(registry.hits.load(), 1);
  EXPECT_EQ(registry.misses.load(), 0);
  EXPECT_LE(registry.probeSteps.load(), 2);
  EXPECT_EQ(memo.stats().contexts, kContexts);
  EXPECT_EQ(newest, memo.context(assumptionsFor(kContexts - 1)));
  profiler.reset();
}

TEST_F(InternTest, DegenerateHashCollapsesButPreservesIdentity) {
  sym::SymbolTable st;
  const auto exprs = makeFamily(st, 48);

  // Normal regime: record which answers the prover gives.
  sym::Assumptions assumptions(st);
  std::vector<bool> normalAnswers;
  {
    const sym::ProofMemoEnabledGuard on(true);
    const sym::RangeAnalyzer ra(assumptions);
    for (const Expr& e : exprs) normalAnswers.push_back(ra.proveNonNegative(e));
  }

  {
    const sym::DegenerateHashGuard degenerate;
    // Every handle still deduplicates correctly even though all hashes (and
    // thus all shard indices and probe clusters) collide.
    std::vector<InternedExpr> handles;
    for (const Expr& e : exprs) handles.push_back(ExprIntern::global().intern(e));
    for (std::size_t k = 0; k < exprs.size(); ++k) {
      EXPECT_EQ(handles[k].hash(), 0u);
      EXPECT_EQ(*handles[k], exprs[k]);
      EXPECT_EQ(ExprIntern::global().intern(exprs[k]), handles[k]);
      for (std::size_t j = k + 1; j < exprs.size(); ++j) {
        EXPECT_NE(handles[k], handles[j]);
      }
    }
    // And the prover answers are byte-for-byte the same.
    const sym::ProofMemoEnabledGuard on(true);
    const sym::RangeAnalyzer ra(assumptions);
    for (std::size_t k = 0; k < exprs.size(); ++k) {
      EXPECT_EQ(ra.proveNonNegative(exprs[k]), normalAnswers[k]) << "expr " << k;
    }
  }
  // Guard exit restarts the arena cold under normal hashing.
  EXPECT_EQ(ExprIntern::global().size(), 0u);
}

TEST_F(InternTest, AssumptionsMemoKeyIsCachedAndInvalidated) {
  sym::SymbolTable st;
  const auto p = st.parameter("P");
  sym::Assumptions a(st);
  a.setRange(p, c(2), c(64));
  const sym::Assumptions::MemoKey& k1 = a.memoKey();
  EXPECT_EQ(k1.text, sym::serializeAssumptions(a));
  // Cached: same object, no rebuild.
  EXPECT_EQ(&a.memoKey(), &k1);
  const std::string before = k1.text;
  // Mutation invalidates; the rebuilt key reflects the new state.
  a.addFact(Expr::symbol(p) - c(2));
  const sym::Assumptions::MemoKey& k2 = a.memoKey();
  EXPECT_NE(k2.text, before);
  EXPECT_EQ(k2.text, sym::serializeAssumptions(a));
  // Copies share the cache snapshot; mutating the copy detaches it.
  sym::Assumptions b = a;
  EXPECT_EQ(b.memoKey().text, a.memoKey().text);
  b.clear(p);
  EXPECT_NE(b.memoKey().text, a.memoKey().text);
  EXPECT_EQ(b.memoKey().text, sym::serializeAssumptions(b));
}

TEST_F(InternTest, InternedAnalyzerEntryPointsMatchExprOnes) {
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  const auto i = st.index("i");
  sym::Assumptions assumptions(st);
  assumptions.setRange(i, c(0), Expr::symbol(n) - c(1));
  const sym::ProofMemoEnabledGuard on(true);
  const sym::RangeAnalyzer ra(assumptions);

  const std::vector<Expr> queries = {
      Expr::symbol(n) - c(1),
      Expr::symbol(i),
      Expr::symbol(i) - Expr::symbol(n),
      Expr::symbol(n) * c(2) + Expr::symbol(i),
      Expr::pow2(Expr::symbol(i)) - c(1),
  };
  for (const Expr& e : queries) {
    const InternedExpr h = ExprIntern::global().intern(e);
    EXPECT_EQ(ra.proveNonNegative(h), ra.proveNonNegative(e));
    EXPECT_EQ(ra.provePositive(h), ra.provePositive(e));
    EXPECT_EQ(ra.sign(h), ra.sign(e));
    EXPECT_EQ(ra.proveIntegerValued(h), ra.proveIntegerValued(e));
    EXPECT_EQ(ra.upperBoundExpr(h), ra.upperBoundExpr(e));
    EXPECT_EQ(ra.lowerBoundExpr(h), ra.lowerBoundExpr(e));
  }
}

TEST_F(InternTest, TableStatsReportSlotsAndBytes) {
  sym::SymbolTable st;
  const auto exprs = makeFamily(st, 100);
  for (const Expr& e : exprs) (void)ExprIntern::global().intern(e);
  const auto stats = ExprIntern::global().tableStats();
  EXPECT_EQ(stats.exprs, exprs.size());
  EXPECT_GT(stats.slots, 0u);
  EXPECT_EQ(stats.bytes, ExprIntern::global().bytes());
  EXPECT_GT(stats.bytes, 0u);
}


TEST_F(InternTest, MemoAnswersMatchAcrossContexts) {
  // Two assumption sets that differ only in a symbol the queries never read
  // are distinct memo contexts; each must answer every query exactly as the
  // memo-free engine computes it from scratch.
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  const auto m = st.parameter("M");
  const auto i = st.index("i");
  sym::Assumptions a(st);
  a.setRange(i, c(0), Expr::symbol(n) - c(1));
  a.setRange(m, c(1), c(64));
  a.addFact(Expr::symbol(n) - c(3));
  sym::Assumptions b = a;
  b.setRange(m, c(2), c(128));

  const std::vector<Expr> queries = {
      Expr::symbol(n) - c(1),          // provable
      Expr::symbol(n) - c(3),          // provable only via the fact
      -Expr::symbol(n) + c(2),         // refutable (witness: N = 3)
      Expr::symbol(i) - Expr::symbol(n),
      c(-3) * Expr::symbol(n) + c(1),
  };
  for (const Expr& e : queries) {
    bool legacyNN = false;
    bool legacyPos = false;
    {
      const sym::ProofMemoEnabledGuard off(false);
      const sym::RangeAnalyzer fresh(a);
      legacyNN = fresh.proveNonNegative(e);
      legacyPos = fresh.provePositive(e);
    }
    const sym::ProofMemoEnabledGuard on(true);
    const sym::RangeAnalyzer ra(a);
    EXPECT_EQ(ra.proveNonNegative(e), legacyNN) << e.str(st);
    EXPECT_EQ(ra.provePositive(e), legacyPos) << e.str(st);
    const sym::RangeAnalyzer rb(b);
    EXPECT_EQ(rb.proveNonNegative(e), legacyNN) << e.str(st);
    EXPECT_EQ(rb.provePositive(e), legacyPos) << e.str(st);
  }
}

TEST_F(InternTest, EveryEntryPointRepeatIsServedByItsOwnContext) {
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  const auto m = st.parameter("M");
  const auto i = st.index("i");
  const Expr N = Expr::symbol(n);
  const Expr I = Expr::symbol(i);
  sym::Assumptions a(st);
  a.setRange(i, c(0), N - c(1));
  a.setRange(m, c(1), c(64));
  sym::Assumptions b = a;
  b.setRange(m, c(2), c(128));  // a second context the queries cannot tell apart

  const sym::ProofMemoEnabledGuard on(true);
  const sym::RangeAnalyzer ra(a);
  const sym::RangeAnalyzer rb(b);
  ASSERT_NE(a.memoKey().text, b.memoKey().text);

  // Every answer is rendered as text so one loop covers the three types.
  using Ask = std::function<std::string(const sym::RangeAnalyzer&, const InternedExpr&)>;
  const auto text = [&st](const std::optional<Expr>& v) { return v ? v->str(st) : "none"; };
  struct Case {
    const char* name;
    Expr query;
    Ask ask;
    std::string expected;
  };
  const std::vector<Case> cases = {
      {"proveNonNegative", N - I - c(1),
       [](const auto& r, const auto& h) { return std::to_string(r.proveNonNegative(h)); }, "1"},
      {"provePositive", c(2) * N - I,
       [](const auto& r, const auto& h) { return std::to_string(r.provePositive(h)); }, "1"},
      {"sign", I - N,
       [](const auto& r, const auto& h) {
         const auto s = r.sign(h);
         return s ? std::to_string(*s) : "none";
       },
       "-1"},
      {"upperBoundExpr", I + N,
       [&](const auto& r, const auto& h) { return text(r.upperBoundExpr(h)); },
       (c(2) * N - c(1)).str(st)},
      {"lowerBoundExpr", c(3) * I + N,
       [&](const auto& r, const auto& h) { return text(r.lowerBoundExpr(h)); }, N.str(st)},
      {"proveIntegerValued", Expr::constant(Rational(1, 2)) * Expr::pow2(I + c(1)),
       [](const auto& r, const auto& h) { return std::to_string(r.proveIntegerValued(h)); },
       "1"},
  };
  sym::ProofMemo& memo = sym::ProofMemo::global();
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const InternedExpr h = ExprIntern::global().intern(k.query);

    // First call: a miss that computes (proveIntegerValued's nested
    // proveNonNegative query misses too).
    const auto s0 = memo.stats();
    EXPECT_EQ(k.ask(ra, h), k.expected);
    const auto s1 = memo.stats();
    EXPECT_EQ(s1.hits, s0.hits);
    EXPECT_GE(s1.misses, s0.misses + 1);

    // Repeat in the same context: one hit, served from the memo. A
    // cancelled budget interrupts any proof search, so the right answer
    // here cannot have been computed.
    {
      support::Budget cancelled(support::BudgetLimits{},
                                std::make_shared<std::atomic<bool>>(true));
      const support::BudgetScope scope(&cancelled);
      EXPECT_EQ(k.ask(ra, h), k.expected);
    }
    const auto s2 = memo.stats();
    EXPECT_EQ(s2.hits, s1.hits + 1);
    EXPECT_EQ(s2.misses, s1.misses);

    // Another context shares nothing: it misses and computes the same answer.
    EXPECT_EQ(k.ask(rb, h), k.expected);
    const auto s3 = memo.stats();
    EXPECT_EQ(s3.hits, s2.hits);
    EXPECT_GE(s3.misses, s2.misses + 1);
  }
}

TEST_F(InternTest, ConcurrentIdenticalQueriesAgreeAndTerminate) {
  // Hammers one fresh query from many threads through one context (each
  // thread builds its own equal Assumptions, so they race on the registry
  // too): threads that miss together each compute and publish under the
  // context's one lock, and since answers are pure functions of (context,
  // query) every racing compute must reach the same verdict, whichever one
  // the table keeps.
  sym::SymbolTable st;
  const auto n = st.parameter("N");
  const auto i = st.index("i");
  const Expr e = c(-3) * Expr::symbol(n) + Expr::symbol(i) + c(1);

  const sym::ProofMemoEnabledGuard on(true);
  bool expected = false;
  {
    const sym::ProofMemoEnabledGuard off(false);
    sym::Assumptions a0(st);
    a0.setRange(i, c(0), Expr::symbol(n) - c(1));
    expected = sym::RangeAnalyzer(a0).provePositive(e);
  }
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::atomic<int> agree{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sym::Assumptions a(st);
      a.setRange(i, c(0), Expr::symbol(n) - c(1));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const sym::RangeAnalyzer ra(a);
      if (ra.provePositive(e) == expected) agree.fetch_add(1);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(agree.load(), kThreads);
  const auto stats = sym::ProofMemo::global().stats();
  EXPECT_EQ(stats.contexts, 1);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

}  // namespace
}  // namespace ad
