// Golden-file regression suite for the analysis engine.
//
// For every code of the benchmark suite (six 1999 codes + the AI/HPC kernel
// family), the serialized LCG (nodes, edge
// labels, balanced conditions) and distribution plan must match the checked-in
// snapshot byte for byte. Any analysis change — intended or not — shows up as
// a readable JSON diff.
//
// To refresh after an intended change:  scripts/update_goldens.sh
// (or AD_UPDATE_GOLDENS=1 ./build/tests/golden_test).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codes/suite.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "locality/analysis.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/intern.hpp"

namespace ad {
namespace {

std::string goldenPath(const std::string& code) {
  return std::string(AD_GOLDEN_DIR) + "/" + code + ".json";
}

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Analysis-only pipeline run for one suite code at its small sizes, H = 8.
driver::PipelineResult analyzeCode(const codes::CodeInfo& info, const ir::Program& program) {
  driver::PipelineConfig config;
  config.params = codes::bindParams(program, info.smallParams);
  config.processors = 8;
  config.simulatePlan = false;
  config.simulateBaseline = false;
  return driver::analyzeAndSimulate(program, config);
}

class GoldenFile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenFile, AnalysisMatchesSnapshot) {
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program program = info.build();
  const auto result = analyzeCode(info, program);
  const std::string got = driver::serializeGolden(result, program);

  const std::string path = goldenPath(info.name);
  if (const char* update = std::getenv("AD_UPDATE_GOLDENS"); update && *update == '1') {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out) << "could not write " << path;
    GTEST_SKIP() << "golden updated: " << path;
  }

  const auto want = readFile(path);
  ASSERT_TRUE(want) << "missing golden file " << path
                    << " — run scripts/update_goldens.sh";
  EXPECT_EQ(*want, got) << "analysis output for " << info.name
                        << " diverged from the golden snapshot; if the change "
                           "is intended, run scripts/update_goldens.sh";
}

// The memoized engine must agree with the legacy (memo-disabled) analyzer on
// every code: the shared-cache answers are computed from fresh scratch state,
// so enabling the cache may only change speed, never output.
TEST_P(GoldenFile, MemoizedMatchesLegacy) {
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program program = info.build();

  std::string legacy;
  {
    sym::ProofMemoEnabledGuard off(false);
    legacy = driver::serializeGolden(analyzeCode(info, program), program);
  }
  std::string memoized;
  {
    sym::ProofMemoEnabledGuard on(true);
    sym::ProofMemo::global().clear();  // cold cache: every answer computed here
    memoized = driver::serializeGolden(analyzeCode(info, program), program);
    // And warm: answered from the cache populated by the run above.
    const std::string warm = driver::serializeGolden(analyzeCode(info, program), program);
    EXPECT_EQ(memoized, warm);
  }
  EXPECT_EQ(legacy, memoized) << info.name;
}

// Hash quality must never affect results. Under the degenerate-hash hook
// every intern-time hash collapses to one value: all expressions land in one
// arena shard and probe cluster, every memo context shares a registry
// bucket, and the phase cache degrades the same way — probes become linear
// scans decided by structural/pointer compares alone. The snapshot must
// still match byte for byte.
TEST_P(GoldenFile, DegenerateHashMatchesSnapshot) {
  if (const char* update = std::getenv("AD_UPDATE_GOLDENS"); update && *update == '1') {
    GTEST_SKIP() << "golden refresh run";
  }
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program program = info.build();
  const auto want = readFile(goldenPath(info.name));
  ASSERT_TRUE(want) << "missing golden file for " << info.name;

  const sym::DegenerateHashGuard degenerate;  // restarts the arena + memo cold
  loc::clearPhaseArrayMemo();                 // cold phase cache under the hook too
  const sym::ProofMemoEnabledGuard on(true);
  const std::string got = driver::serializeGolden(analyzeCode(info, program), program);
  EXPECT_EQ(*want, got) << info.name << " diverged under the degenerate-hash hook";
}

// The prover's per-query scratch tables hash through internHash as well, so
// the hook collides every one of their entries into one bucket too. With the
// proof memo off those tables carry every answer; the snapshot must come out
// byte for byte with the hook on and off.
TEST_P(GoldenFile, DegenerateHashLeavesScratchTablesExact) {
  if (const char* update = std::getenv("AD_UPDATE_GOLDENS"); update && *update == '1') {
    GTEST_SKIP() << "golden refresh run";
  }
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program program = info.build();
  const auto want = readFile(goldenPath(info.name));
  ASSERT_TRUE(want) << "missing golden file for " << info.name;

  const sym::ProofMemoEnabledGuard off(false);
  loc::clearPhaseArrayMemo();
  const std::string hashed = driver::serializeGolden(analyzeCode(info, program), program);
  std::string collided;
  {
    const sym::DegenerateHashGuard degenerate;
    loc::clearPhaseArrayMemo();
    collided = driver::serializeGolden(analyzeCode(info, program), program);
  }
  EXPECT_EQ(*want, hashed) << info.name;
  EXPECT_EQ(hashed, collided) << info.name << " diverged with the scratch tables collided";
}

// The batched engine at any worker count must reproduce the snapshot byte
// for byte (jobs only changes speed, never output). jobs=1 runs the pool
// path with a single worker; jobs=8 exercises the shared task queue and
// concurrent memo population on the same item.
TEST_P(GoldenFile, MatchesSnapshotAtJobs1And8) {
  if (const char* update = std::getenv("AD_UPDATE_GOLDENS"); update && *update == '1') {
    GTEST_SKIP() << "golden refresh run";
  }
  const codes::CodeInfo& info = codes::benchmarkSuite()[GetParam()];
  const ir::Program program = info.build();
  const auto want = readFile(goldenPath(info.name));
  ASSERT_TRUE(want) << "missing golden file for " << info.name;

  for (const std::size_t jobs : {1u, 8u}) {
    driver::BatchItem item;
    item.program = &program;
    item.label = info.name;
    item.config.params = codes::bindParams(program, info.smallParams);
    item.config.processors = 8;
    item.config.simulatePlan = false;
    item.config.simulateBaseline = false;
    const auto results = driver::analyzeBatch({item}, jobs);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].has_value()) << info.name << " jobs=" << jobs;
    const std::string got = driver::serializeGolden(*results[0], program);
    EXPECT_EQ(*want, got) << info.name << " diverged from the snapshot at jobs=" << jobs;
  }
}

std::string codeName(const ::testing::TestParamInfo<std::size_t>& p) {
  return codes::benchmarkSuite()[p.param].name;
}

INSTANTIATE_TEST_SUITE_P(Suite, GoldenFile,
                         ::testing::Range<std::size_t>(0, codes::benchmarkSuite().size()),
                         codeName);

}  // namespace
}  // namespace ad
