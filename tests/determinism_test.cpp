// Determinism of the batched analysis engine.
//
// The parallel engine must be *byte-identical* to the serial one: analyzing
// the six-code suite at 1, 2, and 8 worker threads — and repeatedly at the
// same thread count — must serialize to exactly the same LCGs and plans, and
// the Theorem-1/2 locality verdicts must not change. This is the test the
// TSan CI stage runs to catch both races and order-dependence in the shared
// proof memo.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/suite.hpp"
#include "codes/tfft2.hpp"
#include "driver/pipeline.hpp"
#include "driver/serialize.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/intern.hpp"

namespace ad {
namespace {

struct SuitePrograms {
  std::vector<ir::Program> programs;  ///< must outlive the results
  std::vector<driver::BatchItem> batch;
};

SuitePrograms makeSuiteBatch() {
  SuitePrograms out;
  const auto& suite = codes::benchmarkSuite();
  out.programs.reserve(suite.size());  // stable addresses for BatchItem
  for (const auto& info : suite) out.programs.push_back(info.build());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    driver::BatchItem item;
    item.program = &out.programs[i];
    item.config.params = codes::bindParams(out.programs[i], suite[i].smallParams);
    item.config.processors = 8;
    item.config.simulatePlan = false;
    item.config.simulateBaseline = false;
    out.batch.push_back(std::move(item));
  }
  return out;
}

std::vector<std::string> serializeAll(const SuitePrograms& sp, std::size_t jobs) {
  sym::ProofMemo::global().clear();  // every run starts cold
  const auto results = driver::analyzeBatch(sp.batch, jobs);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].has_value()) << codes::benchmarkSuite()[i].name;
    out.push_back(results[i] ? driver::serializeGolden(*results[i], sp.programs[i]) : "");
  }
  return out;
}

TEST(Determinism, ByteIdenticalAcrossThreadCounts) {
  const SuitePrograms sp = makeSuiteBatch();
  const auto reference = serializeAll(sp, 1);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const auto got = serializeAll(sp, jobs);
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(reference[i], got[i])
          << codes::benchmarkSuite()[i].name << " diverged at jobs=" << jobs;
    }
  }
}

// Hash quality must not affect determinism either: with every intern-time
// hash forced to one degenerate value (one arena shard, one probe cluster,
// one hash for every memo-registry entry), the batch must still be
// byte-identical at every thread count and to the normal-hash run.
TEST(Determinism, ByteIdenticalUnderDegenerateHashes) {
  const SuitePrograms sp = makeSuiteBatch();
  const auto normal = serializeAll(sp, 1);
  const sym::DegenerateHashGuard degenerate;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto got = serializeAll(sp, jobs);
    ASSERT_EQ(normal.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(normal[i], got[i]) << codes::benchmarkSuite()[i].name
                                   << " diverged under degenerate hashes at jobs=" << jobs;
    }
  }
}

TEST(Determinism, RepeatedRunsIdentical) {
  const SuitePrograms sp = makeSuiteBatch();
  const auto reference = serializeAll(sp, 8);
  for (int rep = 0; rep < 2; ++rep) {
    const auto got = serializeAll(sp, 8);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(reference[i], got[i])
          << codes::benchmarkSuite()[i].name << " diverged on repeat " << rep;
    }
  }
}

// The serial engine (memo off, jobs=1) and the batched engine must agree on
// the whole suite — the differential version of the golden test, end to end
// through the batch API.
TEST(Determinism, BatchedMatchesLegacySerial) {
  const SuitePrograms sp = makeSuiteBatch();
  std::vector<std::string> legacy;
  {
    sym::ProofMemoEnabledGuard off(false);
    for (std::size_t i = 0; i < sp.batch.size(); ++i) {
      legacy.push_back(driver::serializeGolden(
          driver::analyzeAndSimulate(sp.programs[i], sp.batch[i].config), sp.programs[i]));
    }
  }
  const auto batched = serializeAll(sp, 8);
  ASSERT_EQ(legacy.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(legacy[i], batched[i]) << codes::benchmarkSuite()[i].name;
  }
}

// Theorem-1/2 validation verdicts must be thread-count independent too: the
// trace-replayed locality check on TFFT2 agrees between the serial and the
// pooled engine.
TEST(Determinism, LocalityVerdictsThreadCountIndependent) {
  const ir::Program program = codes::makeTFFT2();
  driver::PipelineConfig config;
  config.params = codes::bindParams(program, {{"P", 16}, {"Q", 16}});
  config.processors = 4;
  config.simulateBaseline = false;
  config.validate = driver::ValidateMode::kTrace;

  sym::ProofMemo::global().clear();
  const auto serial = driver::analyzeAndSimulate(program, config);
  ASSERT_TRUE(serial.localityCheck.has_value());

  support::ThreadPool pool(8);
  sym::ProofMemo::global().clear();
  const auto pooled = driver::analyzeAndSimulate(program, config, &pool);
  ASSERT_TRUE(pooled.localityCheck.has_value());

  EXPECT_EQ(serial.localityCheck->ok(), pooled.localityCheck->ok());
  EXPECT_EQ(serial.localityCheck->checked, pooled.localityCheck->checked);
  EXPECT_EQ(serial.localityCheck->disagreements, pooled.localityCheck->disagreements);
  EXPECT_TRUE(serial.localityCheck->ok());
  EXPECT_EQ(driver::serializeGolden(serial, program), driver::serializeGolden(pooled, program));
}

}  // namespace
}  // namespace ad
