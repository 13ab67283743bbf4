// Driver CLI validation (driver/cli.hpp): one test per documented rejection
// rule, plus the accepted forms. parseCli never guesses — malformed input is
// a structured kInvalidArgument, which the driver maps to the usage exit code.
#include "driver/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "driver/pipeline.hpp"

namespace ad::driver {
namespace {

Expected<CliOptions> parse(std::vector<const char*> args) {
  args.insert(args.begin(), "tfft2_pipeline");
  return parseCli(static_cast<int>(args.size()), args.data());
}

void expectRejected(std::vector<const char*> args, std::string_view needle) {
  const auto r = parse(std::move(args));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(needle), std::string::npos)
      << "message was: " << r.status().message();
}

TEST(Cli, DefaultsWithNoArguments) {
  const auto r = parse({});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->P, 64);
  EXPECT_EQ(r->Q, 64);
  EXPECT_EQ(r->H, 8);
  EXPECT_FALSE(r->simulate);
  EXPECT_FALSE(r->suite);
  EXPECT_EQ(r->jobs, 1u);
  EXPECT_EQ(r->budgetSteps, 0);
  EXPECT_EQ(r->budgetMs, 0);
}

TEST(Cli, AcceptsFullFlagSet) {
  const auto r = parse({"16", "32", "4", "--simulate", "--jobs", "3", "--fault",
                        "prover.timeout@1", "--budget-steps", "500", "--budget-ms", "2000",
                        "--trace-out=t.json", "--metrics-out=m.json"});
  ASSERT_TRUE(r.has_value()) << r.status().str();
  EXPECT_EQ(r->P, 16);
  EXPECT_EQ(r->Q, 32);
  EXPECT_EQ(r->H, 4);
  EXPECT_TRUE(r->simulate);
  EXPECT_EQ(r->jobs, 3u);
  EXPECT_EQ(r->faultSpec, "prover.timeout@1");
  EXPECT_EQ(r->budgetSteps, 500);
  EXPECT_EQ(r->budgetMs, 2000);
  EXPECT_EQ(r->traceOut, "t.json");
  EXPECT_EQ(r->metricsOut, "m.json");
}

TEST(Cli, AcceptsPartialPositionals) {
  const auto r = parse({"128"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->P, 128);
  EXPECT_EQ(r->Q, 64);  // defaults keep their place
  EXPECT_EQ(r->H, 8);
}

TEST(Cli, ValidateTakesTheModeNames) {
  // One name table (parseValidateMode) serves the CLI and the service.
  for (const auto& [flag, mode] :
       {std::pair{"--validate=none", ValidateMode::kNone},
        std::pair{"--validate=trace", ValidateMode::kTrace},
        std::pair{"--validate=symbolic", ValidateMode::kSymbolic},
        std::pair{"--validate=both", ValidateMode::kBoth}}) {
    const auto r = parse({flag});
    ASSERT_TRUE(r.has_value()) << flag << ": " << r.status().str();
    EXPECT_EQ(parseValidateMode(r->validate), mode) << flag;
  }
  expectRejected({"--validate=all"}, "--validate");
  EXPECT_FALSE(parseValidateMode("").has_value());
}

TEST(Cli, RejectsJobsZero) { expectRejected({"--jobs", "0"}, "--jobs"); }

TEST(Cli, RejectsJobsNegative) { expectRejected({"--jobs", "-2"}, "--jobs"); }

TEST(Cli, RejectsJobsGarbage) {
  expectRejected({"--jobs", "many"}, "--jobs");
  expectRejected({"--jobs", "2x"}, "--jobs");  // the whole token must parse
}

TEST(Cli, RejectsJobsMissingValue) { expectRejected({"--jobs"}, "--jobs"); }

TEST(Cli, RejectsUnknownFlag) { expectRejected({"--frobnicate"}, "--frobnicate"); }

TEST(Cli, RejectsNonIntegerPositional) { expectRejected({"eight"}, "eight"); }

TEST(Cli, RejectsTooManyPositionals) { expectRejected({"1", "2", "3", "4"}, "too many"); }

TEST(Cli, RejectsNonPositiveSizes) {
  expectRejected({"0"}, ">= 1");
  expectRejected({"8", "-8"}, ">= 1");
}

TEST(Cli, RejectsBadBudgets) {
  expectRejected({"--budget-steps", "-1"}, "--budget-steps");
  expectRejected({"--budget-steps", "lots"}, "--budget-steps");
  expectRejected({"--budget-ms", "-5"}, "--budget-ms");
  expectRejected({"--budget-ms"}, "--budget-ms");
}

TEST(Cli, RejectsEmptyArtifactPaths) {
  expectRejected({"--trace-out="}, "--trace-out");
  expectRejected({"--metrics-out="}, "--metrics-out");
  expectRejected({"--profile-out="}, "--profile-out");
}

TEST(Cli, AcceptsProfileOut) {
  const auto r = parse({"8", "8", "4", "--profile-out=p.json"});
  ASSERT_TRUE(r.has_value()) << r.status().str();
  EXPECT_EQ(r->profileOut, "p.json");
  const auto off = parse({"8", "8", "4"});
  ASSERT_TRUE(off.has_value());
  EXPECT_TRUE(off->profileOut.empty());
}

TEST(Cli, RejectsSuiteWithPositionals) {
  // --suite fixes its own problem sizes; mixing the two is ambiguous.
  expectRejected({"--suite", "8", "8", "4"}, "--suite");
  const auto ok = parse({"--suite", "--simulate"});
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->suite);
}

TEST(Cli, RejectsFaultMissingSpec) { expectRejected({"--fault"}, "--fault"); }

TEST(Cli, FaultSpecIsCarriedVerbatim) {
  // Grammar validation happens in FaultInjector::configure; parseCli only
  // transports the string.
  const auto r = parse({"--fault", "not-a-valid-spec"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->faultSpec, "not-a-valid-spec");
}

TEST(Cli, UsageMentionsEveryFlagAndExitCode) {
  const std::string usage = cliUsage("prog");
  for (const char* needle :
       {"--simulate", "--suite", "--jobs", "--fault", "--budget-steps", "--budget-ms",
        "--trace-out=", "--metrics-out=", "--profile-out=", "--serve=", "--client=",
        "--source=", "--param", "--shutdown", "--repeat", "--retries", "--queue",
        "--drain-ms", "exit codes", "6 service unavailable"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << "usage lacks " << needle;
  }
}

// --- Service modes (--serve / --client, docs/SERVICE.md) ---

TEST(Cli, AcceptsServeWithItsFlags) {
  const auto r = parse({"--serve=/tmp/ad.sock", "--jobs", "4", "--queue", "32",
                        "--drain-ms", "500", "--budget-steps", "1000"});
  ASSERT_TRUE(r.has_value()) << r.status().str();
  EXPECT_EQ(r->serve, "/tmp/ad.sock");
  EXPECT_EQ(r->jobs, 4u);
  EXPECT_EQ(r->queueMax, 32);
  EXPECT_EQ(r->drainMs, 500);
  EXPECT_EQ(r->budgetSteps, 1000);
  EXPECT_TRUE(r->client.empty());
}

TEST(Cli, AcceptsClientAnalyzeRequest) {
  const auto r = parse({"--client=/tmp/ad.sock", "--source=prog.adl", "--param", "N=64",
                        "--param", "T=4", "--processors", "16", "--repeat", "3",
                        "--retries", "9", "--validate=both"});
  ASSERT_TRUE(r.has_value()) << r.status().str();
  EXPECT_EQ(r->client, "/tmp/ad.sock");
  EXPECT_EQ(r->source, "prog.adl");
  ASSERT_EQ(r->params.size(), 2u);
  EXPECT_EQ(r->params[0].first, "N");
  EXPECT_EQ(r->params[0].second, 64);
  EXPECT_EQ(r->params[1].first, "T");
  EXPECT_EQ(r->params[1].second, 4);
  EXPECT_EQ(r->processors, 16);
  EXPECT_EQ(r->repeat, 3);
  EXPECT_EQ(r->retries, 9);
  EXPECT_FALSE(r->shutdownOp);
}

TEST(Cli, AcceptsClientShutdown) {
  const auto r = parse({"--client=/tmp/ad.sock", "--shutdown"});
  ASSERT_TRUE(r.has_value()) << r.status().str();
  EXPECT_TRUE(r->shutdownOp);
  EXPECT_TRUE(r->source.empty());
}

TEST(Cli, RejectsServeClientMutualExclusion) {
  expectRejected({"--serve=/a", "--client=/b"}, "mutually exclusive");
}

TEST(Cli, RejectsServeWithForeignOptions) {
  expectRejected({"--serve=/a", "--suite"}, "--suite");
  expectRejected({"--serve=/a", "8", "8", "4"}, "positional");
  expectRejected({"--serve=/a", "--simulate"}, "per request");
  expectRejected({"--serve=/a", "--validate=trace"}, "per request");
  expectRejected({"--serve=/a", "--source=x.adl"}, "--client flag");
  expectRejected({"--serve=/a", "--repeat", "2"}, "--client flag");
  expectRejected({"--serve="}, "--serve=");
}

TEST(Cli, RejectsClientWithForeignOptions) {
  expectRejected({"--client=/a", "--suite"}, "--suite");
  expectRejected({"--client=/a", "--source=x.adl", "8"}, "positional");
  expectRejected({"--client=/a", "--source=x.adl", "--queue", "4"}, "--serve flag");
  expectRejected({"--client=/a", "--source=x.adl", "--drain-ms", "9"}, "--serve flag");
  expectRejected({"--client="}, "--client=");
}

TEST(Cli, RejectsClientWithoutExactlyOneAction) {
  expectRejected({"--client=/a"}, "--source");
  expectRejected({"--client=/a", "--source=x.adl", "--shutdown"}, "--shutdown");
}

TEST(Cli, RejectsServiceFlagsWithoutTheirMode) {
  expectRejected({"--source=x.adl"}, "requires --client");
  expectRejected({"--shutdown"}, "requires --client");
  expectRejected({"--param", "N=1"}, "requires --client");
  expectRejected({"--processors", "4"}, "requires --client");
  expectRejected({"--repeat", "2"}, "requires --client");
  expectRejected({"--retries", "3"}, "requires --client");
  expectRejected({"--queue", "8"}, "requires --serve");
  expectRejected({"--drain-ms", "100"}, "requires --serve");
}

TEST(Cli, RejectsMalformedServiceValues) {
  expectRejected({"--client=/a", "--param", "N"}, "--param");
  expectRejected({"--client=/a", "--param", "=3"}, "--param");
  expectRejected({"--client=/a", "--param", "N=abc"}, "--param");
  expectRejected({"--client=/a", "--param"}, "--param");
  expectRejected({"--client=/a", "--processors", "0"}, "--processors");
  expectRejected({"--client=/a", "--repeat", "0"}, "--repeat");
  expectRejected({"--client=/a", "--retries", "-1"}, "--retries");
  expectRejected({"--serve=/a", "--queue", "0"}, "--queue");
  expectRejected({"--serve=/a", "--drain-ms", "-1"}, "--drain-ms");
  expectRejected({"--source="}, "--source=");
}

}  // namespace
}  // namespace ad::driver
