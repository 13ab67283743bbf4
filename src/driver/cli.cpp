#include "driver/cli.hpp"

#include <cerrno>
#include <cstdlib>

#include "driver/pipeline.hpp"

namespace ad::driver {

namespace {

/// Strict integer parse: the whole token must be one base-10 integer.
bool parseInt(std::string_view s, std::int64_t& out) {
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end == buf.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

Status invalid(std::string message) {
  return Status(ErrorCode::kInvalidArgument, std::move(message));
}

}  // namespace

std::string cliUsage(std::string_view argv0) {
  std::string out;
  out += "usage: ";
  out += argv0;
  out +=
      " [P] [Q] [H] [--simulate] [--validate=MODE] [--suite] [--jobs N]\n"
      "       [--fault SPEC] [--budget-steps N] [--budget-ms N]\n"
      "       [--trace-out=FILE] [--metrics-out=FILE] [--profile-out=FILE]\n"
      "       [--serve=PATH --queue N --drain-ms N]\n"
      "       [--client=PATH (--source=FILE [--param NAME=VALUE]...\n"
      "                       [--processors N] [--repeat N] | --shutdown)\n"
      "        [--retries N]]\n"
      "\n"
      "  P Q H           TFFT2 problem sizes and processor count (default 64 64 8);\n"
      "                  incompatible with --suite, which fixes its own sizes\n"
      "  --simulate      replay every access of the plan (serial trace replay)\n"
      "                  and cross-check the Theorem-1/2 edge labels\n"
      "  --validate=MODE none, trace (enumerate), symbolic (closed form), or both\n"
      "                  (differential: the two must agree exactly); see\n"
      "                  docs/VALIDATION.md. none overrides --simulate's trace\n"
      "  --suite         run the whole benchmark suite (six 1999 codes +\n                  the AI/HPC kernel family) as one batch\n"
      "  --jobs N        worker threads, N >= 1\n"
      "  --fault SPEC    deterministic fault injection: tag@N, tag@N+ or\n"
      "                  tag%P:SEED, comma-separated (see docs/ROBUSTNESS.md)\n"
      "  --budget-steps N  prover step budget (0 = unlimited)\n"
      "  --budget-ms N     analysis wall-clock deadline (0 = none)\n"
      "  --profile-out=FILE  write the ad.profile.v1 contention summary\n"
      "                  (per-thread wait/work tracks, per-shard lock stats);\n"
      "                  also enables the profiler for the run\n"
      "  --serve=PATH    run the analysis service on a Unix socket at PATH\n"
      "                  (--jobs workers, --queue admitted-request cap,\n"
      "                  --drain-ms shutdown grace, --budget-* per-request caps;\n"
      "                  see docs/SERVICE.md)\n"
      "  --client=PATH   submit to the service at PATH: --source=FILE is the ADL\n"
      "                  program, --param NAME=VALUE binds its parameters,\n"
      "                  --processors/--validate/--simulate/--budget-* shape the\n"
      "                  request, --repeat sends it N times, --retries bounds the\n"
      "                  backoff on overload shedding, --shutdown drains the server\n"
      "\n"
      "exit codes: 0 ok, 1 locality validation failed, 2 usage error,\n"
      "            3 artifact write failed, 4 analysis failed, 5 degraded but sound,\n"
      "            6 service unavailable (bind failed, shed after retries, no server)\n";
  return out;
}

Expected<CliOptions> parseCli(int argc, const char* const* argv) {
  CliOptions opts;
  std::int64_t positional[3] = {opts.P, opts.Q, opts.H};
  int npos = 0;
  // First client-/serve-only flag seen, for the mode cross-checks below.
  const char* sawClientFlag = nullptr;
  const char* sawServeFlag = nullptr;

  const auto flagValue = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--simulate") {
      opts.simulate = true;
    } else if (arg == "--suite") {
      opts.suite = true;
    } else if (arg == "--jobs") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--jobs needs a thread count");
      std::int64_t n = 0;
      if (!parseInt(v, n) || n < 1) {
        return invalid("bad --jobs value '" + std::string(v) + "': need an integer >= 1");
      }
      opts.jobs = static_cast<std::size_t>(n);
    } else if (arg == "--fault") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--fault needs a spec (tag@N, tag@N+ or tag%P:SEED)");
      opts.faultSpec = v;
    } else if (arg == "--budget-steps") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--budget-steps needs a count");
      if (!parseInt(v, opts.budgetSteps) || opts.budgetSteps < 0) {
        return invalid("bad --budget-steps value '" + std::string(v) +
                       "': need an integer >= 0");
      }
    } else if (arg == "--budget-ms") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--budget-ms needs a millisecond count");
      if (!parseInt(v, opts.budgetMs) || opts.budgetMs < 0) {
        return invalid("bad --budget-ms value '" + std::string(v) + "': need an integer >= 0");
      }
    } else if (arg.rfind("--validate=", 0) == 0) {
      opts.validate = arg.substr(sizeof("--validate=") - 1);
      if (!parseValidateMode(opts.validate)) {
        return invalid("bad --validate value '" + opts.validate +
                       "': want none, trace, symbolic, or both");
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opts.traceOut = arg.substr(sizeof("--trace-out=") - 1);
      if (opts.traceOut.empty()) return invalid("--trace-out= needs a file name");
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      opts.metricsOut = arg.substr(sizeof("--metrics-out=") - 1);
      if (opts.metricsOut.empty()) return invalid("--metrics-out= needs a file name");
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      opts.profileOut = arg.substr(sizeof("--profile-out=") - 1);
      if (opts.profileOut.empty()) return invalid("--profile-out= needs a file name");
    } else if (arg.rfind("--serve=", 0) == 0) {
      opts.serve = arg.substr(sizeof("--serve=") - 1);
      if (opts.serve.empty()) return invalid("--serve= needs a socket path");
    } else if (arg.rfind("--client=", 0) == 0) {
      opts.client = arg.substr(sizeof("--client=") - 1);
      if (opts.client.empty()) return invalid("--client= needs a socket path");
    } else if (arg.rfind("--source=", 0) == 0) {
      opts.source = arg.substr(sizeof("--source=") - 1);
      if (opts.source.empty()) return invalid("--source= needs a file name");
      sawClientFlag = "--source";
    } else if (arg == "--shutdown") {
      opts.shutdownOp = true;
      sawClientFlag = "--shutdown";
    } else if (arg == "--param") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--param needs NAME=VALUE");
      const std::string_view kv = v;
      const std::size_t eq = kv.find('=');
      std::int64_t value = 0;
      if (eq == 0 || eq == std::string_view::npos || !parseInt(kv.substr(eq + 1), value)) {
        return invalid("bad --param value '" + std::string(kv) +
                       "': want NAME=VALUE with an integer VALUE");
      }
      opts.params.emplace_back(std::string(kv.substr(0, eq)), value);
      sawClientFlag = "--param";
    } else if (arg == "--processors") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--processors needs a count");
      if (!parseInt(v, opts.processors) || opts.processors < 1) {
        return invalid("bad --processors value '" + std::string(v) +
                       "': need an integer >= 1");
      }
      sawClientFlag = "--processors";
    } else if (arg == "--repeat") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--repeat needs a count");
      if (!parseInt(v, opts.repeat) || opts.repeat < 1) {
        return invalid("bad --repeat value '" + std::string(v) + "': need an integer >= 1");
      }
      sawClientFlag = "--repeat";
    } else if (arg == "--retries") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--retries needs a count");
      if (!parseInt(v, opts.retries) || opts.retries < 0) {
        return invalid("bad --retries value '" + std::string(v) + "': need an integer >= 0");
      }
      sawClientFlag = "--retries";
    } else if (arg == "--queue") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--queue needs a capacity");
      if (!parseInt(v, opts.queueMax) || opts.queueMax < 1) {
        return invalid("bad --queue value '" + std::string(v) + "': need an integer >= 1");
      }
      sawServeFlag = "--queue";
    } else if (arg == "--drain-ms") {
      const char* v = flagValue(i);
      if (v == nullptr) return invalid("--drain-ms needs a millisecond count");
      if (!parseInt(v, opts.drainMs) || opts.drainMs < 0) {
        return invalid("bad --drain-ms value '" + std::string(v) + "': need an integer >= 0");
      }
      sawServeFlag = "--drain-ms";
    } else if (arg.rfind("--", 0) == 0) {
      return invalid("unrecognized flag '" + std::string(arg) + "'");
    } else {
      std::int64_t v = 0;
      if (!parseInt(arg, v)) {
        return invalid("unexpected argument '" + std::string(arg) + "'");
      }
      if (npos >= 3) return invalid("too many positional arguments (want P Q H)");
      if (v < 1) {
        return invalid("positional value '" + std::string(arg) + "' must be >= 1");
      }
      positional[npos++] = v;
    }
  }

  if (opts.suite && npos > 0) {
    return invalid("--suite fixes its own problem sizes; drop the positional P/Q/H");
  }
  if (!opts.serve.empty() && !opts.client.empty()) {
    return invalid("--serve and --client are mutually exclusive");
  }
  if (!opts.serve.empty()) {
    if (opts.suite) return invalid("--serve cannot run --suite");
    if (npos > 0) return invalid("--serve takes no positional P/Q/H");
    if (opts.simulate || !opts.validate.empty()) {
      return invalid("--serve takes analysis options per request, not on its command line");
    }
    if (sawClientFlag != nullptr) {
      return invalid(std::string(sawClientFlag) + " is a --client flag");
    }
  } else if (!opts.client.empty()) {
    if (opts.suite) return invalid("--client cannot run --suite");
    if (npos > 0) return invalid("--client takes no positional P/Q/H (use --param)");
    if (sawServeFlag != nullptr) {
      return invalid(std::string(sawServeFlag) + " is a --serve flag");
    }
    if (opts.shutdownOp == !opts.source.empty()) {
      // Exactly one of --shutdown / --source: shutdown carries no program,
      // and an analyze request needs one.
      return invalid(opts.shutdownOp ? "--shutdown does not take --source"
                                     : "--client needs --source=FILE (or --shutdown)");
    }
  } else {
    if (sawClientFlag != nullptr) {
      return invalid(std::string(sawClientFlag) + " requires --client=PATH");
    }
    if (sawServeFlag != nullptr) {
      return invalid(std::string(sawServeFlag) + " requires --serve=PATH");
    }
  }
  opts.P = positional[0];
  opts.Q = positional[1];
  opts.H = positional[2];
  return opts;
}

}  // namespace ad::driver
