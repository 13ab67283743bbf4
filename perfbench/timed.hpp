// Workload state shared by the timed and the traced runs.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

namespace adbench {

/// compile_cold's corpus, shuffled by the seed, built and bound once.
struct CompileState {
  std::vector<RequestSpec> specs;
  std::vector<Prepared> prepared;
  std::vector<ad::driver::BatchItem> batch;
  std::map<std::string, std::string> goldenFiles;  ///< path -> snapshot text

  explicit CompileState(std::uint64_t seed);

  /// One operation: cold caches, analyzeBatch at `jobs`, serializeGolden on
  /// each result. Returns its milliseconds; checks every output into `out`
  /// (after the clock stops) when given.
  double runBatch(std::size_t jobs, const Digests& digests, Outcome* out) const;
};

/// service_mix's request stream: request `index` is a fresh program in two
/// slots of every ten (slot positions drawn from the seed) and otherwise the
/// next entry of a seeded permutation of the fixed corpus, cycled.
struct ServiceStream {
  std::vector<RequestSpec> corpus;
  std::uint64_t seed;
  std::vector<std::size_t> order;
  std::vector<char> freshSlot;  ///< 1 where the block slot is fresh

  ServiceStream(std::vector<RequestSpec> corpus, std::uint64_t seed);
  [[nodiscard]] RequestSpec at(std::uint64_t index) const;
};

struct ServiceSamples {
  std::vector<double> roundTripMs;
  std::vector<double> queueMs;  ///< Response::queueUs
  std::vector<double> runMs;    ///< Response::runUs
  std::vector<std::pair<std::uint64_t, std::string>> fresh;  ///< index, golden digest
  std::int64_t shed = 0;        ///< sheds absorbed by client retries
  double windowS = 0.0;
  double rssMb = 0.0;           ///< peak RSS at the RSS mark request, else at the end
};

/// An in-process Server (workers = nproc) behind an AF_UNIX SocketServer.
class ServiceRun {
 public:
  explicit ServiceRun(const RunOptions& options);
  ~ServiceRun();
  ServiceRun(const ServiceRun&) = delete;
  ServiceRun& operator=(const ServiceRun&) = delete;

  /// Each corpus entry once through the in-process server, checked.
  void warmUp(const Digests& digests, Outcome& out);
  /// `clients` closed-loop socket clients for `seconds`; checks every
  /// response except fresh ones, whose digests are returned for checkFresh.
  ServiceSamples loop(std::size_t clients, double seconds, const Digests& digests, Outcome& out);

  ServiceStream stream;

 private:
  std::unique_ptr<ad::service::Server> server_;
  std::unique_ptr<ad::service::SocketServer> socket_;
};

[[nodiscard]] ad::service::Request toServiceRequest(const RequestSpec& spec, std::string id);

/// Re-runs every fresh request of `samples` in process and compares goldens.
void checkFresh(const ServiceStream& stream, const ServiceSamples& samples, Outcome& out);

}  // namespace adbench
