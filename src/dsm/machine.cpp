#include "dsm/machine.hpp"

#include <algorithm>
#include <sstream>

#include "dsm/access_count.hpp"
#include "obs/obs.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"

namespace ad::dsm {

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

DataDistribution DataDistribution::blockCyclic(std::int64_t block) {
  AD_REQUIRE(block >= 1, "block size must be positive");
  return DataDistribution{Kind::kBlockCyclic, block};
}

DataDistribution DataDistribution::blocked(std::int64_t arraySize, std::int64_t processors) {
  return blockCyclic(std::max<std::int64_t>(1, ceilDiv(arraySize, processors)));
}

DataDistribution DataDistribution::foldedBlockCyclic(std::int64_t block, std::int64_t fold) {
  AD_REQUIRE(block >= 1 && fold >= 1, "bad folded distribution parameters");
  return DataDistribution{Kind::kFoldedBlockCyclic, block, fold};
}

DataDistribution DataDistribution::replicated() {
  return DataDistribution{Kind::kReplicated, 1, 0};
}

bool DataDistribution::isLocal(std::int64_t addr, std::int64_t pe, std::int64_t processors,
                               std::int64_t halo) const {
  if (!hasOwner()) return true;  // replicated copies
  if (owner(addr, processors) == pe) return true;
  if (halo <= 0) return false;
  // Replicated halos: pe also holds copies of the `halo` elements adjacent
  // to each of its blocks (checked on the folded address for folded kinds).
  // A halo deeper than one block — multi-row sliding windows — reaches
  // across several neighbouring blocks; past a full period it covers
  // everything. Must mirror sym::localIntervals exactly (the differential
  // oracles compare byte for byte).
  const std::int64_t a = kind == Kind::kFoldedBlockCyclic ? foldPiece(addr).reflect(addr) : addr;
  const std::int64_t period = block * processors;
  const std::int64_t hl = std::min(halo, period);
  // Distance forward from the end of pe's block to `a`, and backward from
  // the start of pe's block, both within the period.
  if (euclidMod(a - (pe + 1) * block, period) < hl) return true;
  if (euclidMod(pe * block - 1 - a, period) < hl) return true;
  return false;
}

std::int64_t DataDistribution::ownerPeriod(std::int64_t processors) const {
  return kind == Kind::kFoldedBlockCyclic ? fold : checkedMul(block, processors);
}

std::int64_t IterationDistribution::iterationsOn(std::int64_t processors, std::int64_t pe,
                                                 std::int64_t lo, std::int64_t trip) const {
  AD_REQUIRE(chunk >= 1, "chunk must be positive");
  const std::int64_t cycle = checkedMul(chunk, processors);
  const auto below = [&](std::int64_t x) {
    const std::int64_t inCycle = std::clamp<std::int64_t>(x % cycle - pe * chunk, 0, chunk);
    return checkedAdd(checkedMul(x / cycle, chunk), inCycle);
  };
  return below(checkedAdd(lo, trip)) - below(lo);
}

// ---------------------------------------------------------------------------
// Result accounting
// ---------------------------------------------------------------------------

double SimulationResult::parallelTime() const {
  double t = 0.0;
  for (const auto& p : phases) t += p.time;
  for (const auto& r : redistributions) t += r.time;
  return t;
}

double SimulationResult::sequentialTime() const {
  double t = 0.0;
  for (const auto& p : phases) t += p.seqTime;
  return t;
}

std::int64_t SimulationResult::totalRemoteAccesses() const {
  std::int64_t n = 0;
  for (const auto& p : phases) n += p.remoteAccesses;
  return n;
}

std::string SimulationResult::str() const {
  std::ostringstream os;
  for (const auto& p : phases) {
    os << "  " << p.phase << ": local=" << p.localAccesses << " remote=" << p.remoteAccesses
       << " time=" << p.time << "\n";
  }
  for (const auto& r : redistributions) {
    os << "  " << (r.frontier ? "frontier " : "redistribute ") << r.array << " before phase " << r.beforePhase + 1
       << ": words=" << r.wordsMoved << " msgs=" << r.messages << " time=" << r.time << "\n";
  }
  os << "  T_par=" << parallelTime() << " T_seq=" << sequentialTime()
     << " speedup=" << speedup() << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

ExecutionPlan ExecutionPlan::naiveBlock(const ir::Program& program, const ir::Bindings& params,
                                        std::int64_t processors) {
  ExecutionPlan plan;
  for (const auto& ph : program.phases()) {
    const std::int64_t trip = ir::parallelTripCount(ph, params);
    plan.iteration.push_back(
        IterationDistribution{std::max<std::int64_t>(1, ceilDiv(trip, processors))});
  }
  for (const auto& arr : program.arrays()) {
    const Rational sz = arr.size.evaluate(params);
    const auto dist = DataDistribution::blocked(sz.asInteger(), processors);
    plan.data[arr.name] = std::vector<DataDistribution>(program.phases().size(), dist);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

bool redistributionMovesData(const ir::Program& program, const std::string& array,
                             std::size_t phase) {
  for (std::size_t k = phase; k < program.phases().size(); ++k) {
    const ir::Phase& ph = program.phase(k);
    if (ph.isPrivatized(array)) continue;  // scratch use: old values irrelevant
    if (!ph.accesses(array)) continue;
    return ph.reads(array);  // first real use: reads need the old values
  }
  return false;  // never used again
}

bool redistributes(const ir::Program& program, const ExecutionPlan& plan,
                   const std::string& array, std::size_t k) {
  const auto it = plan.data.find(array);
  if (k == 0 || it == plan.data.end()) return false;
  const DataDistribution& prev = it->second[k - 1];
  const DataDistribution& next = it->second[k];
  return !(prev == next) && prev.hasOwner() && next.hasOwner() &&
         redistributionMovesData(program, array, k);
}

RedistributionStats refreshTraffic(std::int64_t size, std::int64_t block, std::int64_t halo) {
  const std::int64_t boundaries = std::max<std::int64_t>(0, ceilDiv(size, block) - 1);
  RedistributionStats rs;
  rs.frontier = true;
  rs.wordsMoved = 2 * halo * boundaries;
  rs.messages = 2 * boundaries;
  return rs;
}

std::optional<RedistributionStats> frontierRefresh(const ir::Program& program,
                                                   const ir::Bindings& params,
                                                   const ExecutionPlan& plan,
                                                   const std::string& array, std::size_t k) {
  const auto hit = plan.halo.find(array);
  if (hit == plan.halo.end() || hit->second[k] <= 0) return std::nullopt;
  const ir::Phase& phase = program.phase(k);
  if (!phase.reads(array) || phase.isPrivatized(array)) return std::nullopt;
  const bool writtenElsewhere =
      std::any_of(program.phases().begin(), program.phases().end(), [&](const ir::Phase& other) {
        return &other != &phase && other.writes(array) && !other.isPrivatized(array);
      });
  const DataDistribution& dist = plan.data.at(array)[k];
  if (!writtenElsewhere || !dist.hasOwner()) return std::nullopt;
  RedistributionStats rs = refreshTraffic(
      ir::evalInt(program.array(array).size, params, "array size"), dist.block, hit->second[k]);
  if (rs.wordsMoved == 0) return std::nullopt;
  rs.array = array;
  rs.beforePhase = k;
  return rs;
}

SimulationResult simulate(const ir::Program& program, const ir::Bindings& params,
                          const MachineParams& machine, const ExecutionPlan& plan) {
  obs::Span span("dsm.simulate");
  return simulate(program, machine, countPlan(program, params, plan, machine.processors));
}

SimulationResult simulate(const ir::Program& program, const MachineParams& machine,
                          const PlanCounts& counts) {
  const std::int64_t H = machine.processors;
  AD_REQUIRE(counts.tallies.size() == program.phases().size(), "counts must cover every phase");
  SimulationResult result;

  const auto charge = [&](RedistributionStats rs) {
    rs.time = machine.transferTime(rs.messages, rs.wordsMoved);
    result.redistributions.push_back(std::move(rs));
  };
  std::int64_t enumerated = 0;
  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    const ir::Phase& phase = program.phase(k);
    const PhaseCommunication& comm = counts.communication[k];
    for (const auto& rs : comm.global) charge(rs);
    // With a single processor every block boundary is intra-processor — a
    // frontier "refresh" would be a self-put moving nothing over the network.
    if (H > 1) {
      for (const auto& rs : comm.frontier) charge(rs);
    }

    // Compute work scales with the phase's per-access weight; remoteness adds
    // a flat network penalty on top.
    const PhaseTally& tally = counts.tallies[k];
    enumerated += tally.enumeratedRefs();
    const double work = machine.localAccess * phase.workPerAccess();
    std::vector<std::int64_t> accesses(static_cast<std::size_t>(H), 0);
    std::vector<std::int64_t> remote(static_cast<std::size_t>(H), 0);
    PhaseStats ps;
    ps.phase = phase.name();
    for (const auto& a : tally.arrays) {
      ps.localAccesses += a.counts.local;
      ps.remoteAccesses += a.counts.remote;
      for (std::size_t p = 0; p < accesses.size(); ++p) {
        accesses[p] += a.peAccesses[p];
        remote[p] += a.peRemote[p];
      }
    }
    ps.peTime.resize(accesses.size());
    for (std::size_t p = 0; p < accesses.size(); ++p) {
      ps.peTime[p] = static_cast<double>(accesses[p]) * work +
                     static_cast<double>(remote[p]) * machine.remoteAccess;
    }
    ps.seqTime = static_cast<double>(ps.localAccesses + ps.remoteAccesses) * work;
    ps.time = *std::max_element(ps.peTime.begin(), ps.peTime.end());
    result.phases.push_back(std::move(ps));
  }
  obs::metrics().counter("ad.dsm.regions_enumerated").add(enumerated);
  return result;
}

}  // namespace ad::dsm
