#include "locality/symbolic_validate.hpp"

#include <chrono>
#include <sstream>

#include "obs/obs.hpp"
#include "support/budget.hpp"

namespace ad::loc {

SymbolicCounts symbolicTrace(const ir::Program& program, const ir::Bindings& params,
                             const dsm::ExecutionPlan& plan, const SymvalOptions& opts) {
  obs::Span span("symval.trace", "symval");
  return symbolicTrace(program, dsm::countPlan(program, params, plan, opts.processors),
                       opts.processors);
}

SymbolicCounts symbolicTrace(const ir::Program& program, const dsm::PlanCounts& counts,
                             std::int64_t processors) {
  const auto start = std::chrono::steady_clock::now();
  SymbolicCounts result;
  result.processors = processors;
  result.observed = dsm::observedTrace(program, counts);
  // An array whose region fell back to enumeration is still exact, but the
  // run is marked degraded.
  for (std::size_t k = 0; k < counts.tallies.size(); ++k) {
    const dsm::PhaseTally& tally = counts.tallies[k];
    result.closedFormRegions += tally.closedFormRefs;
    result.enumeratedRegions += tally.enumeratedRefs();
    for (const auto& a : tally.arrays) {
      if (a.fallbackCause.empty()) continue;
      support::recordDegradation("symval.region",
                                 "phase=" + program.phase(k).name() + " array=" + a.array,
                                 "enumerated trace oracle", a.fallbackCause);
    }
  }
  const dsm::ArrayCounts traffic = result.observed.totals();
  result.totalAccesses = traffic.local + traffic.remote;
  result.wallSeconds =
      counts.wallSeconds +
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter("ad.symval.local_accesses").add(traffic.local);
  reg.counter("ad.symval.remote_accesses").add(traffic.remote);
  reg.counter("ad.symval.remote_bytes").add(traffic.remoteBytes);
  reg.counter("ad.symval.regions_closed_form").add(result.closedFormRegions);
  reg.counter("ad.symval.regions_enumerated").add(result.enumeratedRegions);
  reg.counter("ad.symval.redistributed_words").add(result.observed.wordsMoved(false));
  reg.counter("ad.symval.frontier_words").add(result.observed.wordsMoved(true));
  return result;
}

std::optional<std::string> describeTraceDifference(const dsm::ObservedTrace& symbolic,
                                                   const dsm::ObservedTrace& trace) {
  std::ostringstream os;
  if (symbolic.phases.size() != trace.phases.size()) {
    os << "phase count " << symbolic.phases.size() << " != " << trace.phases.size();
    return os.str();
  }
  for (std::size_t k = 0; k < trace.phases.size(); ++k) {
    const auto& sp = symbolic.phases[k];
    const auto& tp = trace.phases[k];
    if (sp.phase != tp.phase) {
      os << "phase " << k << " name '" << sp.phase << "' != '" << tp.phase << "'";
      return os.str();
    }
    if (sp.arrays.size() != tp.arrays.size()) {
      os << "phase " << sp.phase << ": array count " << sp.arrays.size()
         << " != " << tp.arrays.size();
      return os.str();
    }
    auto si = sp.arrays.begin();
    auto ti = tp.arrays.begin();
    for (; ti != tp.arrays.end(); ++si, ++ti) {
      if (si->first != ti->first) {
        os << "phase " << sp.phase << ": array '" << si->first << "' != '" << ti->first << "'";
        return os.str();
      }
      if (si->second.local != ti->second.local || si->second.remote != ti->second.remote ||
          si->second.remoteBytes != ti->second.remoteBytes) {
        os << "phase " << sp.phase << " array " << ti->first << ": symbolic local/remote/bytes "
           << si->second.local << "/" << si->second.remote << "/" << si->second.remoteBytes
           << " != traced " << ti->second.local << "/" << ti->second.remote << "/"
           << ti->second.remoteBytes;
        return os.str();
      }
    }
  }
  if (symbolic.redistributions.size() != trace.redistributions.size()) {
    os << "redistribution count " << symbolic.redistributions.size()
       << " != " << trace.redistributions.size();
    return os.str();
  }
  for (std::size_t i = 0; i < trace.redistributions.size(); ++i) {
    const auto& sr = symbolic.redistributions[i];
    const auto& tr = trace.redistributions[i];
    if (sr.array != tr.array || sr.beforePhase != tr.beforePhase ||
        sr.frontier != tr.frontier || sr.wordsMoved != tr.wordsMoved ||
        sr.messages != tr.messages) {
      os << "redistribution " << i << ": symbolic (" << sr.array << ", before " << sr.beforePhase
         << ", frontier=" << sr.frontier << ", words=" << sr.wordsMoved
         << ", msgs=" << sr.messages << ") != traced (" << tr.array << ", before "
         << tr.beforePhase << ", frontier=" << tr.frontier << ", words=" << tr.wordsMoved
         << ", msgs=" << tr.messages << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace ad::loc
