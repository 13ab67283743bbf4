#include "dsm/validate.hpp"

#include <sstream>

#include "dsm/access_count.hpp"
#include "support/diagnostics.hpp"

namespace ad::dsm {

std::int64_t PhaseCounts::local() const {
  std::int64_t n = 0;
  for (const auto& [_, c] : arrays) n += c.local;
  return n;
}

std::int64_t PhaseCounts::remote() const {
  std::int64_t n = 0;
  for (const auto& [_, c] : arrays) n += c.remote;
  return n;
}

ArrayCounts ObservedTrace::totals() const {
  ArrayCounts t;
  for (const auto& p : phases) {
    for (const auto& [_, c] : p.arrays) {
      t.local += c.local;
      t.remote += c.remote;
      t.remoteBytes += c.remoteBytes;
    }
  }
  return t;
}

std::int64_t ObservedTrace::wordsMoved(bool frontier) const {
  std::int64_t n = 0;
  for (const auto& r : redistributions) n += r.frontier == frontier ? r.wordsMoved : 0;
  return n;
}

double ObservedTrace::localFraction() const {
  const ArrayCounts t = totals();
  const auto total = t.local + t.remote;
  return total == 0 ? 1.0 : static_cast<double>(t.local) / static_cast<double>(total);
}

std::string ObservedTrace::str() const {
  std::ostringstream os;
  for (const auto& p : phases) {
    os << "  " << p.phase << ":";
    for (const auto& [array, c] : p.arrays) {
      os << " " << array << "(local=" << c.local << ",remote=" << c.remote << ")";
    }
    os << "\n";
  }
  for (const auto& r : redistributions) {
    os << "  " << (r.frontier ? "frontier " : "redistribute ") << r.array << " before phase "
       << r.beforePhase + 1 << ": words=" << r.wordsMoved << " msgs=" << r.messages << "\n";
  }
  return os.str();
}

std::string LocalityValidationReport::str() const {
  std::ostringstream os;
  for (const auto& e : edges) {
    os << (e.agrees ? "  [ok]       " : "  [DISAGREE] ") << e.array << ": phase " << e.fromPhase + 1
       << " -> " << e.toPhase + 1 << (e.backEdge ? " (back)" : "") << " label="
       << loc::edgeLabelName(e.label) << " remote=" << e.remoteAccesses
       << " moved=" << e.redistributedWords;
    if (e.storageWords > 0) os << " storage=" << e.storageWords;
    if (!e.detail.empty()) os << " — " << e.detail;
    os << "\n";
  }
  os << "  " << (checked - disagreements) << "/" << checked
     << " edges agree with the Theorem 1/2 labels\n";
  return os.str();
}

LocalityValidationReport validateLocality(const lcg::LCG& lcg, const ExecutionPlan& plan,
                                          const ObservedTrace& trace, const ir::Bindings& params,
                                          std::int64_t processors) {
  const ir::Program& program = lcg.program();
  AD_REQUIRE(trace.phases.size() == program.phases().size(), "trace must cover every phase");
  LocalityValidationReport report;

  for (const auto& g : lcg.graphs()) {
    for (const auto& e : g.edges) {
      if (e.label == loc::EdgeLabel::kUncoupled) continue;  // D: privatization decoupled
      EdgeObservation ob;
      ob.array = g.array;
      ob.fromPhase = g.nodes[e.from].phase;
      ob.toPhase = g.nodes[e.to].phase;
      ob.label = e.label;
      ob.backEdge = e.backEdge;

      const PhaseCounts& drain = trace.phases[ob.toPhase];
      if (const auto it = drain.arrays.find(g.array); it != drain.arrays.end()) {
        ob.remoteAccesses = it->second.remote;
      }

      // Moves into or out of a folded placement implement Section 4.2's
      // reverse storage (a Theorem-1 transformation, like halo refreshes);
      // they are tallied as storage events, not Theorem-2 communication.
      const auto isFolded = [](const DataDistribution& d) {
        return d.kind == DataDistribution::Kind::kFoldedBlockCyclic;
      };
      if (!e.backEdge) {
        for (const auto& r : trace.redistributions) {
          if (r.frontier || r.array != g.array) continue;
          if (r.beforePhase > ob.fromPhase && r.beforePhase <= ob.toPhase) {
            bool storage = false;
            if (const auto it = plan.data.find(g.array); it != plan.data.end()) {
              storage = isFolded(it->second[r.beforePhase - 1]) ||
                        isFolded(it->second[r.beforePhase]);
            }
            (storage ? ob.storageWords : ob.redistributedWords) += r.wordsMoved;
          }
        }
      } else if (const auto it = plan.data.find(g.array); it != plan.data.end()) {
        // Wraparound of a cyclic program: what a redistribution from the last
        // accessor's distribution back to the first accessor's would move.
        const DataDistribution& last = it->second[ob.fromPhase];
        const DataDistribution& first = it->second[ob.toPhase];
        if (!(last == first) && last.hasOwner() && first.hasOwner() &&
            program.phase(ob.toPhase).reads(g.array) &&
            !program.phase(ob.toPhase).isPrivatized(g.array)) {
          const std::int64_t size =
              program.array(g.array).size.evaluate(params).asInteger();
          std::int64_t moved = 0;
          std::int64_t messages = 0;
          countRedistribution(last, first, size, processors, moved, messages);
          (isFolded(last) || isFolded(first) ? ob.storageWords
                                             : ob.redistributedWords) += moved;
        }
      }

      const auto dit = plan.data.find(g.array);
      const bool ownerBased = dit != plan.data.end() && dit->second[ob.toPhase].hasOwner();
      ob.replication = !ownerBased || program.phase(ob.toPhase).isPrivatized(g.array);

      const bool comm = ob.remoteAccesses > 0 || ob.redistributedWords > 0;
      if (e.label == loc::EdgeLabel::kLocal) {
        ob.agrees = !comm;
        if (!ob.agrees) {
          ob.detail = "L edge, yet communication was observed";
        } else if (ob.storageWords > 0) {
          ob.detail = "communication-free; entered reverse (folded) storage";
        } else {
          ob.detail = "communication-free, as predicted";
        }
      } else {
        if (comm || ob.storageWords > 0) {
          ob.agrees = true;
          ob.detail = "communication observed, as predicted";
        } else if (!program.phase(ob.toPhase).reads(g.array)) {
          // The drain only writes: the incoming values are dead, so the
          // ownership change is pure re-allocation (the paper's data
          // allocation procedure) — no transfer is required.
          ob.agrees = true;
          ob.detail = "C edge into write-only drain: dead values re-allocated";
        } else if (ob.replication) {
          ob.agrees = true;
          ob.detail = "C edge discharged by replicated/private placement";
        } else if (processors == 1) {
          ob.agrees = true;
          ob.detail = "C edge vacuous on one processor";
        } else if (e.degraded) {
          // The label was forced to C because the analysis ran out of budget
          // (or a fault was injected), not because communication was proven.
          // Zero observed communication means the conservative fallback cost
          // nothing here — sound, merely pessimistic.
          ob.agrees = true;
          ob.detail = "degraded C edge (budget/fault fallback); zero communication is sound";
        } else {
          ob.agrees = false;
          ob.detail = "C edge, yet no communication was observed";
        }
      }
      ++report.checked;
      if (!ob.agrees) ++report.disagreements;
      report.edges.push_back(std::move(ob));
    }
  }
  return report;
}

}  // namespace ad::dsm
