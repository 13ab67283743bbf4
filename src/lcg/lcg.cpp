#include "lcg/lcg.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"

namespace ad::lcg {

std::vector<std::vector<std::size_t>> ArrayGraph::chains() const {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> current;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    current.push_back(n);
    const bool lastNode = n + 1 == nodes.size();
    // The forward edge out of node n (ignore the back edge for chains).
    const bool chainContinues =
        !lastNode && n < edges.size() && edges[n].label == loc::EdgeLabel::kLocal;
    if (!chainContinues) {
      out.push_back(std::move(current));
      current.clear();
    }
  }
  return out;
}

const ArrayGraph& LCG::graph(const std::string& array) const {
  for (const auto& g : graphs_) {
    if (g.array == array) return g;
  }
  throw ProgramError("LCG has no graph for array '" + array + "'");
}

std::size_t LCG::communicationEdges() const {
  std::size_t n = 0;
  for (const auto& g : graphs_) {
    for (const auto& e : g.edges) {
      if (e.label == loc::EdgeLabel::kComm) ++n;
    }
  }
  return n;
}

std::string LCG::str() const {
  std::ostringstream os;
  // Header.
  os << padRight("phase", 20);
  for (const auto& g : graphs_) os << padLeft(g.array, 10);
  os << "\n";
  // For each program phase, the attribute per array, then the edge labels.
  for (std::size_t k = 0; k < program_->phases().size(); ++k) {
    os << padRight("F" + std::to_string(k + 1) + ":" + program_->phase(k).name(), 20);
    for (const auto& g : graphs_) {
      std::string cell = "-";
      for (const auto& n : g.nodes) {
        if (n.phase == k) cell = std::string("(") + loc::attrName(n.attr) + ")";
      }
      os << padLeft(cell, 10);
    }
    os << "\n";
    // Edge labels between this phase row and the next.
    std::string labelRow;
    bool any = false;
    for (const auto& g : graphs_) {
      std::string cell;
      for (std::size_t e = 0; e < g.edges.size(); ++e) {
        if (g.edges[e].backEdge) continue;
        if (g.nodes[g.edges[e].from].phase == k) {
          cell = loc::edgeLabelName(g.edges[e].label);
          any = true;
        }
      }
      labelRow += padLeft(cell.empty() ? " " : "|" + cell, 10);
    }
    if (any) os << padRight("", 20) << labelRow << "\n";
  }
  return os.str();
}

std::string LCG::dot() const {
  std::ostringstream os;
  os << "digraph LCG {\n  rankdir=TB;\n";
  for (const auto& g : graphs_) {
    os << "  subgraph cluster_" << g.array << " {\n    label=\"" << g.array << "\";\n";
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      os << "    " << g.array << n << " [label=\"F" << (g.nodes[n].phase + 1) << " ("
         << loc::attrName(g.nodes[n].attr) << ")\"];\n";
    }
    for (const auto& e : g.edges) {
      os << "    " << g.array << e.from << " -> " << g.array << e.to << " [label=\""
         << loc::edgeLabelName(e.label) << "\"";
      if (e.label == loc::EdgeLabel::kUncoupled) os << ", style=dashed";
      if (e.backEdge) os << ", constraint=false";
      os << "];\n";
    }
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

LCG buildLCG(const ir::Program& program, const std::map<sym::SymbolId, std::int64_t>& params,
             std::int64_t processors) {
  return buildLCG(program, params, processors, nullptr);
}

LCG buildLCG(const ir::Program& program, const std::map<sym::SymbolId, std::int64_t>& params,
             std::int64_t processors, support::ThreadPool* pool) {
  const auto& arrays = program.arrays();
  // One slot per declared array, filled independently (possibly in parallel);
  // pruning and tallying happen after the join, in declaration order, so the
  // result is identical regardless of task interleaving.
  std::vector<ArrayGraph> slots(arrays.size());
  const auto buildArrayGraph = [&](std::size_t slot) {
    const auto& arr = arrays[slot];
    ArrayGraph g;
    g.array = arr.name;
    // The expensive unit of work is one analyzePhaseArray call, and a code
    // has many more (phase, array) pairs than arrays. With a pool, fan each
    // pair out as its own subtask (profiler data showed array-level tasks
    // leave workers idle behind the widest array). Subtasks carry no
    // ErrorContext of their own: the first exception is rethrown here, and
    // from the array task to the calling thread below.
    std::vector<std::size_t> phaseIdx;
    for (std::size_t k = 0; k < program.phases().size(); ++k) {
      if (!program.phase(k).accesses(arr.name) && !program.phase(k).isPrivatized(arr.name)) {
        continue;
      }
      phaseIdx.push_back(k);
    }
    std::vector<std::shared_ptr<const loc::PhaseArrayInfo>> infos(phaseIdx.size());
    if (pool != nullptr && phaseIdx.size() > 1) {
      std::vector<std::exception_ptr> nodeErrors(phaseIdx.size());
      support::TaskGroup nodes(*pool);
      for (std::size_t i = 0; i < phaseIdx.size(); ++i) {
        nodes.run([&, i] {
          try {
            infos[i] = loc::analyzePhaseArrayShared(program, phaseIdx[i], arr.name);
          } catch (...) {
            nodeErrors[i] = std::current_exception();
          }
        });
      }
      nodes.wait();  // rethrows only wrapper-level injected faults (pool.task)
      for (auto& err : nodeErrors) {
        if (err != nullptr) std::rethrow_exception(err);
      }
    } else {
      for (std::size_t i = 0; i < phaseIdx.size(); ++i) {
        infos[i] = loc::analyzePhaseArrayShared(program, phaseIdx[i], arr.name);
      }
    }
    for (std::size_t i = 0; i < phaseIdx.size(); ++i) {
      Node node;
      node.phase = phaseIdx[i];
      node.info = std::move(infos[i]);
      node.attr = node.info->attr;
      g.nodes.push_back(std::move(node));
    }
    const auto addEdge = [&](std::size_t from, std::size_t to, bool back) {
      Edge e;
      e.from = from;
      e.to = to;
      e.backEdge = back;
      const auto& ni = *g.nodes[from].info;
      const auto& nj = *g.nodes[to].info;
      e.condition = loc::makeBalancedCondition(ni, nj);
      bool balanced = false;
      if (e.condition) {
        try {
          balanced = e.condition->holds(params, processors);
        } catch (const AnalysisError&) {
          balanced = false;  // unevaluable condition: conservatively C
        }
      }
      // Unknown overlap is conservatively treated as overlapping.
      const bool overlapK = ni.overlap.value_or(true);
      e.label = loc::classifyEdge(ni.attr, nj.attr, overlapK, balanced);
      // Once the budget is exhausted every subsequent Unknown is suspect: a C
      // decided here might have been L with full analysis. Mark it so the
      // trace validator accepts zero communication, and ledger the downgrade.
      if (e.label == loc::EdgeLabel::kComm && support::budgetCompromised()) {
        e.degraded = true;
        support::recordDegradation(
            "lcg.edge",
            "array=" + g.array + " F" + std::to_string(g.nodes[from].phase + 1) + "->F" +
                std::to_string(g.nodes[to].phase + 1),
            "label=C (conservative)", support::currentDegradationCause());
      }
      g.edges.push_back(std::move(e));
    };
    for (std::size_t n = 0; n + 1 < g.nodes.size(); ++n) addEdge(n, n + 1, false);
    if (program.cyclic() && g.nodes.size() > 1) addEdge(g.nodes.size() - 1, 0, true);
    slots[slot] = std::move(g);
  };
  // Per-slot error capture: one failing array must not abandon its siblings,
  // and no exception may cross a pool task boundary un-caught.
  std::vector<std::exception_ptr> slotErrors(arrays.size());
  const auto guarded = [&](std::size_t slot) {
    try {
      buildArrayGraph(slot);
    } catch (...) {
      slotErrors[slot] = std::current_exception();
    }
  };
  if (pool != nullptr && arrays.size() > 1) {
    support::TaskGroup group(*pool);
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      group.run([&guarded, a] { guarded(a); });
    }
    group.wait();  // rethrows only wrapper-level injected faults (pool.task)
  } else {
    for (std::size_t a = 0; a < arrays.size(); ++a) guarded(a);
  }
  // The first failing array (declaration order) is rethrown on the calling
  // thread, inside its "array" frame, so the frame joins the caller's
  // code -> stage chain whichever thread the array ran on.
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    if (slotErrors[a] == nullptr) continue;
    ErrorContext arrayCtx("array", arrays[a].name);
    std::rethrow_exception(slotErrors[a]);
  }
  std::vector<ArrayGraph> graphs;
  for (auto& g : slots) {
    if (!g.nodes.empty()) graphs.push_back(std::move(g));
  }
  // Table-1 label tallies, per build (keys registered even when zero).
  std::int64_t local = 0;
  std::int64_t comm = 0;
  std::int64_t uncoupled = 0;
  for (const auto& g : graphs) {
    for (const auto& e : g.edges) {
      switch (e.label) {
        case loc::EdgeLabel::kLocal: ++local; break;
        case loc::EdgeLabel::kComm: ++comm; break;
        case loc::EdgeLabel::kUncoupled: ++uncoupled; break;
      }
    }
  }
  obs::metrics().counter("ad.lcg.edges_local").add(local);
  obs::metrics().counter("ad.lcg.edges_comm").add(comm);
  obs::metrics().counter("ad.lcg.edges_uncoupled").add(uncoupled);
  return LCG(&program, std::move(graphs));
}

}  // namespace ad::lcg
