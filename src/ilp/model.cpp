#include "ilp/model.hpp"

#include <algorithm>
#include <sstream>

#include "ir/walker.hpp"
#include "obs/obs.hpp"
#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"
#include "support/rational.hpp"

namespace ad::ilp {

using ir::evalInt;

std::int64_t Solution::chunkOf(const Model& model, std::size_t phase) const {
  AD_REQUIRE(feasible, "no feasible solution");
  for (std::size_t i = 0; i < model.variables().size(); ++i) {
    if (model.variables()[i].phase == phase) return values[i];
  }
  throw ProgramError("phase has no ILP variable");
}

std::size_t Model::varIndex(std::size_t phase, const std::string& array) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].phase == phase && vars_[i].array == array) return i;
  }
  throw ProgramError("no ILP variable for phase/array");
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

Model buildModel(const lcg::LCG& lcg, const std::map<sym::SymbolId, std::int64_t>& params,
                 std::int64_t processors, const CostParams& cp) {
  AD_REQUIRE(processors >= 1, "need at least one processor");
  Model m;
  m.processors_ = processors;
  m.cp_ = cp;
  m.cp_.processors = processors;  // transfers are priced on the model's machine

  const ir::Program& prog = lcg.program();

  // Variables: one per LCG node, ordered by (array graph, node).
  std::map<std::pair<std::size_t, std::string>, std::size_t> index;
  std::size_t arrayOrdinal = 0;
  for (const auto& g : lcg.graphs()) {
    ++arrayOrdinal;
    for (const auto& node : g.nodes) {
      Variable v;
      v.phase = node.phase;
      v.array = g.array;
      v.name = "p" + std::to_string(node.phase + 1) + std::to_string(arrayOrdinal);
      const std::int64_t trip = evalInt(node.info->parallelTrip, params, "parallel trip count");
      v.hi = std::max<std::int64_t>(1, ceilDiv(trip, processors));
      index[{node.phase, g.array}] = m.vars_.size();
      m.vars_.push_back(std::move(v));
    }
  }

  // Locality constraints from L edges; communication costs from C edges.
  for (const auto& g : lcg.graphs()) {
    for (const auto& e : g.edges) {
      const auto& nk = g.nodes[e.from];
      const auto& ng = g.nodes[e.to];
      const std::size_t vx = index.at({nk.phase, g.array});
      const std::size_t vy = index.at({ng.phase, g.array});
      if (e.label == loc::EdgeLabel::kLocal && e.condition) {
        EqualityConstraint eq;
        eq.x = vx;
        eq.y = vy;
        eq.a = evalInt(e.condition->slopeK, params, "locality slope");
        eq.b = evalInt(e.condition->slopeG, params, "locality slope");
        // The constant part of the balanced equation fixes *alignment*, not
        // the chunk ratio; when the halo/gap tolerance absorbs it the
        // coupling is the bare slope ratio. This keeps cycles of L edges
        // (e.g. a multigrid V-cycle's fine/coarse loop) mutually consistent.
        const std::int64_t cExact =
            evalInt(e.condition->offsetG - e.condition->offsetK, params, "locality offset");
        const std::int64_t tol = e.condition->tolerance.isZero()
                                     ? 0
                                     : evalInt(e.condition->tolerance, params, "tolerance");
        eq.c = (cExact >= -tol && cExact <= tol) ? 0 : cExact;
        eq.label = e.condition->render(prog.symbols(), m.vars_[vx].name, m.vars_[vy].name);
        // Degenerate slopes (no parallel advance) yield no usable coupling.
        if (eq.a != 0 && eq.b != 0) {
          m.localityLabels_.push_back(eq.label);
          m.eqs_.push_back(std::move(eq));
        }
      } else if (e.label == loc::EdgeLabel::kComm) {
        // Redistribution volume: the region of the array the drain phase
        // touches (bounded by the array size).
        const std::int64_t arraySize =
            evalInt(prog.array(g.array).size, params, "array size");
        std::int64_t vol = arraySize;
        if (ng.info->side) {
          const std::int64_t trip = evalInt(ng.info->parallelTrip, params, "trip");
          const std::int64_t slope = evalInt(ng.info->side->slope, params, "slope");
          if (slope > 0) vol = std::min(arraySize, checkedMul(trip, slope));
        }
        // Message aggregation: one put per (source, destination) pair.
        m.fixedCommCost_ += m.cp_.transferTime(checkedMul(processors, processors - 1), vol);
        m.commLabels_.push_back("C(" + g.array + ": F" + std::to_string(nk.phase + 1) + "->F" +
                                std::to_string(ng.phase + 1) + ", vol=" + std::to_string(vol) +
                                ")");
      }
    }
    // Frontier costs for overlap nodes (halo refresh per boundary).
    for (const auto& node : g.nodes) {
      if (!node.info->overlap.value_or(false) || !node.info->overlapDistance || !node.info->side) {
        continue;
      }
      try {
        FrontierCostTerm f;
        f.var = index.at({node.phase, g.array});
        f.arraySize = evalInt(prog.array(g.array).size, params, "array size");
        f.slope = std::max<std::int64_t>(1, evalInt(node.info->side->slope, params, "slope"));
        f.halo = evalInt(*node.info->overlapDistance, params, "halo width");
        if (f.halo > 0) m.frontierCosts_.push_back(f);
      } catch (const AnalysisError&) {
        // unevaluable: leave the frontier cost out (conservatively cheap)
      }
    }
    // Storage constraints (Table 2 third block).
    for (const auto& node : g.nodes) {
      const std::size_t v = index.at({node.phase, g.array});
      for (const auto& s : node.info->storage) {
        StorageBound sb;
        sb.var = v;
        const std::int64_t dist = evalInt(s.distance, params, "storage distance");
        sb.rhs = s.kind == loc::StorageConstraint::Kind::kShifted ? dist : dist / 2;
        sb.label = m.vars_[v].name + "*H <= " +
                   (s.kind == loc::StorageConstraint::Kind::kShifted
                        ? "Delta_d = " + std::to_string(dist)
                        : "Delta_r/2 = " + std::to_string(sb.rhs));
        m.bounds_.push_back(std::move(sb));
      }
    }
  }

  // Affinity constraints: all variables of one phase are the same chunk.
  for (std::size_t k = 0; k < prog.phases().size(); ++k) {
    std::vector<std::size_t> phaseVars;
    for (std::size_t i = 0; i < m.vars_.size(); ++i) {
      if (m.vars_[i].phase == k) phaseVars.push_back(i);
    }
    for (std::size_t i = 1; i < phaseVars.size(); ++i) {
      EqualityConstraint eq;
      eq.x = phaseVars[0];
      eq.y = phaseVars[i];
      eq.a = 1;
      eq.b = 1;
      eq.c = 0;
      eq.label = m.vars_[phaseVars[0]].name + " = " + m.vars_[phaseVars[i]].name;
      m.eqs_.push_back(std::move(eq));
    }
    // Load-imbalance cost, once per phase.
    if (!phaseVars.empty()) {
      const auto& ph = prog.phase(k);
      PhaseCostTerm t;
      t.var = phaseVars[0];
      if (ph.hasParallelLoop()) {
        const auto& par = ph.parallelLoop();
        t.trip = evalInt(par.upper - par.lower + sym::Expr::constant(1), params, "trip");
      } else {
        t.trip = 1;
      }
      t.accessesPerIter = static_cast<double>(ph.refs().size()) * ph.workPerAccess();
      m.phaseCosts_.push_back(t);
    }
  }

  // Apply storage bounds to the variable ranges.
  for (const auto& sb : m.bounds_) {
    m.vars_[sb.var].hi = std::min(m.vars_[sb.var].hi, floorDiv(sb.rhs, processors));
  }
  obs::metrics().gauge("ad.ilp.variables").set(static_cast<std::int64_t>(m.vars_.size()));
  obs::metrics().gauge("ad.ilp.equality_constraints").set(static_cast<std::int64_t>(m.eqs_.size()));
  obs::metrics().gauge("ad.ilp.storage_bounds").set(static_cast<std::int64_t>(m.bounds_.size()));
  return m;
}

// ---------------------------------------------------------------------------
// Solve: affine one-parameter components, enumerated exactly
// ---------------------------------------------------------------------------

namespace {

/// x = (num * t + off) / den with den > 0; values must come out integral.
struct Relation {
  std::int64_t num = 1;
  std::int64_t off = 0;
  std::int64_t den = 1;

  [[nodiscard]] std::optional<std::int64_t> eval(std::int64_t t) const {
    const std::int64_t numerator = checkedAdd(checkedMul(num, t), off);
    if (numerator % den != 0) return std::nullopt;
    return numerator / den;
  }
};

}  // namespace

Solution Model::solve() const {
  obs::Counter& infeasible = obs::metrics().counter("ad.ilp.infeasible_solves");
  const std::size_t n = vars_.size();
  Solution sol;
  sol.values.assign(n, 0);

  // An injected solver fault degrades exactly like genuine infeasibility: the
  // planner falls back to the greedy BLOCK chunking, which is always valid.
  if (AD_FAULT_POINT("ilp.solve")) {
    support::recordDegradation("ilp.solve", "model", "infeasible -> greedy BLOCK fallback",
                               "fault");
    infeasible.add(1);
    return Solution{};
  }

  // Build adjacency of the equality graph.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t e = 0; e < eqs_.size(); ++e) {
    adj[eqs_[e].x].push_back(e);
    adj[eqs_[e].y].push_back(e);
  }

  std::vector<int> comp(n, -1);
  double total = fixedCommCost_;

  for (std::size_t root = 0; root < n; ++root) {
    if (comp[root] != -1) continue;
    // BFS: express every component member relative to the root value t.
    std::vector<std::size_t> members;
    std::vector<Relation> rel(n);
    comp[root] = static_cast<int>(root);
    rel[root] = Relation{1, 0, 1};
    members.push_back(root);
    for (std::size_t qi = 0; qi < members.size(); ++qi) {
      const std::size_t u = members[qi];
      for (std::size_t ei : adj[u]) {
        const auto& eq = eqs_[ei];
        const std::size_t v = eq.x == u ? eq.y : eq.x;
        // Relation along the edge: a*x = b*y + c.
        // If u == x: y = (a*xu - c)/b; if u == y: x = (b*yu + c)/a.
        Relation r;
        const Relation& ru = rel[u];
        if (eq.x == u) {
          // y = (a*(num*t+off)/den - c)/b = (a*num*t + a*off - c*den)/(den*b)
          r.num = checkedMul(eq.a, ru.num);
          r.off = checkedSub(checkedMul(eq.a, ru.off), checkedMul(eq.c, ru.den));
          r.den = checkedMul(ru.den, eq.b);
        } else {
          r.num = checkedMul(eq.b, ru.num);
          r.off = checkedAdd(checkedMul(eq.b, ru.off), checkedMul(eq.c, ru.den));
          r.den = checkedMul(ru.den, eq.a);
        }
        if (r.den < 0) {
          r.den = -r.den;
          r.num = -r.num;
          r.off = -r.off;
        }
        // Reduce to keep numbers small.
        const std::int64_t g = gcd64(gcd64(r.num, r.off), r.den);
        if (g > 1) {
          r.num /= g;
          r.off /= g;
          r.den /= g;
        }
        if (comp[v] == -1) {
          comp[v] = static_cast<int>(root);
          rel[v] = r;
          members.push_back(v);
        } else {
          // Cycle: relations must agree for the component to be feasible for
          // any t; conflicting relations pin t to specific values. We keep it
          // simple and exact: conflicting cycles are checked per-t during the
          // enumeration below.
          static_cast<void>(0);
        }
      }
    }

    // Enumerate t over the root's bounds; all members must be integral and
    // within bounds, and every equality inside the component must hold.
    double bestCost = 0.0;
    std::int64_t bestT = 0;
    bool found = false;
    for (std::int64_t t = vars_[root].lo; t <= vars_[root].hi; ++t) {
      // Each candidate chunking charges the budget; exhaustion abandons the
      // exact search and reports infeasible, triggering the greedy fallback.
      if (!support::budgetStep()) {
        support::recordDegradation("ilp.solve", "var=" + vars_[root].name,
                                   "search abandoned -> greedy BLOCK fallback",
                                   support::currentDegradationCause());
        infeasible.add(1);
        return Solution{};
      }
      bool ok = true;
      std::vector<std::int64_t> vals(members.size());
      for (std::size_t mi = 0; mi < members.size() && ok; ++mi) {
        const std::size_t v = members[mi];
        const auto val = rel[v].eval(t);
        ok = val && *val >= vars_[v].lo && *val <= vars_[v].hi;
        if (ok) vals[mi] = *val;
      }
      if (!ok) continue;
      // Verify every intra-component equality (covers cycles).
      for (std::size_t ei = 0; ei < eqs_.size() && ok; ++ei) {
        const auto& eq = eqs_[ei];
        if (comp[eq.x] != static_cast<int>(root)) continue;
        std::int64_t xv = 0;
        std::int64_t yv = 0;
        for (std::size_t mi = 0; mi < members.size(); ++mi) {
          if (members[mi] == eq.x) xv = vals[mi];
          if (members[mi] == eq.y) yv = vals[mi];
        }
        ok = checkedMul(eq.a, xv) == checkedAdd(checkedMul(eq.b, yv), eq.c);
      }
      if (!ok) continue;
      // Component cost: load-imbalance plus frontier terms of its members.
      double cost = 0.0;
      for (const auto& pc : phaseCosts_) {
        if (comp[pc.var] != static_cast<int>(root)) continue;
        std::int64_t chunk = 1;
        for (std::size_t mi = 0; mi < members.size(); ++mi) {
          if (members[mi] == pc.var) chunk = vals[mi];
        }
        cost += imbalanceCost(pc.trip, chunk, processors_, pc.accessesPerIter, cp_);
      }
      for (const auto& fc : frontierCosts_) {
        if (comp[fc.var] != static_cast<int>(root)) continue;
        std::int64_t chunk = 1;
        for (std::size_t mi = 0; mi < members.size(); ++mi) {
          if (members[mi] == fc.var) chunk = vals[mi];
        }
        const dsm::RedistributionStats refresh = dsm::refreshTraffic(
            fc.arraySize, std::max<std::int64_t>(1, fc.slope * chunk), fc.halo);
        cost += cp_.transferTime(refresh.messages, refresh.wordsMoved);
      }
      if (!found || cost < bestCost) {
        found = true;
        bestCost = cost;
        bestT = t;
      }
    }
    if (!found) {
      infeasible.add(1);
      return Solution{};  // infeasible model
    }
    for (const std::size_t v : members) {
      sol.values[v] = *rel[v].eval(bestT);
    }
    total += bestCost;
  }

  sol.feasible = true;
  sol.objective = total;
  return sol;
}

// ---------------------------------------------------------------------------
// Rendering (Table 2)
// ---------------------------------------------------------------------------

std::string Model::str() const {
  std::ostringstream os;
  os << "Locality constraints:\n";
  for (const auto& l : localityLabels_) os << "  " << l << "\n";
  os << "Load balance constraints:\n";
  for (const auto& v : vars_) {
    os << "  1 <= " << v.name << " <= " << v.hi << "\n";
  }
  os << "Storage constraints:\n";
  for (const auto& b : bounds_) os << "  " << b.label << "\n";
  os << "Affinity constraints:\n";
  for (const auto& e : eqs_) {
    if (e.a == 1 && e.b == 1 && e.c == 0 && vars_[e.x].phase == vars_[e.y].phase) {
      os << "  " << e.label << "\n";
    }
  }
  os << "Objective: minimize sum_k D^k + sum_{C edges} C^kg ("
     << commLabels_.size() << " communication edges, fixed cost " << fixedCommCost_ << ")\n";
  for (const auto& c : commLabels_) os << "  " << c << "\n";
  return os.str();
}

}  // namespace ad::ilp
