#include "reference_oracles.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <sstream>

#include "support/budget.hpp"
#include "support/checked_int.hpp"
#include "support/diagnostics.hpp"
#include "support/fault.hpp"

namespace ad::sym {

/// Raw access to Expr's normal form, for the sort-based kernels below.
struct ExprTestAccess {
  static std::vector<Monomial>& terms(Expr& e) { return e.terms_; }
  static Rational& coeff(Monomial& m) { return m.coeff_; }
  static std::vector<SymbolFactor>& symbols(Monomial& m) { return m.symbols_; }
  static std::shared_ptr<const Expr>& pow2(Monomial& m) { return m.pow2_; }
};

}  // namespace ad::sym

namespace ad::reference {

namespace {

using sym::Expr;
using sym::Monomial;
using Access = sym::ExprTestAccess;

/// Sorts `terms` by key, sums like terms and drops zeros.
Expr normalized(std::vector<Monomial> terms) {
  std::sort(terms.begin(), terms.end(),
            [](const Monomial& a, const Monomial& b) { return a.compareKey(b) < 0; });
  std::vector<Monomial> out;
  out.reserve(terms.size());
  for (auto& m : terms) {
    if (!out.empty() && out.back().sameKey(m)) {
      Access::coeff(out.back()) += m.coeff();
      if (out.back().coeff().isZero()) out.pop_back();
    } else if (!m.coeff().isZero()) {
      out.push_back(std::move(m));
    }
  }
  Expr e;
  Access::terms(e) = std::move(out);
  return e;
}

Expr negate(const Expr& e) {
  Expr r = e;
  for (auto& m : Access::terms(r)) Access::coeff(m) = -m.coeff();
  return r;
}

Monomial multiplyMonomials(const Monomial& a, const Monomial& b) {
  Monomial r(a.coeff() * b.coeff());
  auto& out = Access::symbols(r);
  auto ia = a.symbols().begin();
  auto ib = b.symbols().begin();
  while (ia != a.symbols().end() || ib != b.symbols().end()) {
    if (ib == b.symbols().end() || (ia != a.symbols().end() && ia->id < ib->id)) {
      out.push_back(*ia++);
    } else if (ia == a.symbols().end() || ib->id < ia->id) {
      out.push_back(*ib++);
    } else {
      out.push_back(sym::SymbolFactor{ia->id, ia->power + ib->power});
      ++ia;
      ++ib;
    }
  }
  if (a.hasPow2() && b.hasPow2()) {
    Expr sum = add(a.pow2Exponent(), b.pow2Exponent());
    if (!sum.isZero()) Access::pow2(r) = std::make_shared<const Expr>(std::move(sum));
  } else if (a.hasPow2()) {
    Access::pow2(r) = std::make_shared<const Expr>(a.pow2Exponent());
  } else if (b.hasPow2()) {
    Access::pow2(r) = std::make_shared<const Expr>(b.pow2Exponent());
  }
  return r;
}

Expr multiply(const Expr& a, const Expr& b) {
  std::vector<Monomial> terms;
  for (const auto& ma : a.terms()) {
    for (const auto& mb : b.terms()) terms.push_back(multiplyMonomials(ma, mb));
  }
  return normalized(std::move(terms));
}

Expr pow2(const Expr& exponent) {
  const Rational c = exponent.constantTerm();
  AD_REQUIRE(c.isInteger(), "pow2 exponent with non-integer constant part");
  const std::int64_t k = c.asInteger();
  AD_REQUIRE(k >= -62 && k <= 62, "pow2 constant exponent out of representable range");
  const std::int64_t v = std::int64_t{1} << (k < 0 ? -k : k);
  const Rational coeff = k >= 0 ? Rational(v) : Rational(1, v);
  Expr rest = subtract(exponent, Expr::constant(c));
  if (rest.isZero()) return Expr::constant(coeff);
  Monomial m(coeff);
  Access::pow2(m) = std::make_shared<const Expr>(std::move(rest));
  Expr e;
  Access::terms(e).push_back(std::move(m));
  return e;
}

}  // namespace

Expr add(const Expr& a, const Expr& b) {
  std::vector<Monomial> terms = a.terms();
  terms.insert(terms.end(), b.terms().begin(), b.terms().end());
  return normalized(std::move(terms));
}

Expr subtract(const Expr& a, const Expr& b) { return add(a, negate(b)); }

Expr substitute(const Expr& e, const std::map<sym::SymbolId, Expr>& bindings) {
  Expr result;
  for (const auto& m : e.terms()) {
    Expr term = Expr::constant(m.coeff());
    for (const auto& f : m.symbols()) {
      const auto it = bindings.find(f.id);
      const Expr base = it != bindings.end() ? it->second : Expr::symbol(f.id);
      Expr power = Expr::constant(1);
      for (int i = 0; i < f.power; ++i) power = multiply(power, base);
      term = multiply(term, power);
    }
    if (m.hasPow2()) term = multiply(term, pow2(substitute(m.pow2Exponent(), bindings)));
    result = add(result, term);
  }
  return result;
}

namespace {

/// Walks loops [depth, size) of the nest, binding each index in `b`, and
/// calls `fn(b)` once per iteration of the innermost loop.
void walkLoops(const ir::Phase& phase, ir::Bindings& b, std::size_t depth,
               const std::function<void(const ir::Bindings&)>& fn) {
  if (depth == phase.loops().size()) {
    fn(b);
    return;
  }
  const ir::Loop& l = phase.loops()[depth];
  const std::int64_t lo = ir::evalInt(l.lower, b, "loop lower bound");
  const std::int64_t hi = ir::evalInt(l.upper, b, "loop upper bound");
  for (std::int64_t v = lo; v <= hi; ++v) {
    b[l.index] = v;
    walkLoops(phase, b, depth + 1, fn);
  }
  b.erase(l.index);
}

/// The sorted distinct addresses of `array` that pass `keep`.
std::vector<std::int64_t> touched(const ir::Program& program, const ir::Phase& phase,
                                  const std::string& array, const ir::Bindings& params,
                                  const std::function<bool(const ConcreteAccess&)>& keep) {
  std::set<std::int64_t> s;
  forEachRunAccess(program, phase, params, [&](const ConcreteAccess& a, const ir::Bindings&) {
    if (a.ref->array == array && keep(a)) s.insert(a.address);
  });
  return {s.begin(), s.end()};
}

}  // namespace

void forEachIteration(const ir::Program& program, const ir::Phase& phase,
                      const ir::Bindings& params,
                      const std::function<void(const ir::Bindings&)>& fn) {
  (void)program;
  ir::Bindings b = params;
  walkLoops(phase, b, 0, fn);
}

std::vector<std::int64_t> touchedAddresses(const ir::Program& program, const ir::Phase& phase,
                                           const std::string& array,
                                           const ir::Bindings& params) {
  return touched(program, phase, array, params, [](const ConcreteAccess&) { return true; });
}

std::vector<std::int64_t> touchedAddressesInIteration(const ir::Program& program,
                                                      const ir::Phase& phase,
                                                      const std::string& array,
                                                      const ir::Bindings& params,
                                                      std::int64_t iter) {
  AD_REQUIRE(phase.hasParallelLoop(), "phase has no parallel loop");
  return touched(program, phase, array, params,
                 [&](const ConcreteAccess& a) { return a.parallelIter == iter; });
}

void forEachRunAccess(const ir::Program& program, const ir::Phase& phase,
                      const ir::Bindings& params, const AccessFn& fn) {
  (void)program;
  ConcreteAccess acc;
  ir::forEachRun(ir::LoweredPhase(phase, params), [&](const ir::AccessRun& run, ir::Bindings& b) {
    std::int64_t* index = phase.loops().empty() ? nullptr : &b.at(phase.loops().back().index);
    for (std::int64_t t = 0; t < run.count; ++t) {
      if (index != nullptr) *index = run.first + t;
      acc.parallelIter = run.parallelIterAt(t);
      for (const ir::RefRun& r : run.refs) {
        acc.ref = r.ref;
        acc.address = r.start + r.step * t;
        fn(acc, b);
      }
    }
  });
}

void forEachAccess(const ir::Program& program, const ir::Phase& phase,
                   const ir::Bindings& params, const AccessFn& fn) {
  const bool hasPar = phase.hasParallelLoop();
  const sym::SymbolId parIdx = hasPar ? phase.parallelLoop().index : 0;
  forEachIteration(program, phase, params, [&](const ir::Bindings& b) {
    for (const auto& r : phase.refs()) {
      ConcreteAccess acc;
      acc.ref = &r;
      const Rational address = r.subscript.evaluate(b);
      if (!address.isInteger()) throw AnalysisError("subscript is not integral");
      acc.address = address.asInteger();
      acc.parallelIter = hasPar ? b.at(parIdx) : 0;
      fn(acc, b);
    }
  });
}

dsm::SimulationResult simulate(const ir::Program& program, const ir::Bindings& params,
                               const dsm::MachineParams& machine,
                               const dsm::ExecutionPlan& plan) {
  AD_REQUIRE(plan.iteration.size() == program.phases().size(), "plan must cover every phase");
  const std::int64_t H = machine.processors;
  dsm::SimulationResult result;
  const auto charge = [&](dsm::RedistributionStats rs) {
    rs.time = (static_cast<double>(rs.messages) * machine.putLatency +
               static_cast<double>(rs.wordsMoved) * machine.perWord) /
              static_cast<double>(H);
    if (rs.wordsMoved > 0) result.redistributions.push_back(std::move(rs));
  };

  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    const ir::Phase& phase = program.phase(k);
    if (k > 0) {
      for (const auto& arr : program.arrays()) {
        const auto it = plan.data.find(arr.name);
        if (it == plan.data.end()) continue;
        const dsm::DataDistribution& prev = it->second[k - 1];
        const dsm::DataDistribution& next = it->second[k];
        if (prev == next || !prev.hasOwner() || !next.hasOwner()) continue;
        if (!dsm::redistributionMovesData(program, arr.name, k)) continue;
        dsm::RedistributionStats rs;
        rs.array = arr.name;
        rs.beforePhase = k;
        const std::int64_t size = arr.size.evaluate(params).asInteger();
        std::set<std::pair<std::int64_t, std::int64_t>> pairs;
        for (std::int64_t a = 0; a < size; ++a) {
          const std::int64_t src = prev.owner(a, H);
          const std::int64_t dst = next.owner(a, H);
          if (src == dst) continue;
          ++rs.wordsMoved;
          pairs.insert({src, dst});
        }
        rs.messages = static_cast<std::int64_t>(pairs.size());
        charge(std::move(rs));
      }
    }

    if (H > 1) {
      for (const auto& arr : program.arrays()) {
        const auto hit = plan.halo.find(arr.name);
        if (hit == plan.halo.end() || hit->second[k] <= 0) continue;
        if (!phase.reads(arr.name) || phase.isPrivatized(arr.name)) continue;
        bool writtenElsewhere = false;
        for (const auto& other : program.phases()) {
          writtenElsewhere = writtenElsewhere || (&other != &phase && other.writes(arr.name) &&
                                                 !other.isPrivatized(arr.name));
        }
        if (!writtenElsewhere) continue;
        const auto& dist = plan.data.at(arr.name)[k];
        if (!dist.hasOwner()) continue;
        const std::int64_t size = arr.size.evaluate(params).asInteger();
        const std::int64_t boundaries = std::max<std::int64_t>(0, ceilDiv(size, dist.block) - 1);
        dsm::RedistributionStats rs;
        rs.array = arr.name;
        rs.beforePhase = k;
        rs.frontier = true;
        rs.wordsMoved = 2 * hit->second[k] * boundaries;
        rs.messages = 2 * boundaries;
        charge(std::move(rs));
      }
    }

    dsm::PhaseStats ps;
    ps.phase = phase.name();
    ps.peTime.assign(static_cast<std::size_t>(H), 0.0);
    const dsm::IterationDistribution& sched = plan.iteration[k];
    reference::forEachAccess(program, phase, params,
                  [&](const ConcreteAccess& acc, const ir::Bindings&) {
                    const std::int64_t pe =
                        phase.hasParallelLoop() ? sched.executor(acc.parallelIter, H) : 0;
                    bool local = true;
                    if (!phase.isPrivatized(acc.ref->array)) {
                      const auto it = plan.data.find(acc.ref->array);
                      AD_REQUIRE(it != plan.data.end(), "plan missing array " + acc.ref->array);
                      std::int64_t halo = 0;
                      if (acc.ref->kind == ir::AccessKind::kRead) {
                        if (auto hit = plan.halo.find(acc.ref->array); hit != plan.halo.end()) {
                          halo = hit->second[k];
                        }
                      }
                      local = it->second[k].isLocal(acc.address, pe, H, halo);
                    }
                    const double cost = machine.localAccess * phase.workPerAccess() +
                                        (local ? 0.0 : machine.remoteAccess);
                    ps.peTime[static_cast<std::size_t>(pe)] += cost;
                    ps.seqTime += machine.localAccess * phase.workPerAccess();
                    ++(local ? ps.localAccesses : ps.remoteAccesses);
                  });
    ps.time = *std::max_element(ps.peTime.begin(), ps.peTime.end());
    result.phases.push_back(std::move(ps));
  }
  return result;
}

std::vector<dsm::PhaseTally> countAccesses(const ir::Program& program, const ir::Bindings& params,
                                           const dsm::ExecutionPlan& plan,
                                           std::int64_t processors) {
  AD_REQUIRE(plan.iteration.size() == program.phases().size(), "plan must cover every phase");
  const auto h = static_cast<std::size_t>(processors);
  std::vector<dsm::PhaseTally> tallies;
  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    const ir::Phase& phase = program.phase(k);
    dsm::PhaseTally tally;
    std::map<std::string, std::size_t> slotOf;
    for (const auto& r : phase.refs()) {
      const auto [it, fresh] = slotOf.emplace(r.array, tally.arrays.size());
      if (fresh) {
        dsm::ArrayTally a;
        a.array = r.array;
        a.peAccesses.assign(h, 0);
        a.peRemote.assign(h, 0);
        tally.arrays.push_back(std::move(a));
      }
      ++tally.arrays[it->second].refs;
    }
    const dsm::IterationDistribution& sched = plan.iteration[k];
    reference::forEachAccess(
        program, phase, params, [&](const ConcreteAccess& acc, const ir::Bindings&) {
          const std::int64_t pe =
              phase.hasParallelLoop() ? sched.executor(acc.parallelIter, processors) : 0;
          bool local = true;
          if (!phase.isPrivatized(acc.ref->array)) {
            std::int64_t halo = 0;
            if (acc.ref->kind == ir::AccessKind::kRead) {
              if (auto hit = plan.halo.find(acc.ref->array); hit != plan.halo.end()) {
                halo = hit->second[k];
              }
            }
            local = plan.data.at(acc.ref->array)[k].isLocal(acc.address, pe, processors, halo);
          }
          dsm::ArrayTally& a = tally.arrays[slotOf.at(acc.ref->array)];
          const auto p = static_cast<std::size_t>(pe);
          ++a.peAccesses[p];
          if (local) {
            ++a.counts.local;
          } else {
            ++a.counts.remote;
            a.counts.remoteBytes += dsm::kWordBytes;
            ++a.peRemote[p];
          }
        });
    tallies.push_back(std::move(tally));
  }
  return tallies;
}

namespace {

/// Per-array version state: the sequential truth plus each processor's view
/// of its local copies.
struct ArrayState {
  std::int64_t size = 0;
  std::vector<std::int64_t> truth;                 // authoritative version
  std::vector<std::vector<std::int64_t>> local;    // [pe][addr] copy version

  explicit ArrayState(std::int64_t sz, std::int64_t processors)
      : size(sz),
        truth(static_cast<std::size_t>(sz), 0),
        local(static_cast<std::size_t>(processors),
              std::vector<std::int64_t>(static_cast<std::size_t>(sz), 0)) {}
};

/// (a) no exposed reads: within each parallel iteration, reads only touch
/// addresses previously written by the same iteration.
bool noExposedReads(const ir::Program& program, const ir::Phase& phase,
                    const std::string& array, const ir::Bindings& params) {
  bool exposed = false;
  std::int64_t currentIter = -1;
  std::set<std::int64_t> written;
  forEachRunAccess(program, phase, params, [&](const ConcreteAccess& acc, const ir::Bindings&) {
    if (exposed || acc.ref->array != array) return;
    // The replay is O(accesses); out of budget, assume the worst (exposed).
    if (!support::budgetStep()) {
      exposed = true;
      return;
    }
    if (acc.parallelIter != currentIter) {
      currentIter = acc.parallelIter;
      written.clear();
    }
    if (acc.ref->kind == ir::AccessKind::kWrite) {
      written.insert(acc.address);
    } else if (!written.count(acc.address)) {
      exposed = true;
    }
  });
  return !exposed;
}

/// (b) dead after the phase: the next real use of the array (walking
/// forward, wrapping when cyclic but excluding the phase itself — its own
/// next-cycle reads are covered by condition (a)) writes without reading.
/// In a non-cyclic program an array nobody rewrites is a program output and
/// therefore live.
bool deadAfter(const ir::Program& program, std::size_t phase, const std::string& array) {
  const std::size_t n = program.phases().size();
  const std::size_t limit = program.cyclic() ? n - 1 : n - phase - 1;
  for (std::size_t step = 1; step <= limit; ++step) {
    const ir::Phase& ph = program.phase((phase + step) % n);
    if (ph.isPrivatized(array)) continue;  // scratch use: not a real consumer
    if (!ph.accesses(array)) continue;
    return !ph.reads(array);
  }
  // Never used again: dead for cyclic programs (the wrap already covered
  // every phase), a live program output otherwise.
  return program.cyclic();
}

}  // namespace

DataFlowReport validateDataFlow(const ir::Program& program, const ir::Bindings& params,
                                const dsm::ExecutionPlan& plan, std::int64_t processors) {
  AD_REQUIRE(plan.iteration.size() == program.phases().size(), "plan must cover every phase");
  const std::int64_t H = processors;
  DataFlowReport report;

  std::map<std::string, ArrayState> state;
  for (const auto& arr : program.arrays()) {
    state.emplace(arr.name,
                  ArrayState(arr.size.evaluate(params).asInteger(), H));
  }

  const auto refreshHalos = [&](const std::string& array, std::size_t k) {
    const auto& dist = plan.data.at(array)[k];
    auto& st = state.at(array);
    const std::int64_t halo = plan.halo.at(array)[k];
    for (std::int64_t a = 0; a < st.size; ++a) {
      const std::int64_t owner = dist.owner(a, H);
      for (std::int64_t pe = 0; pe < H; ++pe) {
        if (pe == owner) continue;
        if (dist.isLocal(a, pe, H, halo)) {
          st.local[static_cast<std::size_t>(pe)][static_cast<std::size_t>(a)] =
              st.local[static_cast<std::size_t>(owner)][static_cast<std::size_t>(a)];
        }
      }
    }
  };

  for (std::size_t k = 0; k < program.phases().size(); ++k) {
    const ir::Phase& phase = program.phase(k);

    // The communication the plan runs entering phase k. A redistribution
    // hands the new owner the old owner's copy; one skipped because its
    // values are dead leaves stale copies that a read would expose.
    for (const auto& arr : program.arrays()) {
      if (dsm::redistributes(program, plan, arr.name, k)) {
        const auto& prev = plan.data.at(arr.name)[k - 1];
        const auto& next = plan.data.at(arr.name)[k];
        auto& st = state.at(arr.name);
        for (std::int64_t a = 0; a < st.size; ++a) {
          const std::int64_t src = prev.owner(a, H);
          const std::int64_t dst = next.owner(a, H);
          if (src == dst) continue;
          st.local[static_cast<std::size_t>(dst)][static_cast<std::size_t>(a)] =
              st.local[static_cast<std::size_t>(src)][static_cast<std::size_t>(a)];
        }
      }
      if (dsm::frontierRefresh(program, params, plan, arr.name, k)) refreshHalos(arr.name, k);
    }

    const dsm::IterationDistribution& sched = plan.iteration[k];
    forEachRunAccess(program, phase, params, [&](const ConcreteAccess& acc, const ir::Bindings&) {
      if (phase.isPrivatized(acc.ref->array)) return;  // scratch: no shared flow
      auto& st = state.at(acc.ref->array);
      const std::int64_t pe =
          phase.hasParallelLoop() ? sched.executor(acc.parallelIter, H) : 0;
      const auto& dist = plan.data.at(acc.ref->array)[k];
      const std::int64_t a = acc.address;
      AD_REQUIRE(a >= 0 && a < st.size, "address out of bounds");
      const auto ai = static_cast<std::size_t>(a);

      if (acc.ref->kind == ir::AccessKind::kWrite) {
        ++st.truth[ai];
        if (dist.hasOwner()) {
          // The write lands in the owner's memory (locally or as a put), and
          // the writer's own copy if it keeps one.
          const std::int64_t owner = dist.owner(a, H);
          st.local[static_cast<std::size_t>(owner)][ai] = st.truth[ai];
          if (pe != owner) st.local[static_cast<std::size_t>(pe)][ai] = st.truth[ai];
        } else {
          // Replicated/private placement: only the writer's copy is updated
          // (never-written arrays make this path moot for replicas).
          st.local[static_cast<std::size_t>(pe)][ai] = st.truth[ai];
        }
        return;
      }

      // Read: served locally (owner copy, halo replica, replicated array) or
      // remotely. Remote reads observe the owner's memory, which the write
      // rule keeps authoritative — only local copies can be stale.
      ++report.readsChecked;
      std::int64_t halo = 0;
      if (auto hit = plan.halo.find(acc.ref->array); hit != plan.halo.end()) {
        halo = hit->second[k];
      }
      const bool local = dist.isLocal(a, pe, H, halo);
      if (!local) return;  // remote get: always fresh
      if (st.local[static_cast<std::size_t>(pe)][ai] != st.truth[ai]) {
        ++report.staleReads;
        if (report.diagnostics.size() < 8) {
          std::ostringstream os;
          os << "stale read: phase " << phase.name() << " PE " << pe << " "
             << acc.ref->array << "[" << a << "] version "
             << st.local[static_cast<std::size_t>(pe)][ai] << " != truth " << st.truth[ai];
          report.diagnostics.push_back(os.str());
        }
      }
    });
  }
  return report;
}

bool inferPrivatizable(const ir::Program& program, std::size_t phase, const std::string& array,
                       const ir::Bindings& params) {
  const ir::Phase& ph = program.phase(phase);
  if (!ph.accesses(array)) return false;
  if (!ph.writes(array)) return false;  // nothing produced locally
  const auto subject = [&] {
    return "array=" + array + " phase=F" + std::to_string(phase + 1);
  };
  // No privatization without a completed proof: an exhausted budget (or an
  // injected analysis fault) downgrades to shared placement, which is always
  // correct — it merely forfeits the D-edge decoupling.
  if (AD_FAULT_POINT("privatize.infer")) {
    support::recordDegradation("privatization", subject(), "not privatized", "fault");
    return false;
  }
  if (support::budgetCompromised()) {
    support::recordDegradation("privatization", subject(), "not privatized",
                               support::currentDegradationCause());
    return false;
  }
  const bool proved =
      noExposedReads(program, ph, array, params) && deadAfter(program, phase, array);
  if (!proved && support::budgetCompromised()) {
    support::recordDegradation("privatization", subject(), "not privatized",
                               support::currentDegradationCause());
  }
  return proved;
}

std::vector<std::string> unjustifiedPrivatizations(const ir::Program& program, std::size_t phase,
                                                   const ir::Bindings& params) {
  std::vector<std::string> bad;
  for (const auto& name : program.phase(phase).privatized()) {
    if (!inferPrivatizable(program, phase, name, params)) bad.push_back(name);
  }
  return bad;
}

namespace {

/// (src, dst, element) moves -> one message per (src, dst) pair, in pair
/// order, each element a one-word range coalesced with a touching
/// predecessor.
std::vector<comm::Message> coalesce(
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> moves) {
  std::sort(moves.begin(), moves.end());
  std::vector<comm::Message> messages;
  for (const auto& [src, dst, addr] : moves) {
    if (messages.empty() || messages.back().src != src || messages.back().dst != dst) {
      messages.push_back(comm::Message{src, dst, {}});
    }
    auto& ranges = messages.back().ranges;
    if (!ranges.empty() && ranges.back().end == addr) {
      ++ranges.back().end;
    } else {
      ranges.push_back(comm::Range{addr, addr + 1});
    }
  }
  return messages;
}

}  // namespace

comm::CommSchedule generateGlobal(const std::string& array, std::int64_t size,
                                  const dsm::DataDistribution& from,
                                  const dsm::DataDistribution& to, std::int64_t processors) {
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> moves;
  for (std::int64_t a = 0; a < size; ++a) {
    const std::int64_t src = from.owner(a, processors);
    const std::int64_t dst = to.owner(a, processors);
    if (src != dst) moves.emplace_back(src, dst, a);
  }
  return comm::CommSchedule(array, coalesce(std::move(moves)));
}

bool verifiesRedistribution(const comm::CommSchedule& schedule, std::int64_t size,
                            const dsm::DataDistribution& from, const dsm::DataDistribution& to,
                            std::int64_t processors) {
  std::vector<int> covered(static_cast<std::size_t>(size), 0);
  for (const auto& m : schedule.messages()) {
    for (const auto& r : schedule.ranges(m)) {
      for (std::int64_t a = r.begin; a < r.end; ++a) {
        if (a < 0 || a >= size) return false;
        if (from.owner(a, processors) != m.src) return false;
        if (to.owner(a, processors) != m.dst) return false;
        if (m.src == m.dst) return false;
        ++covered[static_cast<std::size_t>(a)];
      }
    }
  }
  for (std::int64_t a = 0; a < size; ++a) {
    const bool moves = from.owner(a, processors) != to.owner(a, processors);
    if (covered[static_cast<std::size_t>(a)] != (moves ? 1 : 0)) return false;
  }
  return true;
}

}  // namespace ad::reference
