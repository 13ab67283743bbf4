// The Locality-Communication Graph (paper Sections 1 and 4).
//
// One connected digraph per array: nodes are the phases accessing the array
// (in control-flow order, with an optional back edge for cyclic programs),
// annotated R / W / R/W / P; edges carry the Table-1 label
//   L — locality exploitable (no communication between the two phases),
//   C — communication required between the two phases,
//   D — un-coupled through a privatizing phase (removed for chain purposes).
// Maximal runs of L edges form *chains*: sets of phases that can share one
// static data distribution (Section 4.3a).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "locality/analysis.hpp"
#include "support/status.hpp"

namespace ad::support {
class ThreadPool;
}  // namespace ad::support

namespace ad::lcg {

struct Node {
  std::size_t phase = 0;  ///< index into program.phases()
  loc::Attr attr = loc::Attr::kRead;
  /// Full analysis results for ILP/codegen. Shared with the process-wide
  /// phase-array memo: a cache hit is the same immutable node, so equality of
  /// analysis inputs is pointer identity here. Never null after buildLCG.
  std::shared_ptr<const loc::PhaseArrayInfo> info;
};

struct Edge {
  std::size_t from = 0;  ///< node indices within the same ArrayGraph
  std::size_t to = 0;
  loc::EdgeLabel label = loc::EdgeLabel::kComm;
  std::optional<loc::BalancedCondition> condition;  ///< Eq. 1 instance, if formable
  bool backEdge = false;  ///< the cyclic-program wraparound edge
  /// Label decided while the analysis budget was exhausted (or a fault was
  /// injected): C here means "could not prove L within budget", not "proved
  /// communication". The trace validator accepts zero observed communication
  /// on such edges.
  bool degraded = false;
};

struct ArrayGraph {
  std::string array;
  std::vector<Node> nodes;
  std::vector<Edge> edges;  ///< edges[i] connects nodes[i] -> nodes[i+1] (+ back edge last)

  /// Maximal runs of nodes joined by consecutive L edges (C and D both break
  /// a chain). Every node belongs to exactly one chain.
  [[nodiscard]] std::vector<std::vector<std::size_t>> chains() const;
};

class LCG {
 public:
  LCG(const ir::Program* program, std::vector<ArrayGraph> graphs)
      : program_(program), graphs_(std::move(graphs)) {}

  [[nodiscard]] const std::vector<ArrayGraph>& graphs() const noexcept { return graphs_; }
  [[nodiscard]] const ArrayGraph& graph(const std::string& array) const;
  [[nodiscard]] const ir::Program& program() const noexcept { return *program_; }

  /// Total number of C edges (communication points) across all arrays.
  [[nodiscard]] std::size_t communicationEdges() const;

  /// Figure-6 style table: one row per phase, one column per array, edge
  /// labels between rows.
  [[nodiscard]] std::string str() const;
  /// Graphviz rendering (one cluster per array).
  [[nodiscard]] std::string dot() const;

 private:
  const ir::Program* program_;
  std::vector<ArrayGraph> graphs_;
};

/// Builds the LCG with edge labels decided numerically under the given
/// parameter bindings and processor count (the balanced locality condition
/// is an integer-feasibility question, Eqs. 1-3).
[[nodiscard]] LCG buildLCG(const ir::Program& program,
                           const std::map<sym::SymbolId, std::int64_t>& params,
                           std::int64_t processors);

/// Parallel variant: per-array graph construction (descriptor simplification
/// and Theorem-1/2 edge classification) runs as independent tasks on `pool`.
/// The result is byte-identical to the serial build — tasks fill pre-sized
/// slots in declaration order and the label tallies are accumulated after the
/// join. `pool == nullptr` falls back to the serial path.
[[nodiscard]] LCG buildLCG(const ir::Program& program,
                           const std::map<sym::SymbolId, std::int64_t>& params,
                           std::int64_t processors, support::ThreadPool* pool);

}  // namespace ad::lcg
