#include "driver/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <new>
#include <tuple>

#include "support/fault.hpp"
#include "support/string_utils.hpp"

namespace ad::driver {

namespace {

const char* distKindName(dsm::DataDistribution::Kind k) {
  switch (k) {
    case dsm::DataDistribution::Kind::kBlockCyclic:
      return "block_cyclic";
    case dsm::DataDistribution::Kind::kFoldedBlockCyclic:
      return "folded_block_cyclic";
    case dsm::DataDistribution::Kind::kReplicated:
      return "replicated";
  }
  return "?";
}

/// "yes" / "no" / "unknown" for tri-state analysis facts.
const char* triState(const std::optional<bool>& v) {
  if (!v) return "unknown";
  return *v ? "yes" : "no";
}

}  // namespace

std::string serializeGolden(const PipelineResult& result, const ir::Program& program) {
  if (AD_FAULT_POINT("serialize.alloc")) throw std::bad_alloc();
  const sym::SymbolTable& table = program.symbols();
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"ad.golden.v1\",\n";
  out += "  \"processors\": " + std::to_string(result.processors) + ",\n";

  // ----- LCG ---------------------------------------------------------------
  out += "  \"lcg\": [\n";
  for (std::size_t g = 0; g < result.lcg.graphs().size(); ++g) {
    const lcg::ArrayGraph& graph = result.lcg.graphs()[g];
    out += "    {\n      \"array\": ";
    out += jsonQuote(graph.array);
    out += ",\n      \"nodes\": [\n";
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      const lcg::Node& node = graph.nodes[n];
      out += "        {\"phase\": ";
      out += jsonQuote(program.phases()[node.phase].name());
      out += ", \"attr\": \"";
      out += loc::attrName(node.attr);
      out += "\", \"overlap\": \"";
      out += triState(node.info->overlap);
      out += "\"";
      if (node.info->side) {
        out += ", \"slope\": ";
        out += jsonQuote(node.info->side->slope.str(table));
        out += ", \"offset\": ";
        out += jsonQuote(node.info->side->offset.str(table));
      }
      out += "}";
      out += n + 1 < graph.nodes.size() ? ",\n" : "\n";
    }
    out += "      ],\n      \"edges\": [\n";
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      const lcg::Edge& edge = graph.edges[e];
      out += "        {\"from\": " + std::to_string(edge.from) +
             ", \"to\": " + std::to_string(edge.to) + ", \"label\": \"";
      out += loc::edgeLabelName(edge.label);
      out += "\", \"back\": ";
      out += edge.backEdge ? "true" : "false";
      // Only present on degraded edges: clean runs stay byte-identical.
      if (edge.degraded) out += ", \"degraded\": true";
      if (edge.condition) {
        out += ", \"condition\": ";
        out += jsonQuote(edge.condition->render(table, "p_k", "p_g"));
      }
      out += "}";
      out += e + 1 < graph.edges.size() ? ",\n" : "\n";
    }
    out += "      ]\n    }";
    out += g + 1 < result.lcg.graphs().size() ? ",\n" : "\n";
  }
  out += "  ],\n";

  // ----- Execution plan ----------------------------------------------------
  out += "  \"plan\": {\n    \"iteration\": [\n";
  for (std::size_t p = 0; p < result.plan.iteration.size(); ++p) {
    out += "      {\"phase\": ";
    out += jsonQuote(program.phases()[p].name());
    out += ", \"chunk\": " + std::to_string(result.plan.iteration[p].chunk) + "}";
    out += p + 1 < result.plan.iteration.size() ? ",\n" : "\n";
  }
  out += "    ],\n    \"data\": [\n";
  // result.plan.data is a std::map keyed by array name: iteration order is
  // already deterministic (lexicographic).
  std::size_t arrayIdx = 0;
  for (const auto& [array, dists] : result.plan.data) {
    out += "      {\"array\": ";
    out += jsonQuote(array);
    out += ", \"phases\": [";
    for (std::size_t p = 0; p < dists.size(); ++p) {
      const dsm::DataDistribution& d = dists[p];
      out += "{\"kind\": \"";
      out += distKindName(d.kind);
      out += "\"";
      if (d.kind == dsm::DataDistribution::Kind::kBlockCyclic ||
          d.kind == dsm::DataDistribution::Kind::kFoldedBlockCyclic) {
        out += ", \"block\": " + std::to_string(d.block);
      }
      if (d.kind == dsm::DataDistribution::Kind::kFoldedBlockCyclic) {
        out += ", \"fold\": " + std::to_string(d.fold);
      }
      if (auto it = result.plan.halo.find(array);
          it != result.plan.halo.end() && p < it->second.size() && it->second[p] != 0) {
        out += ", \"halo\": " + std::to_string(it->second[p]);
      }
      out += "}";
      if (p + 1 < dists.size()) out += ", ";
    }
    out += "]}";
    out += ++arrayIdx < result.plan.data.size() ? ",\n" : "\n";
  }
  out += "    ]\n  },\n";

  // ----- Degradation ledger (omitted entirely on clean runs) ---------------
  if (!result.degradation.empty()) {
    auto events = result.degradation;
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      return std::tie(a.stage, a.subject, a.action, a.cause) <
             std::tie(b.stage, b.subject, b.action, b.cause);
    });
    out += "  \"degradation\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
      out += "    {\"stage\": ";
      out += jsonQuote(events[i].stage);
      out += ", \"subject\": ";
      out += jsonQuote(events[i].subject);
      out += ", \"action\": ";
      out += jsonQuote(events[i].action);
      out += ", \"cause\": ";
      out += jsonQuote(events[i].cause);
      out += "}";
      out += i + 1 < events.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }

  // ----- Communication schedule shape --------------------------------------
  out += "  \"redistributions\": " + std::to_string(result.schedules.size()) + "\n";
  out += "}\n";
  return out;
}

}  // namespace ad::driver
