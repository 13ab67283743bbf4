// docs/OBSERVABILITY.md is the registry of every span and metric the code
// emits. These tests extract the names from the sources under src/ and from
// the doc's tables, and check the two in both directions: every name the code
// emits is documented (metrics under their kind, spans with the file that
// emits them), and every documented name is still emitted somewhere.
//
// Source side: `Span <var>("name"` opens a span; `counter("name"`,
// `gauge("name"` and `histogram("name"` register a metric of that kind; any
// other "ad.<family>.<name>" literal (a pre-registration list) must be a
// documented metric of some kind. Schema names ("ad.metrics.v1") are not
// metrics. A dynamic name is built from a literal prefix ending in ':' (spans)
// or '.' (metrics); the doc writes it as prefix + "<part>".
//
// Doc side: the first column of the "### Span names" table, and the
// Family / Names columns of the "### Counters", "### Gauges" and
// "### Histograms" tables (a family `ad.x.*` with names `a`, `b` documents
// ad.x.a and ad.x.b).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string readFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A dynamic name's fixed prefix: everything before the first '<'.
std::string stripDynamic(const std::string& name) { return name.substr(0, name.find('<')); }

std::vector<std::string> backticked(const std::string& text) {
  std::vector<std::string> out;
  static const std::regex tick("`([^`]+)`");
  for (std::sregex_iterator it(text.begin(), text.end(), tick), end; it != end; ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

std::vector<std::string> splitColumns(const std::string& row) {
  std::vector<std::string> cols;
  std::string col;
  for (std::size_t i = 1; i < row.size(); ++i) {  // row[0] is the leading '|'
    if (row[i] == '|') {
      cols.push_back(col);
      col.clear();
    } else {
      col += row[i];
    }
  }
  return cols;
}

struct SourceNames {
  std::map<std::string, std::string> spanFiles;     ///< span -> emitting file (under src/)
  std::map<std::string, std::string> metricKinds;   ///< metric -> kind ("" if unknown)
};

SourceNames scanSources() {
  SourceNames out;
  static const std::regex span(R"(\bSpan\s+\w+\(\s*"([^"]+)\")");
  static const std::regex registered(R"(\b(counter|gauge|histogram)\(\s*"(ad\.[^"]+)\")");
  static const std::regex literal(R"("(ad\.[a-z0-9_]+\.[a-z0-9_.]*)\")");
  static const std::regex schema(R"(\.v[0-9]+$)");
  const fs::path root = fs::path(AD_SOURCE_DIR) / "src";
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const std::string text = readFile(entry.path());
    const std::string file = fs::relative(entry.path(), root).generic_string();
    for (std::sregex_iterator it(text.begin(), text.end(), span), end; it != end; ++it) {
      out.spanFiles.emplace((*it)[1], file);
    }
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end; it != end; ++it) {
      const std::string name = (*it)[1];
      if (!std::regex_search(name, schema)) out.metricKinds.emplace(name, "");
    }
    for (std::sregex_iterator it(text.begin(), text.end(), registered), end; it != end; ++it) {
      out.metricKinds[(*it)[2]] = (*it)[1];
    }
  }
  return out;
}

struct DocNames {
  std::map<std::string, std::string> spanRows;     ///< span -> its table row
  std::map<std::string, std::string> metricKinds;  ///< metric -> kind
};

DocNames scanDoc() {
  DocNames out;
  std::ifstream in(fs::path(AD_SOURCE_DIR) / "docs" / "OBSERVABILITY.md");
  std::string section;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      section = line;
      continue;
    }
    if (line.rfind("|", 0) != 0 || line.rfind("|---", 0) == 0) continue;
    const std::vector<std::string> cols = splitColumns(line);
    if (cols.size() < 2) continue;
    if (section == "### Span names") {
      for (const std::string& name : backticked(cols[0])) {
        out.spanRows.emplace(stripDynamic(name), line);
      }
      continue;
    }
    std::string kind;
    if (section == "### Counters") kind = "counter";
    if (section == "### Gauges") kind = "gauge";
    if (section == "### Histograms") kind = "histogram";
    if (kind.empty()) continue;
    for (const std::string& family : backticked(cols[0])) {
      if (family.size() < 2 || family.substr(family.size() - 2) != ".*") continue;
      const std::string prefix = family.substr(0, family.size() - 1);
      for (const std::string& name : backticked(cols[1])) {
        out.metricKinds.emplace(stripDynamic(prefix + name), kind);
      }
    }
  }
  return out;
}

TEST(ObservabilityDoc, EverySpanInTheSourcesIsDocumentedWithItsFile) {
  const SourceNames src = scanSources();
  const DocNames doc = scanDoc();
  ASSERT_FALSE(src.spanFiles.empty());
  for (const auto& [span, file] : src.spanFiles) {
    const auto it = doc.spanRows.find(span);
    if (it == doc.spanRows.end()) {
      ADD_FAILURE() << "span '" << span << "' (" << file << ") is not in docs/OBSERVABILITY.md";
      continue;
    }
    EXPECT_NE(it->second.find(file), std::string::npos)
        << "span '" << span << "' is emitted from " << file << " but documented as: "
        << it->second;
  }
}

TEST(ObservabilityDoc, EveryDocumentedSpanIsEmitted) {
  const SourceNames src = scanSources();
  const DocNames doc = scanDoc();
  ASSERT_FALSE(doc.spanRows.empty());
  for (const auto& [span, row] : doc.spanRows) {
    EXPECT_TRUE(src.spanFiles.count(span) == 1)
        << "documented span '" << span << "' is not opened anywhere under src/";
  }
}

TEST(ObservabilityDoc, EveryMetricInTheSourcesIsDocumentedUnderItsKind) {
  const SourceNames src = scanSources();
  const DocNames doc = scanDoc();
  ASSERT_FALSE(src.metricKinds.empty());
  for (const auto& [metric, kind] : src.metricKinds) {
    const auto it = doc.metricKinds.find(metric);
    if (it == doc.metricKinds.end()) {
      ADD_FAILURE() << "metric '" << metric << "' is not in docs/OBSERVABILITY.md";
      continue;
    }
    if (!kind.empty()) {
      EXPECT_EQ(it->second, kind) << "metric '" << metric << "' is documented as a "
                                  << it->second << " but registered as a " << kind;
    }
  }
}

TEST(ObservabilityDoc, EveryDocumentedMetricIsRegistered) {
  const SourceNames src = scanSources();
  const DocNames doc = scanDoc();
  ASSERT_FALSE(doc.metricKinds.empty());
  for (const auto& [metric, kind] : doc.metricKinds) {
    EXPECT_TRUE(src.metricKinds.count(metric) == 1)
        << "documented " << kind << " '" << metric << "' is not registered anywhere under src/";
  }
}

}  // namespace
