#include "tools/coverage_cli_lib.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "coverage_lib.h"
#include "datagen/compas.h"

namespace coverage {
namespace cli {
namespace {

// ----------------------------------------------------------- ParseArgs --

TEST(CliParse, RequiresCommand) {
  EXPECT_FALSE(ParseArgs({}).ok());
}

TEST(CliParse, HelpVariants) {
  for (const char* arg : {"help", "--help", "-h"}) {
    auto options = ParseArgs({arg});
    ASSERT_TRUE(options.ok());
    EXPECT_EQ(options->command, "help");
  }
}

TEST(CliParse, RejectsUnknownCommand) {
  const auto result = ParseArgs({"frobnicate", "--csv", "x.csv"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown command"),
            std::string::npos);
}

TEST(CliParse, AuditDefaults) {
  auto options = ParseArgs({"audit", "--csv", "data.csv"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "audit");
  EXPECT_EQ(options->csv_path, "data.csv");
  EXPECT_EQ(options->tau, 30u);  // the §II rule-of-thumb default
  EXPECT_EQ(options->max_level, -1);
  EXPECT_FALSE(options->list_mups);
}

TEST(CliParse, AllFlags) {
  auto options = ParseArgs({"enhance", "--csv", "d.csv", "--tau", "12",
                            "--lambda", "2", "--max-cardinality", "50",
                            "--rule", "a in {x}", "--rule", "b in {y}",
                            "--list-mups", "--max-level", "3"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->tau, 12u);
  EXPECT_EQ(options->lambda, 2);
  EXPECT_EQ(options->max_level, 3);
  EXPECT_EQ(options->max_cardinality, 50);
  EXPECT_EQ(options->rules,
            (std::vector<std::string>{"a in {x}", "b in {y}"}));
  EXPECT_TRUE(options->list_mups);
}

TEST(CliParse, ThreadsFlagBothForms) {
  auto spaced = ParseArgs({"audit", "--csv", "d.csv", "--threads", "4"});
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(spaced->threads, 4);
  auto joined = ParseArgs({"audit", "--csv", "d.csv", "--threads=8"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->threads, 8);
  EXPECT_EQ(ParseArgs({"audit", "--csv", "d.csv"})->threads, 1);
}

TEST(CliParse, RejectsBadThreadCounts) {
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--threads", "0"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--threads", "-2"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--threads=1025"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--threads"}).ok());
}

TEST(CliParse, RejectsMissingCsv) {
  EXPECT_FALSE(ParseArgs({"audit", "--tau", "5"}).ok());
}

TEST(CliParse, RejectsBadNumbers) {
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--tau", "abc"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--tau", "0"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--tau", "3x"}).ok());
  EXPECT_FALSE(
      ParseArgs({"audit", "--csv", "x", "--max-cardinality", "0"}).ok());
}

TEST(CliParse, RejectsDanglingFlagValue) {
  EXPECT_FALSE(ParseArgs({"audit", "--csv"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--rule"}).ok());
}

TEST(CliParse, RejectsUnknownFlag) {
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "x", "--bogus"}).ok());
}

TEST(CliParse, EngineFlags) {
  auto options = ParseArgs(
      {"audit", "--csv", "d.csv", "--engine", "--chunk-rows", "1024"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->engine);
  EXPECT_EQ(options->chunk_rows, 1024u);
  auto defaults = ParseArgs({"audit", "--csv", "d.csv"});
  ASSERT_TRUE(defaults.ok());
  EXPECT_FALSE(defaults->engine);
  EXPECT_EQ(defaults->chunk_rows, 65536u);
  EXPECT_FALSE(
      ParseArgs({"audit", "--csv", "d.csv", "--chunk-rows", "0"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "d.csv", "--chunk-rows"}).ok());
}

TEST(CliParse, WindowRowsRequiresEngine) {
  auto options = ParseArgs({"audit", "--csv", "d.csv", "--engine",
                            "--window-rows", "5000"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->window_rows, 5000u);
  auto defaults = ParseArgs({"audit", "--csv", "d.csv", "--engine"});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->window_rows, 0u);  // windowing off by default
  // A sliding window only exists on the streaming path.
  EXPECT_FALSE(
      ParseArgs({"audit", "--csv", "d.csv", "--window-rows", "5000"}).ok());
  EXPECT_FALSE(
      ParseArgs({"audit", "--csv", "d.csv", "--engine", "--window-rows", "0"})
          .ok());
}

TEST(CliParse, UsageDocumentsEngineFlags) {
  const std::string usage = Usage();
  for (const char* flag : {"--engine", "--chunk-rows", "--window-rows",
                           "--algo", "--pattern", "--batch-file"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(CliParse, AlgoFlag) {
  EXPECT_EQ(ParseArgs({"audit", "--csv", "d.csv"})->algo, "auto");
  for (const char* name : {"auto", "deepdiver", "breaker", "pattern-breaker",
                           "combiner", "pattern-combiner", "apriori",
                           "naive"}) {
    auto options = ParseArgs({"audit", "--csv", "d.csv", "--algo", name});
    ASSERT_TRUE(options.ok()) << name;
    EXPECT_EQ(options->algo, name);
  }
  EXPECT_FALSE(
      ParseArgs({"audit", "--csv", "d.csv", "--algo", "magic"}).ok());
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "d.csv", "--algo"}).ok());
}

TEST(CliParse, QueryCommand) {
  auto options = ParseArgs({"query", "--csv", "d.csv", "--pattern", "X1XX",
                            "--pattern", "XX23"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->command, "query");
  EXPECT_EQ(options->patterns, (std::vector<std::string>{"X1XX", "XX23"}));
  auto batch = ParseArgs({"query", "--csv", "d.csv", "--batch-file", "p.txt"});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->batch_file, "p.txt");
  // A query without any pattern source is malformed.
  EXPECT_FALSE(ParseArgs({"query", "--csv", "d.csv"}).ok());
}

// --------------------------------------------------------------- RunCli --

class CliRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csv_path_ = ::testing::TempDir() + "/cli_test_compas.csv";
    const auto compas = datagen::MakeCompas(2000, 3);
    std::ofstream out(csv_path_);
    ASSERT_TRUE(compas.data.WriteCsv(out).ok());
  }
  void TearDown() override { std::remove(csv_path_.c_str()); }

  std::string csv_path_;
};

TEST_F(CliRunTest, HelpPrintsUsage) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("usage: coverage_cli"), std::string::npos);
}

TEST_F(CliRunTest, BadArgsExitCodeTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"audit"}, out, err), 2);
  EXPECT_NE(err.str().find("--csv is required"), std::string::npos);
}

TEST_F(CliRunTest, StatsPrintsSchema) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"stats", "--csv", csv_path_}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("attributes: 4"), std::string::npos);
  EXPECT_NE(out.str().find("race"), std::string::npos);
  EXPECT_NE(out.str().find("Hispanic"), std::string::npos);
}

TEST_F(CliRunTest, AuditPrintsLabel) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("COVERAGE LABEL"), std::string::npos);
  EXPECT_NE(out.str().find("coverage queries"), std::string::npos);
}

TEST_F(CliRunTest, AuditEngineMatchesWholeFileAudit) {
  // The streamed engine audit must print the same nutritional label and the
  // same MUP list as the whole-file audit, for any chunk size.
  std::ostringstream whole_out, whole_err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--list-mups"},
                                 whole_out, whole_err),
            0)
      << whole_err.str();
  const std::string whole = whole_out.str();
  const std::string whole_label = whole.substr(0, whole.find("discovery:"));
  const std::string whole_list = whole.substr(whole.find("all MUPs"));

  for (const char* chunk_rows : {"97", "100000"}) {
    std::ostringstream out, err;
    ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau",
                                    "10", "--list-mups", "--engine",
                                    "--chunk-rows", chunk_rows},
                                   out, err),
              0)
        << err.str();
    const std::string streamed = out.str();
    ASSERT_NE(streamed.find("ingest:"), std::string::npos);
    EXPECT_EQ(streamed.substr(0, streamed.find("ingest:")), whole_label)
        << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(streamed.substr(streamed.find("all MUPs")), whole_list)
        << "chunk_rows=" << chunk_rows;
  }
}

TEST_F(CliRunTest, AuditEngineWindowReportsRetainedRows) {
  // A windowed streaming audit labels only the tail of the stream and says
  // so. 2000 rows in 500-row chunks with a 1200-row cap retain the last 2
  // chunks (appending a chunk at 1000 retained makes 1500 > 1200 → evict).
  std::ostringstream out, err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--engine", "--chunk-rows", "500",
                                  "--window-rows", "1200"},
                                 out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("window: last 1,200 rows (1,000 retained"),
            std::string::npos)
      << out.str();
}

TEST_F(CliRunTest, AuditAlgoAutoReportsPlannerDecision) {
  std::ostringstream out, err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--algo", "auto"},
                                 out, err),
            0)
      << err.str();
  // The planner's concrete pick and its rationale are surfaced.
  EXPECT_NE(out.str().find("discovery: PATTERN-BREAKER"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("planner:"), std::string::npos);
}

TEST_F(CliRunTest, AuditExplicitAlgoMatchesAuto) {
  // Every algorithm returns the same label; --algo only changes the engine
  // doing the work (and the discovery line saying so).
  std::ostringstream auto_out, err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10"},
                                 auto_out, err),
            0);
  const std::string auto_label =
      auto_out.str().substr(0, auto_out.str().find("discovery:"));
  for (const char* algo : {"breaker", "combiner"}) {
    std::ostringstream out, err2;
    ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau",
                                    "10", "--algo", algo},
                                   out, err2),
              0)
        << err2.str();
    EXPECT_EQ(out.str().substr(0, out.str().find("discovery:")), auto_label)
        << algo;
    EXPECT_EQ(out.str().find("planner:"), std::string::npos) << algo;
  }
}

TEST_F(CliRunTest, QueryAnswersInlinePatterns) {
  std::ostringstream out, err;
  ASSERT_EQ(::coverage::cli::Run({"query", "--csv", csv_path_, "--tau", "10",
                                  "--pattern", "XXXX", "--pattern", "X0XX"},
                                 out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("XXXX  cov = 2,000  covered at tau=10"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("batch: 2 queries"), std::string::npos);
}

TEST_F(CliRunTest, QueryBatchFileMatchesInline) {
  const std::string batch_path = ::testing::TempDir() + "/cli_test_batch.txt";
  {
    std::ofstream batch(batch_path);
    batch << "# probes\n\nXXXX\nX0XX\n";
  }
  std::ostringstream inline_out, batch_out, err;
  ASSERT_EQ(::coverage::cli::Run({"query", "--csv", csv_path_, "--pattern",
                                  "XXXX", "--pattern", "X0XX", "--threads",
                                  "4"},
                                 inline_out, err),
            0)
      << err.str();
  ASSERT_EQ(::coverage::cli::Run({"query", "--csv", csv_path_, "--batch-file",
                                  batch_path, "--threads", "4"},
                                 batch_out, err),
            0)
      << err.str();
  std::remove(batch_path.c_str());
  // Comments/blank lines are skipped; answers and order are identical. The
  // trailing summary line carries wall-clock time, so compare up to it.
  EXPECT_EQ(batch_out.str().substr(0, batch_out.str().find("batch:")),
            inline_out.str().substr(0, inline_out.str().find("batch:")));
}

// ------------------------------------------------------------- --json --

TEST(CliParseJson, JsonFlagOnAuditAndQueryOnly) {
  EXPECT_TRUE(ParseArgs({"audit", "--csv", "d.csv", "--json"})->json);
  EXPECT_TRUE(ParseArgs({"query", "--csv", "d.csv", "--pattern", "X",
                         "--json"})
                  ->json);
  EXPECT_FALSE(ParseArgs({"audit", "--csv", "d.csv"})->json);
  EXPECT_FALSE(ParseArgs({"enhance", "--csv", "d.csv", "--json"}).ok());
  EXPECT_FALSE(ParseArgs({"stats", "--csv", "d.csv", "--json"}).ok());
}

/// Normalises the one nondeterministic part of the wire format (wall-clock
/// timings) so JSON outputs compare exactly.
std::string NormalizeJsonOutput(const std::string& text) {
  auto parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  if (!parsed.ok()) return "<unparseable>";
  std::function<void(json::JsonValue&)> zero = [&](json::JsonValue& v) {
    if (v.is_array()) {
      for (auto& item : v.AsArray()) zero(item);
    } else if (v.is_object()) {
      for (auto& [key, value] : v.AsObject()) {
        if (key == "seconds") {
          value = json::JsonValue(0);
        } else {
          zero(value);
        }
      }
    }
  };
  zero(*parsed);
  return json::SerializePretty(*parsed);
}

std::string GoldenPath(const std::string& name) {
  return std::string(COVERAGE_REPO_DIR) + "/tests/golden/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate per tests/golden/README.md)";
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST_F(CliRunTest, AuditJsonMatchesGoldenFile) {
  std::ostringstream out, err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--json"},
                                 out, err),
            0)
      << err.str();
  EXPECT_EQ(NormalizeJsonOutput(out.str()),
            ReadFileOrDie(GoldenPath("cli_audit_compas_tau10.json")));
}

TEST_F(CliRunTest, QueryJsonMatchesGoldenFile) {
  std::ostringstream out, err;
  ASSERT_EQ(::coverage::cli::Run({"query", "--csv", csv_path_, "--pattern",
                                  "XXXX", "--pattern", "X0XX", "--json"},
                                 out, err),
            0)
      << err.str();
  EXPECT_EQ(NormalizeJsonOutput(out.str()),
            ReadFileOrDie(GoldenPath("cli_query_compas.json")));
}

TEST_F(CliRunTest, AuditJsonIsTheWireEncoding) {
  // One serializer: the CLI's --json output must be exactly
  // wire::ToJson(AuditResult) for the same request against the same data —
  // the content coverage_server would send for POST /v1/audit.
  std::ostringstream out, err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--json"},
                                 out, err),
            0)
      << err.str();
  auto service = CoverageService::FromCsvFile(csv_path_);
  ASSERT_TRUE(service.ok());
  AuditRequest request;
  request.tau = 10;
  auto result = service->Audit(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NormalizeJsonOutput(out.str()),
            NormalizeJsonOutput(json::SerializePretty(
                wire::ToJson(*result, service->schema()))));
}

TEST_F(CliRunTest, EngineAuditJsonMatchesWholeFileJson) {
  std::ostringstream whole, streamed, err;
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--json"},
                                 whole, err),
            0)
      << err.str();
  ASSERT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10",
                                  "--json", "--engine", "--chunk-rows",
                                  "311"},
                                 streamed, err),
            0)
      << err.str();
  // Identical MUPs; only discovery metadata (algorithm name, stats,
  // planner line) differs between the search and the incremental engine.
  auto whole_json = json::Parse(whole.str());
  auto streamed_json = json::Parse(streamed.str());
  ASSERT_TRUE(whole_json.ok());
  ASSERT_TRUE(streamed_json.ok());
  EXPECT_EQ(*whole_json->Find("mups"), *streamed_json->Find("mups"));
  EXPECT_EQ(*whole_json->Find("num_rows"), *streamed_json->Find("num_rows"));
  EXPECT_EQ(*streamed_json->GetString("algorithm"), "ENGINE-INCREMENTAL");
}

TEST_F(CliRunTest, QueryRejectsBadPattern) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"query", "--csv", csv_path_, "--pattern",
                                  "ZZ"},
                                 out, err),
            1);
  EXPECT_NE(err.str().find("bad pattern"), std::string::npos);
}

TEST_F(CliRunTest, AuditListMupsShowsPatterns) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10", "--list-mups"},
                out, err),
            0);
  EXPECT_NE(out.str().find("all MUPs"), std::string::npos);
}

TEST_F(CliRunTest, AuditMaxLevelRestricts) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"audit", "--csv", csv_path_, "--tau", "10", "--max-level",
                 "2", "--list-mups"},
                out, err),
            0);
  // No level-3+ MUPs may appear: every printed pattern has <= 2 labels.
  std::istringstream lines(out.str());
  std::string line;
  bool in_list = false;
  while (std::getline(lines, line)) {
    if (line.find("all MUPs") != std::string::npos) {
      in_list = true;
      continue;
    }
    if (!in_list || line.empty()) continue;
    const std::size_t commas =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
    EXPECT_LE(commas, 1u) << line;  // "a=x, b=y" has one comma
  }
}

TEST_F(CliRunTest, EnhancePrintsPlan) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"enhance", "--csv", csv_path_, "--tau", "10", "--lambda",
                 "2"},
                out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("Acquisition plan"), std::string::npos);
}

TEST_F(CliRunTest, EnhanceWithRule) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"enhance", "--csv", csv_path_, "--tau", "10", "--lambda",
                 "2", "--rule", "marital in {unknown}"},
                out, err),
            0)
      << err.str();
  // No suggested combination may use marital=unknown.
  EXPECT_EQ(out.str().find("marital=unknown  e.g."), std::string::npos);
}

TEST_F(CliRunTest, EnhanceRejectsBadRule) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"enhance", "--csv", csv_path_, "--rule", "nope nope"}, out,
                err),
            1);
  EXPECT_NE(err.str().find("bad --rule"), std::string::npos);
}

TEST_F(CliRunTest, EnhanceRejectsBadLambda) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"enhance", "--csv", csv_path_, "--lambda", "9"}, out, err),
            1);
}

TEST_F(CliRunTest, MissingFileReportsNotFound) {
  std::ostringstream out, err;
  EXPECT_EQ(::coverage::cli::Run({"audit", "--csv", "/nonexistent/file.csv"}, out, err), 1);
  EXPECT_NE(err.str().find("NotFound"), std::string::npos);
}

// ---------------------------------------------------- schema inference --

TEST(InferFromCsv, BuildsDictionaryInOrder) {
  std::stringstream ss("city,tier\nparis,a\nlyon,b\nparis,a\nnice,a\n");
  auto data = Dataset::InferFromCsv(ss);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_rows(), 4u);
  const Schema& schema = data->schema();
  EXPECT_EQ(schema.attribute(0).name, "city");
  EXPECT_EQ(schema.attribute(0).value_names,
            (std::vector<std::string>{"paris", "lyon", "nice"}));
  EXPECT_EQ(schema.attribute(1).value_names,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(data->at(2, 0), 0);  // paris again -> same code
}

TEST(InferFromCsv, RejectsHighCardinality) {
  std::stringstream ss("id\n1\n2\n3\n4\n");
  const auto result = Dataset::InferFromCsv(ss, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bucketize"), std::string::npos);
}

TEST(InferFromCsv, RejectsEmptyAndRagged) {
  {
    std::stringstream ss("");
    EXPECT_FALSE(Dataset::InferFromCsv(ss).ok());
  }
  {
    std::stringstream ss("a,b\n");  // header only
    EXPECT_FALSE(Dataset::InferFromCsv(ss).ok());
  }
  {
    std::stringstream ss("a,b\n1\n");
    EXPECT_FALSE(Dataset::InferFromCsv(ss).ok());
  }
  {
    std::stringstream ss("a,,c\n1,2,3\n");  // empty column name
    EXPECT_FALSE(Dataset::InferFromCsv(ss).ok());
  }
}

TEST(InferFromCsv, RoundTripsWriteCsv) {
  const auto compas = datagen::MakeCompas(500, 9);
  std::stringstream ss;
  ASSERT_TRUE(compas.data.WriteCsv(ss).ok());
  auto inferred = Dataset::InferFromCsv(ss);
  ASSERT_TRUE(inferred.ok());
  ASSERT_EQ(inferred->num_rows(), compas.data.num_rows());
  // Dictionaries may be ordered differently (first appearance), but the
  // decoded labels must agree row by row.
  for (std::size_t r = 0; r < compas.data.num_rows(); ++r) {
    for (int a = 0; a < 4; ++a) {
      const std::string& expected =
          compas.data.schema().attribute(a).value_names[static_cast<
              std::size_t>(compas.data.at(r, a))];
      const std::string& got =
          inferred->schema().attribute(a).value_names[static_cast<
              std::size_t>(inferred->at(r, a))];
      EXPECT_EQ(got, expected);
    }
  }
}

}  // namespace
}  // namespace cli
}  // namespace coverage
