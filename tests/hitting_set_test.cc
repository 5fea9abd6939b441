#include "enhancement/hitting_set.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "coverage/bitmap_coverage.h"
#include "datagen/airbnb.h"
#include "datagen/bluenile.h"
#include "datagen/compas.h"
#include "enhancement/expansion.h"
#include "mups/mups.h"
#include "server/json.h"

namespace coverage {
namespace {

Pattern P(const std::string& text, const Schema& schema) {
  auto p = Pattern::Parse(text, schema);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

Schema Example2Schema() { return Schema::Uniform({2, 3, 3, 2, 2}); }

std::vector<Pattern> Example2LevelTwo(const Schema& schema) {
  // P1..P6 of Example 2 (the λ=2 targets of §IV).
  return {P("XX01X", schema), P("1X20X", schema), P("XXXX1", schema),
          P("02XXX", schema), P("XX11X", schema), P("111XX", schema)};
}

/// newly_hit[k] must list exactly the patterns pick k matches and no earlier
/// pick does, so the lists and the unresolvable set partition the input.
void ExpectNewlyHitPartition(const std::vector<Pattern>& patterns,
                             const HittingSetResult& result) {
  ASSERT_EQ(result.newly_hit.size(), result.combinations.size());
  std::vector<bool> hit(patterns.size(), false);
  for (std::size_t k = 0; k < result.combinations.size(); ++k) {
    std::vector<std::size_t> expected;
    for (std::size_t j = 0; j < patterns.size(); ++j) {
      if (!hit[j] && patterns[j].Matches(result.combinations[k])) {
        expected.push_back(j);
        hit[j] = true;
      }
    }
    EXPECT_EQ(result.newly_hit[k], expected) << "pick " << k;
    EXPECT_EQ(result.newly_hit[k].size(), result.gains[k]) << "pick " << k;
  }
  std::vector<Pattern> missed;
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    if (!hit[j]) missed.push_back(patterns[j]);
  }
  EXPECT_EQ(missed, result.unresolvable);
}

TEST(GreedyHittingSet, Example2NeedsExactlyThreeCombinations) {
  // The paper's run picks 02011, 02111, 10201: first pick hits 3 patterns
  // (the maximum), and three picks suffice. Tie-breaking may differ, but
  // the gain sequence 3, 2, 1 is forced for any greedy maximiser.
  const Schema schema = Example2Schema();
  const auto patterns = Example2LevelTwo(schema);
  HittingSetStats stats;
  const HittingSetResult result =
      GreedyHittingSet(patterns, schema, nullptr, &stats);
  ASSERT_EQ(result.combinations.size(), 3u);
  EXPECT_EQ(result.gains, (std::vector<std::size_t>{3, 2, 1}));
  EXPECT_TRUE(result.unresolvable.empty());
  EXPECT_TRUE(ValidateHittingSet(patterns, result, schema).ok());
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_GT(stats.tree_nodes_visited, 0u);
}

TEST(GreedyHittingSet, Example2FirstPickHitsThreeCompatiblePatterns) {
  // The paper's run picks 02011 (hitting P1, P3, P4). Several 3-compatible
  // families exist ({P1,P3,P4}, {P3,P4,P5}, {P3,P5,P6}), so assert the
  // greedy property — the first pick hits exactly three patterns — rather
  // than one tie-break.
  const Schema schema = Example2Schema();
  const auto patterns = Example2LevelTwo(schema);
  const HittingSetResult result = GreedyHittingSet(patterns, schema);
  ASSERT_FALSE(result.combinations.empty());
  const auto& first = result.combinations[0];
  int hits = 0;
  for (const Pattern& p : patterns) hits += p.Matches(first);
  EXPECT_EQ(hits, 3);
  // And the paper's 02011 indeed hits three patterns too.
  const std::vector<Value> paper_pick = {0, 2, 0, 1, 1};
  int paper_hits = 0;
  for (const Pattern& p : patterns) paper_hits += p.Matches(paper_pick);
  EXPECT_EQ(paper_hits, 3);
}

TEST(GreedyHittingSet, GeneralizedPatternsDescribeThePick) {
  const Schema schema = Example2Schema();
  const auto patterns = Example2LevelTwo(schema);
  const HittingSetResult result = GreedyHittingSet(patterns, schema);
  ASSERT_EQ(result.generalized.size(), result.combinations.size());
  for (std::size_t k = 0; k < result.combinations.size(); ++k) {
    // The generalized pattern must match its own pick, and every pattern the
    // pick *newly* hits must dominate-or-equal the generalized pattern (so
    // any combination matching it hits the same patterns).
    EXPECT_TRUE(result.generalized[k].Matches(result.combinations[k]));
    for (const Pattern& p : patterns) {
      if (!p.Matches(result.combinations[k])) continue;
      bool hit_earlier = false;
      for (std::size_t e = 0; e < k; ++e) {
        hit_earlier = hit_earlier || p.Matches(result.combinations[e]);
      }
      if (hit_earlier) continue;
      EXPECT_TRUE(p.DominatesOrEquals(result.generalized[k]))
          << p.ToString() << " vs " << result.generalized[k].ToString();
    }
  }
}

TEST(GreedyHittingSet, SinglePatternSinglePick) {
  const Schema schema = Schema::Binary(3);
  const HittingSetResult result =
      GreedyHittingSet({P("1X0", schema)}, schema);
  ASSERT_EQ(result.combinations.size(), 1u);
  EXPECT_TRUE(P("1X0", schema).Matches(result.combinations[0]));
  EXPECT_EQ(result.gains, (std::vector<std::size_t>{1}));
}

TEST(GreedyHittingSet, EmptyInputYieldsEmptyResult) {
  const Schema schema = Schema::Binary(3);
  const HittingSetResult result = GreedyHittingSet({}, schema);
  EXPECT_TRUE(result.combinations.empty());
  EXPECT_TRUE(result.unresolvable.empty());
}

TEST(GreedyHittingSet, OneCombinationCanHitEverything) {
  // Compatible patterns collapse into a single pick.
  const Schema schema = Schema::Binary(4);
  const std::vector<Pattern> patterns = {P("1XXX", schema), P("X1XX", schema),
                                         P("XX1X", schema), P("XXX1", schema)};
  const HittingSetResult result = GreedyHittingSet(patterns, schema);
  ASSERT_EQ(result.combinations.size(), 1u);
  EXPECT_EQ(result.combinations[0], (std::vector<Value>{1, 1, 1, 1}));
  EXPECT_EQ(result.generalized[0].ToString(), "1111");
}

TEST(GreedyHittingSet, DisjointPatternsNeedOneEach) {
  const Schema schema = Schema::Uniform({3, 2});
  const std::vector<Pattern> patterns = {P("0X", schema), P("1X", schema),
                                         P("2X", schema)};
  const HittingSetResult result = GreedyHittingSet(patterns, schema);
  EXPECT_EQ(result.combinations.size(), 3u);
}

TEST(GreedyHittingSet, ValidationRulesRedirectPicks) {
  const Schema schema = Schema::Binary(3);
  ValidationOracle oracle;
  // Forbid A1=1 & A2=1: the all-ones pick is invalid.
  oracle.AddRule(*ValidationRule::Create({{0, {1}}, {1, {1}}}, schema));
  const std::vector<Pattern> patterns = {P("1XX", schema), P("X1X", schema),
                                         P("XX1", schema)};
  HittingSetStats stats;
  const HittingSetResult result =
      GreedyHittingSet(patterns, schema, &oracle, &stats);
  EXPECT_TRUE(result.unresolvable.empty());
  EXPECT_EQ(result.combinations.size(), 2u);  // e.g. 101 + X1X pick
  EXPECT_TRUE(ValidateHittingSet(patterns, result, schema, &oracle).ok());
}

TEST(GreedyHittingSet, ImpossiblePatternsReportedUnresolvable) {
  const Schema schema = Schema::Binary(2);
  ValidationOracle oracle;
  // Forbid everything with A1=1.
  oracle.AddRule(*ValidationRule::Create({{0, {1}}}, schema));
  const std::vector<Pattern> patterns = {P("1X", schema), P("0X", schema)};
  const HittingSetResult result =
      GreedyHittingSet(patterns, schema, &oracle, nullptr);
  ASSERT_EQ(result.unresolvable.size(), 1u);
  EXPECT_EQ(result.unresolvable[0].ToString(), "1X");
  ASSERT_EQ(result.combinations.size(), 1u);
  EXPECT_TRUE(ValidateHittingSet(patterns, result, schema, &oracle).ok());
}

TEST(GreedyHittingSet, AllPatternsUnresolvable) {
  const Schema schema = Schema::Binary(2);
  ValidationOracle oracle;
  oracle.AddRule(*ValidationRule::Create({{0, {0, 1}}}, schema));  // all
  const std::vector<Pattern> patterns = {P("1X", schema)};
  const HittingSetResult result =
      GreedyHittingSet(patterns, schema, &oracle, nullptr);
  EXPECT_TRUE(result.combinations.empty());
  EXPECT_EQ(result.unresolvable.size(), 1u);
}

TEST(NaiveGreedy, AgreesWithIndexedGreedyOnGains) {
  // The two implementations may tie-break differently but must produce the
  // same gain sequence and pick count (greedy is deterministic up to ties
  // in this metric).
  const Schema schema = Example2Schema();
  const auto patterns = Example2LevelTwo(schema);
  const HittingSetResult fast = GreedyHittingSet(patterns, schema);
  auto naive = NaiveGreedyHittingSet(patterns, schema);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->combinations.size(), fast.combinations.size());
  EXPECT_EQ(naive->gains, fast.gains);
  EXPECT_TRUE(ValidateHittingSet(patterns, *naive, schema).ok());
}

TEST(NaiveGreedy, RespectsEnumerationLimit) {
  const Schema schema = Schema::Binary(30);
  const auto result = NaiveGreedyHittingSet({Pattern::Root(30)}, schema,
                                            nullptr, nullptr, 1000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(NaiveGreedy, HonoursValidationOracle) {
  const Schema schema = Schema::Binary(2);
  ValidationOracle oracle;
  oracle.AddRule(*ValidationRule::Create({{0, {1}}}, schema));
  const std::vector<Pattern> patterns = {P("1X", schema), P("0X", schema)};
  auto result = NaiveGreedyHittingSet(patterns, schema, &oracle);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unresolvable.size(), 1u);
  EXPECT_TRUE(ValidateHittingSet(patterns, *result, schema, &oracle).ok());
}

TEST(GreedyHittingSet, RandomizedEquivalenceWithNaive) {
  // Property sweep: on random pattern sets over random schemas (2-5
  // attributes, cardinalities 2-10), with and without random validation
  // rules, the indexed greedy and the naive greedy agree on the first gain
  // (the global maximum) and on the unresolvable targets, and both
  // solutions are complete and valid.
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int d = static_cast<int>(rng.NextInt(2, 5));
    std::vector<int> cards;
    for (int a = 0; a < d; ++a) {
      cards.push_back(static_cast<int>(rng.NextInt(2, 10)));
    }
    const Schema schema = Schema::Uniform(cards);
    auto random_value = [&](int a) {
      return static_cast<Value>(rng.NextUint64(
          static_cast<std::uint64_t>(cards[static_cast<std::size_t>(a)])));
    };
    std::vector<Pattern> patterns;
    const int m = 2 + static_cast<int>(rng.NextUint64(40));
    for (int j = 0; j < m; ++j) {
      std::vector<Value> cells(static_cast<std::size_t>(d), kWildcard);
      for (int a = 0; a < d; ++a) {
        if (rng.NextBool(0.5)) {
          cells[static_cast<std::size_t>(a)] = random_value(a);
        }
      }
      patterns.emplace_back(std::move(cells));
    }
    ValidationOracle validator;
    const int num_rules =
        trial % 2 == 0 ? 0 : 1 + static_cast<int>(rng.NextUint64(3));
    for (int r = 0; r < num_rules; ++r) {
      std::vector<ValidationRule::Term> terms;
      for (int a = 0; a < d; ++a) {
        if (!rng.NextBool(0.4)) continue;
        std::vector<Value> values = {random_value(a)};
        if (rng.NextBool(0.5)) values.push_back(random_value(a));
        terms.push_back({a, std::move(values)});
      }
      if (terms.empty()) terms.push_back({0, {random_value(0)}});
      auto rule = ValidationRule::Create(std::move(terms), schema);
      ASSERT_TRUE(rule.ok()) << rule.status().ToString();
      validator.AddRule(*rule);
    }
    const ValidationOracle* oracle = num_rules > 0 ? &validator : nullptr;
    const HittingSetResult fast = GreedyHittingSet(patterns, schema, oracle);
    auto naive = NaiveGreedyHittingSet(patterns, schema, oracle);
    ASSERT_TRUE(naive.ok());
    // The first gain is the global maximum and must agree; later gains can
    // differ across tie-breaks, but both solutions must be complete.
    EXPECT_EQ(fast.gains.empty(), naive->gains.empty()) << "trial " << trial;
    if (!fast.gains.empty() && !naive->gains.empty()) {
      EXPECT_EQ(fast.gains[0], naive->gains[0]) << "trial " << trial;
    }
    EXPECT_EQ(fast.unresolvable, naive->unresolvable) << "trial " << trial;
    EXPECT_TRUE(ValidateHittingSet(patterns, fast, schema, oracle).ok());
    EXPECT_TRUE(ValidateHittingSet(patterns, *naive, schema, oracle).ok());
    ExpectNewlyHitPartition(patterns, fast);
    ExpectNewlyHitPartition(patterns, *naive);
    // Logarithmic-ratio sanity: greedy needs at most m picks.
    EXPECT_LE(fast.combinations.size(), patterns.size());
  }
}

TEST(GreedyHittingSet, GainsAreNonIncreasing) {
  // Greedy gains never increase: each pick maximises over a shrinking set.
  const Schema schema = Schema::Uniform({3, 3, 2});
  const std::vector<Pattern> patterns = {
      P("0XX", schema), P("X0X", schema), P("XX0", schema), P("1XX", schema),
      P("X1X", schema), P("21X", schema), P("20X", schema)};
  const HittingSetResult result = GreedyHittingSet(patterns, schema);
  for (std::size_t k = 1; k < result.gains.size(); ++k) {
    EXPECT_LE(result.gains[k], result.gains[k - 1]);
  }
  EXPECT_TRUE(ValidateHittingSet(patterns, result, schema).ok());
}

// ------------------------------------------------------------ plan golden --
//
// tests/golden/enhance_plans_v1.json pins the full GREEDY output (picks,
// generalisations, gains, unresolvable targets, tree nodes visited) on
// seeded instances, so a solver rewrite must reproduce it byte for byte.
// Regenerate only after an intentional change to the greedy's tie-breaks or
// pruning: COVERAGE_UPDATE_GOLDEN=1 ./build/hitting_set_test

struct PlanInstance {
  std::string name;
  Dataset data;
  std::uint64_t tau;
  int lambda;
  std::vector<std::string> rules;
};

std::vector<PlanInstance> GoldenInstances() {
  const Dataset compas = datagen::MakeCompas().data;
  return {
      {"compas_tau10_l2", compas, 10, 2, {}},
      {"compas_tau10_l2_rules",
       compas,
       10,
       2,
       {"marital in {unknown}",
        "age in {<20} and marital in {married, separated, widowed, "
        "sig-other, divorced}"}},
      {"airbnb_n20k_d10_tau50_l3", datagen::MakeAirbnb(20000, 10), 50, 3, {}},
      {"bluenile_n20k_tau50_l2", datagen::MakeBlueNile(20000), 50, 2, {}},
      // The dense λ=5 plan of the repository benchmark's audit workload
      // (seed 1): ~10k targets and dozens of picks with a long gain tail.
      {"airbnb_n100k_d12_tau100_l5", datagen::MakeAirbnb(100000, 12, 1), 100,
       5, {}},
  };
}

json::JsonValue Strings(const std::vector<Pattern>& patterns) {
  json::JsonValue::Array out;
  for (const Pattern& p : patterns) out.emplace_back(p.ToString());
  return out;
}

json::JsonValue SolveToJson(const PlanInstance& instance) {
  const Schema& schema = instance.data.schema();
  const AggregatedData agg(instance.data);
  const BitmapCoverage oracle(agg);
  const auto mups = FindMupsDeepDiver(
      oracle,
      MupSearchOptions{.tau = instance.tau, .max_level = instance.lambda});
  auto targets = UncoveredPatternsAtLevel(mups, schema, instance.lambda,
                                          std::uint64_t{1} << 26);
  EXPECT_TRUE(targets.ok()) << targets.status().ToString();
  ValidationOracle validator;
  for (const std::string& text : instance.rules) {
    validator.AddRule(*ValidationRule::Parse(text, schema));
  }
  HittingSetStats stats;
  const HittingSetResult result = GreedyHittingSet(
      *targets, schema, instance.rules.empty() ? nullptr : &validator, &stats);
  ExpectNewlyHitPartition(*targets, result);

  std::vector<Pattern> combinations;
  for (const auto& c : result.combinations) {
    combinations.push_back(Pattern::FromTuple(c));
  }
  json::JsonValue::Array gains;
  for (std::size_t g : result.gains) {
    gains.emplace_back(static_cast<std::uint64_t>(g));
  }
  json::JsonValue::Object out;
  out["targets"] = static_cast<std::uint64_t>(targets->size());
  out["combinations"] = Strings(combinations);
  out["generalized"] = Strings(result.generalized);
  out["gains"] = std::move(gains);
  out["unresolvable"] = Strings(result.unresolvable);
  out["iterations"] = stats.iterations;
  out["tree_nodes_visited"] = stats.tree_nodes_visited;
  return out;
}

TEST(GreedyHittingSet, PlansMatchGolden) {
  json::JsonValue::Object actual;
  for (const PlanInstance& instance : GoldenInstances()) {
    actual[instance.name] = SolveToJson(instance);
  }
  const std::string path =
      std::string(COVERAGE_REPO_DIR) + "/tests/golden/enhance_plans_v1.json";
  if (std::getenv("COVERAGE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << json::SerializePretty(actual);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate per tests/golden/README.md)";
  std::stringstream text;
  text << in.rdbuf();
  auto expected = json::Parse(text.str());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->AsObject().size(), actual.size());
  for (const auto& [name, plan] : actual) {
    const json::JsonValue* want = expected->Find(name);
    ASSERT_NE(want, nullptr) << "golden lacks instance " << name;
    for (const auto& [key, value] : plan.AsObject()) {
      const json::JsonValue* field = want->Find(key);
      ASSERT_NE(field, nullptr) << name << " lacks " << key;
      EXPECT_EQ(json::Serialize(value), json::Serialize(*field))
          << name << "." << key << " drifted from the golden";
    }
  }
}

}  // namespace
}  // namespace coverage
