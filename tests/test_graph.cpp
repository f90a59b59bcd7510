#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "causaliot/graph/cpt.hpp"
#include "causaliot/graph/dig.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/rng.hpp"

namespace causaliot::graph {
namespace {

TEST(LaggedNode, CanonicalOrdering) {
  const LaggedNode a{3, 1};
  const LaggedNode b{1, 2};
  const LaggedNode c{2, 2};
  EXPECT_LT(a, b);  // smaller lag first
  EXPECT_LT(b, c);  // then smaller device
  EXPECT_EQ(a, (LaggedNode{3, 1}));
}

TEST(Cpt, PackFollowsCauseOrder) {
  const Cpt cpt({{0, 1}, {2, 1}, {1, 2}});
  const util::BitKey key = cpt.pack({1, 0, 1});
  EXPECT_TRUE(key.get(0));
  EXPECT_FALSE(key.get(1));
  EXPECT_TRUE(key.get(2));
}

TEST(Cpt, MaximumLikelihoodEstimates) {
  Cpt cpt({{0, 1}});
  const util::BitKey on = cpt.pack({1});
  // 80 observations of child=1, 20 of child=0 under cause=1.
  for (int i = 0; i < 80; ++i) cpt.observe(on, 1);
  for (int i = 0; i < 20; ++i) cpt.observe(on, 0);
  EXPECT_DOUBLE_EQ(cpt.probability(on, 1), 0.8);
  EXPECT_DOUBLE_EQ(cpt.probability(on, 0), 0.2);
  EXPECT_DOUBLE_EQ(cpt.support(on), 100.0);
}

TEST(Cpt, UnseenAssignmentIsZeroUnderMle) {
  Cpt cpt({{0, 1}});
  EXPECT_DOUBLE_EQ(cpt.probability(cpt.pack({1}), 1), 0.0);
  EXPECT_DOUBLE_EQ(cpt.support(cpt.pack({1})), 0.0);
}

TEST(Cpt, LaplaceSmoothing) {
  Cpt cpt({{0, 1}});
  const util::BitKey key = cpt.pack({0});
  // Unseen assignment with alpha: uniform 0.5.
  EXPECT_DOUBLE_EQ(cpt.probability(key, 1, 1.0), 0.5);
  // One observation: (1 + 1) / (1 + 2).
  cpt.observe(key, 1);
  EXPECT_NEAR(cpt.probability(key, 1, 1.0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cpt.probability(key, 0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(Cpt, EmptyCauseSetIsMarginal) {
  Cpt cpt(std::vector<LaggedNode>{});
  const util::BitKey key = cpt.pack({});
  cpt.observe(key, 1);
  cpt.observe(key, 1);
  cpt.observe(key, 0);
  EXPECT_NEAR(cpt.probability(key, 1), 2.0 / 3.0, 1e-12);
}

TEST(Cpt, SetCountsRestoresState) {
  Cpt cpt({{0, 1}});
  cpt.set_counts(1, 3.0, 7.0);
  EXPECT_DOUBLE_EQ(cpt.probability(util::BitKey::from_raw(1), 1), 0.7);
  EXPECT_EQ(cpt.assignment_count(), 1u);
}

InteractionGraph demo_graph() {
  InteractionGraph graph(4, 2);
  graph.set_causes(2, {{0, 1}, {1, 2}, {2, 1}});  // autocorr + two causes
  graph.set_causes(3, {{2, 1}});
  return graph;
}

TEST(InteractionGraph, EdgeQueries) {
  const InteractionGraph graph = demo_graph();
  EXPECT_EQ(graph.edge_count(), 4u);
  EXPECT_TRUE(graph.has_edge(0, 1, 2));
  EXPECT_TRUE(graph.has_edge(1, 2, 2));
  EXPECT_FALSE(graph.has_edge(1, 1, 2));
  EXPECT_TRUE(graph.has_interaction(1, 2));
  EXPECT_FALSE(graph.has_interaction(3, 2));
  EXPECT_TRUE(graph.has_interaction(2, 2));  // self loop via lag
}

TEST(InteractionGraph, ChildrenFanOut) {
  const InteractionGraph graph = demo_graph();
  EXPECT_EQ(graph.children(2), (std::vector<telemetry::DeviceId>{2, 3}));
  EXPECT_EQ(graph.children(0), (std::vector<telemetry::DeviceId>{2}));
  EXPECT_TRUE(graph.children(3).empty());
}

TEST(InteractionGraph, SetCausesCanonicalizesOrder) {
  InteractionGraph graph(3, 2);
  graph.set_causes(0, {{2, 2}, {1, 1}});
  EXPECT_EQ(graph.causes(0)[0], (LaggedNode{1, 1}));
  EXPECT_EQ(graph.causes(0)[1], (LaggedNode{2, 2}));
}

TEST(InteractionGraph, DotOutputNamesDevices) {
  telemetry::DeviceCatalog catalog;
  for (const char* name : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(catalog
                    .add({name, "room", telemetry::AttributeType::kSwitch,
                          telemetry::ValueType::kBinary})
                    .ok());
  }
  const std::string dot = demo_graph().to_dot(catalog);
  EXPECT_NE(dot.find("digraph DIG"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("d0 -> d2"), std::string::npos);
  EXPECT_NE(dot.find("lag 2"), std::string::npos);
}

class GraphFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() / "causaliot_dig.txt";
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(GraphFileTest, SaveLoadRoundTrip) {
  InteractionGraph graph = demo_graph();
  graph.cpt(2).observe(graph.cpt(2).pack({1, 0, 1}), 1);
  graph.cpt(2).observe(graph.cpt(2).pack({1, 0, 1}), 1);
  graph.cpt(2).observe(graph.cpt(2).pack({0, 0, 0}), 0);
  ASSERT_TRUE(graph.save(path_.string()).ok());

  const auto loaded = InteractionGraph::load(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().device_count(), 4u);
  EXPECT_EQ(loaded.value().max_lag(), 2u);
  EXPECT_EQ(loaded.value().causes(2), graph.causes(2));
  const util::BitKey key = graph.cpt(2).pack({1, 0, 1});
  EXPECT_DOUBLE_EQ(loaded.value().cpt(2).probability(key, 1),
                   graph.cpt(2).probability(key, 1));
  EXPECT_DOUBLE_EQ(loaded.value().cpt(2).support(key), 2.0);
}

TEST_F(GraphFileTest, SaveKeepsLargeAndFractionalCountsExact) {
  // 1234567 has 7 significant digits and 0.1234567 is what a decayed
  // table holds; both must survive save/load bit for bit.
  InteractionGraph graph = demo_graph();
  const util::BitKey key = graph.cpt(2).pack({1, 0, 1});
  graph.cpt(2).set_counts(key.raw(), 1234567.0, 0.1234567);
  ASSERT_TRUE(graph.save(path_.string()).ok());

  const auto loaded = InteractionGraph::load(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().cpt(2).counts(), graph.cpt(2).counts());
  EXPECT_EQ(loaded.value().cpt(2).support(key), 1234567.0 + 0.1234567);
}

TEST_F(GraphFileTest, LoadRejectsCorruptHeader) {
  std::ofstream(path_) << "not a dig file\n";
  EXPECT_FALSE(InteractionGraph::load(path_.string()).ok());
}

// Hand-found malformed model files (also the hostile half of the
// mutation corpus below).
const std::vector<std::pair<std::string, std::string>> kHostileRecords = {
    {"zero max_lag", "dig v1 2 0\n"},
    {"cause device out of range",
     "dig v1 2 1\nchild 0 1\n  cause 5 1\n  entries 0\n"},
    {"cause lag zero",
     "dig v1 2 1\nchild 0 1\n  cause 1 0\n  entries 0\n"},
    {"cause lag above max_lag",
     "dig v1 2 1\nchild 0 1\n  cause 1 2\n  entries 0\n"},
    {"duplicate cause",
     "dig v1 2 1\nchild 0 2\n  cause 1 1\n  cause 1 1\n  entries 0\n"},
    {"negative count",
     "dig v1 1 1\nchild 0 0\n  entries 1\n    0 -1 2\n"},
    {"more than 64 causes", "dig v1 2 1\nchild 0 65\n"},
    {"huge device count", "dig v1 999999999999 1\n"},
    {"child out of order", "dig v1 2 1\nchild 1 0\n  entries 0\n"},
};

// Untrusted model files: each malformed input is a parse_error, never a
// CHECK abort or an allocation sized by a lying header.
TEST_F(GraphFileTest, LoadRejectsHostileRecords) {
  for (const auto& [name, text] : kHostileRecords) {
    std::ofstream(path_, std::ios::trunc) << text;
    const auto loaded = InteractionGraph::load(path_.string());
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.error().code, util::ErrorCode::kParseError) << name;
  }
}

// --- Seeded mutation harness over InteractionGraph::load ---

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// save() bytes of a small mined graph: 0 drives 1 drives 2 at lag 1,
// mined with real CPT counts.
std::string mined_dig_bytes(const std::filesystem::path& path) {
  util::Rng rng(7);
  preprocess::StateSeries series(3, {0, 0, 0});
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    series.apply({0, static_cast<std::uint8_t>(rng.uniform(2)), t += 1});
    series.apply({1, series.state(0, series.length() - 1), t += 1});
    series.apply({2, series.state(1, series.length() - 1), t += 1});
  }
  mining::MinerConfig config;
  config.max_lag = 2;
  CAUSALIOT_CHECK(
      mining::InteractionMiner(config).mine(series).save(path.string()).ok());
  return read_bytes(path);
}

// Tokens an insert or overwrite may splice in: record tags, numbers at
// the edges of their types, and separators.
const char* const kDigTokens[] = {
    "dig", "v1", "child", "cause", "entries", " ", "\n", "\t", "0", "1",
    "2", "64", "65", "-1", "-0", "0.5", "1e-400", "1e999", "nan", "inf",
    "4294967295", "4294967296", "18446744073709551615",
    "18446744073709551616", "999999999999", "  cause 0 1\n",
    "  entries 1\n    3 1 2\n", "child 1 0\n  entries 0\n"};

std::string mutate_dig(const std::string& bytes, util::Rng& rng) {
  std::string out = bytes;
  const int steps = 1 + static_cast<int>(rng.uniform(3));
  for (int step = 0; step < steps; ++step) {
    const std::size_t at = rng.uniform(out.size() + 1);
    const char* token = kDigTokens[rng.uniform(std::size(kDigTokens))];
    switch (rng.uniform(5)) {
      case 0:  // byte flip
        if (!out.empty()) {
          out[at % out.size()] ^= static_cast<char>(1u << rng.uniform(8));
        }
        break;
      case 1:  // insert a random byte or a token
        if (rng.bernoulli(0.5)) {
          out.insert(at, 1, static_cast<char>(rng.uniform(256)));
        } else {
          out.insert(at, token);
        }
        break;
      case 2:  // delete a short run
        out.erase(at, 1 + rng.uniform(8));
        break;
      case 3:  // truncate
        out.resize(at);
        break;
      case 4:  // overwrite a short run with a token
        out.replace(at, 1 + rng.uniform(4), token);
        break;
    }
  }
  return out;
}

// load() on arbitrary bytes returns a graph or parse_error, never aborts
// or throws; whatever it accepts saves and reloads to the same bytes.
TEST_F(GraphFileTest, MutatedFilesLoadOrFailCleanly) {
  constexpr std::uint64_t kSeed = 20230627;
  constexpr int kIterations = 6000;
  const std::filesystem::path resaved = path_.string() + ".resaved";
  const std::filesystem::path reloaded = path_.string() + ".reloaded";
  std::vector<std::string> corpus = {mined_dig_bytes(path_)};
  ASSERT_NE(corpus[0].find("  cause "), std::string::npos);
  for (const auto& [name, text] : kHostileRecords) corpus.push_back(text);

  util::Rng rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    // Half the mutants start from the mined file, which loads; the
    // hostile fixtures each fail in one spot a mutation may repair.
    const std::string& seed =
        rng.bernoulli(0.5) ? corpus[0] : corpus[rng.uniform(corpus.size())];
    const std::string bytes = mutate_dig(seed, rng);
    SCOPED_TRACE(testing::Message() << "iteration " << iteration << ": "
                                    << testing::PrintToString(bytes));
    std::ofstream(path_, std::ios::binary | std::ios::trunc) << bytes;
    util::Result<InteractionGraph> loaded = util::Error::parse_error("unset");
    ASSERT_NO_THROW(loaded = InteractionGraph::load(path_.string()));
    if (!loaded.ok()) {
      ++rejected;
      ASSERT_EQ(loaded.error().code, util::ErrorCode::kParseError)
          << loaded.error().to_string();
      continue;
    }
    ++accepted;
    ASSERT_TRUE(loaded->save(resaved.string()).ok());
    const auto again = InteractionGraph::load(resaved.string());
    ASSERT_TRUE(again.ok()) << again.error().to_string();
    ASSERT_TRUE(again->save(reloaded.string()).ok());
    ASSERT_EQ(read_bytes(reloaded), read_bytes(resaved));
  }
  std::filesystem::remove(resaved);
  std::filesystem::remove(reloaded);
  // The mutations must reach both outcomes.
  EXPECT_GT(accepted, kIterations / 100);
  EXPECT_GT(rejected, kIterations / 2);
}

TEST(InteractionGraph, LoadMissingFileFails) {
  EXPECT_FALSE(InteractionGraph::load("/no/such/file.dig").ok());
}

}  // namespace
}  // namespace causaliot::graph
