#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "causaliot/graph/cpt.hpp"
#include "causaliot/graph/dig.hpp"

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

TEST_F(GraphFileTest, LoadRejectsCorruptHeader) {
  std::ofstream(path_) << "not a dig file\n";
  EXPECT_FALSE(InteractionGraph::load(path_.string()).ok());
}

// Untrusted model files: each malformed input is a parse_error, never a
// CHECK abort or an allocation sized by a lying header.
TEST_F(GraphFileTest, LoadRejectsHostileRecords) {
  const std::vector<std::pair<std::string, std::string>> cases = {
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
  for (const auto& [name, text] : cases) {
    std::ofstream(path_, std::ios::trunc) << text;
    const auto loaded = InteractionGraph::load(path_.string());
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.error().code, util::ErrorCode::kParseError) << name;
  }
}

TEST(InteractionGraph, LoadMissingFileFails) {
  EXPECT_FALSE(InteractionGraph::load("/no/such/file.dig").ok());
}

}  // namespace
}  // namespace causaliot::graph
