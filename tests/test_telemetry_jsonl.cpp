#include "causaliot/telemetry/jsonl.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace causaliot::telemetry {
namespace {

DeviceCatalog catalog_ab() {
  DeviceCatalog catalog;
  EXPECT_TRUE(catalog
                  .add({"pe_kitchen", "kitchen",
                        AttributeType::kPresenceSensor, ValueType::kBinary})
                  .ok());
  EXPECT_TRUE(catalog
                  .add({"bright", "kitchen",
                        AttributeType::kBrightnessSensor,
                        ValueType::kAmbientNumeric})
                  .ok());
  return catalog;
}

TEST(Jsonl, ParsesCanonicalLine) {
  const auto event = parse_jsonl_event(
      R"({"timestamp": 12.5, "device": "pe_kitchen", "value": 1})",
      catalog_ab());
  ASSERT_TRUE(event.ok());
  EXPECT_DOUBLE_EQ(event->timestamp, 12.5);
  EXPECT_EQ(event->device, 0u);
  EXPECT_DOUBLE_EQ(event->value, 1.0);
}

TEST(Jsonl, FieldOrderAndExtrasAreIrrelevant) {
  const auto event = parse_jsonl_event(
      R"({"value": 83.25, "source": "mqtt", "device": "bright", )"
      R"("timestamp": 7})",
      catalog_ab());
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->device, 1u);
  EXPECT_DOUBLE_EQ(event->value, 83.25);
}

TEST(Jsonl, EscapedStringsParse) {
  DeviceCatalog catalog;
  ASSERT_TRUE(catalog
                  .add({"weird \"name\"", "x", AttributeType::kSwitch,
                        ValueType::kBinary})
                  .ok());
  const auto event = parse_jsonl_event(
      R"({"timestamp": 1, "device": "weird \"name\"", "value": 0})",
      catalog);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->device, 0u);
}

TEST(Jsonl, NegativeAndScientificNumbers) {
  const auto event = parse_jsonl_event(
      R"({"timestamp": 1e3, "device": "bright", "value": -2.5})",
      catalog_ab());
  ASSERT_TRUE(event.ok());
  EXPECT_DOUBLE_EQ(event->timestamp, 1000.0);
  EXPECT_DOUBLE_EQ(event->value, -2.5);
}

TEST(Jsonl, RejectsMalformedLines) {
  const DeviceCatalog catalog = catalog_ab();
  for (const char* bad : {
           "not json",
           R"({"timestamp": 1, "device": "pe_kitchen")",       // no close
           R"({"timestamp": 1, "device": "pe_kitchen"} junk)",  // trailing
           R"({"timestamp": 1, "value": 0})",                   // no device
           R"({"device": "pe_kitchen", "value": 0})",           // no ts
           R"({"timestamp": 1, "device": "ghost", "value": 0})",  // unknown
           R"({"timestamp": "1", "device": "pe_kitchen", "value": 0})",
           R"({"timestamp": nan, "device": "pe_kitchen", "value": 1})",
           R"({"timestamp": 1, "device": "pe_kitchen", "value": inf})",
           R"({"timestamp": 1, "device": "pe_kitchen", "value": 1, "x": nan})",
       }) {
    EXPECT_FALSE(parse_jsonl_event(bad, catalog).ok()) << bad;
  }
}

TEST(Jsonl, FormatParsesBack) {
  const DeviceCatalog catalog = catalog_ab();
  const DeviceEvent original{42.125, 1, 73.5};
  const auto back =
      parse_jsonl_event(format_jsonl_event(original, catalog), catalog);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->device, original.device);
  EXPECT_DOUBLE_EQ(back->value, original.value);
  EXPECT_NEAR(back->timestamp, original.timestamp, 1e-3);

  // Names that need escaping survive the round trip too.
  DeviceCatalog odd;
  for (const char* name : {"weird \"name\"", "tab\there", "back\\slash"}) {
    ASSERT_TRUE(
        odd.add({name, "x", AttributeType::kSwitch, ValueType::kBinary}).ok());
  }
  for (DeviceId id = 0; id < odd.size(); ++id) {
    const std::string line = format_jsonl_event({1.0, id, 1.0}, odd);
    const auto parsed = parse_jsonl_event(line, odd);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->device, id) << line;
  }
}

class JsonlFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() / "causaliot_trace.jsonl";
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(JsonlFileTest, SaveLoadRoundTrip) {
  EventLog log(catalog_ab());
  log.append({1.0, 0, 1.0});
  log.append({2.5, 1, 80.0});
  log.append({3.0, 0, 0.0});
  ASSERT_TRUE(save_jsonl(log, path_.string()).ok());
  const auto loaded = load_jsonl(path_.string(), catalog_ab());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->events()[1].device, 1u);
  EXPECT_DOUBLE_EQ(loaded->events()[1].value, 80.0);
}

TEST_F(JsonlFileTest, BlankLinesSkippedErrorsCarryLineNumber) {
  std::ofstream out(path_);
  out << R"({"timestamp": 1, "device": "pe_kitchen", "value": 1})" << "\n";
  out << "\n";
  out << "garbage\n";
  out.close();
  const auto loaded = load_jsonl(path_.string(), catalog_ab());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("line 3"), std::string::npos);
}

TEST(Jsonl, MissingFileIsIoError) {
  EXPECT_FALSE(load_jsonl("/no/such/file.jsonl", catalog_ab()).ok());
}

}  // namespace
}  // namespace causaliot::telemetry
