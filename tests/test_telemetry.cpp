#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "causaliot/telemetry/device.hpp"
#include "causaliot/telemetry/event.hpp"

namespace causaliot::telemetry {
namespace {

DeviceCatalog small_catalog() {
  DeviceCatalog catalog;
  EXPECT_TRUE(catalog
                  .add({"switch_a", "living", AttributeType::kSwitch,
                        ValueType::kBinary})
                  .ok());
  EXPECT_TRUE(catalog
                  .add({"bright_a", "living",
                        AttributeType::kBrightnessSensor,
                        ValueType::kAmbientNumeric})
                  .ok());
  return catalog;
}

TEST(DeviceCatalog, AssignsDenseIds) {
  DeviceCatalog catalog = small_catalog();
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.find("switch_a").value(), 0u);
  EXPECT_EQ(catalog.find("bright_a").value(), 1u);
}

TEST(DeviceCatalog, RejectsDuplicateNames) {
  DeviceCatalog catalog = small_catalog();
  EXPECT_FALSE(catalog.add({"switch_a", "kitchen", AttributeType::kSwitch,
                            ValueType::kBinary})
                   .ok());
}

TEST(DeviceCatalog, RejectsEmptyName) {
  DeviceCatalog catalog;
  EXPECT_FALSE(
      catalog.add({"", "x", AttributeType::kSwitch, ValueType::kBinary})
          .ok());
}

TEST(DeviceCatalog, FindMissingIsNotFound) {
  DeviceCatalog catalog = small_catalog();
  const auto result = catalog.find("ghost");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::ErrorCode::kNotFound);
  EXPECT_FALSE(catalog.contains("ghost"));
}

TEST(DeviceCatalog, DevicesOfTypeFilters) {
  DeviceCatalog catalog = small_catalog();
  EXPECT_EQ(catalog.devices_of_type(AttributeType::kSwitch),
            std::vector<DeviceId>{0});
  EXPECT_TRUE(catalog.devices_of_type(AttributeType::kDimmer).empty());
}

TEST(Attributes, AbbreviationsMatchTableI) {
  EXPECT_EQ(attribute_abbreviation(AttributeType::kSwitch), "S");
  EXPECT_EQ(attribute_abbreviation(AttributeType::kPresenceSensor), "PE");
  EXPECT_EQ(attribute_abbreviation(AttributeType::kContactSensor), "C");
  EXPECT_EQ(attribute_abbreviation(AttributeType::kDimmer), "D");
  EXPECT_EQ(attribute_abbreviation(AttributeType::kWaterMeter), "W");
  EXPECT_EQ(attribute_abbreviation(AttributeType::kPowerSensor), "P");
  EXPECT_EQ(attribute_abbreviation(AttributeType::kBrightnessSensor), "B");
}

TEST(Attributes, DefaultValueTypesMatchTableI) {
  EXPECT_EQ(default_value_type(AttributeType::kSwitch), ValueType::kBinary);
  EXPECT_EQ(default_value_type(AttributeType::kPresenceSensor),
            ValueType::kBinary);
  EXPECT_EQ(default_value_type(AttributeType::kDimmer),
            ValueType::kResponsiveNumeric);
  EXPECT_EQ(default_value_type(AttributeType::kWaterMeter),
            ValueType::kResponsiveNumeric);
  EXPECT_EQ(default_value_type(AttributeType::kPowerSensor),
            ValueType::kResponsiveNumeric);
  EXPECT_EQ(default_value_type(AttributeType::kBrightnessSensor),
            ValueType::kAmbientNumeric);
}

TEST(Attributes, ActuatorEligibility) {
  // §VI-A: brightness and presence sensors cannot be action devices.
  EXPECT_TRUE(is_actuator(AttributeType::kSwitch));
  EXPECT_TRUE(is_actuator(AttributeType::kDimmer));
  EXPECT_FALSE(is_actuator(AttributeType::kBrightnessSensor));
  EXPECT_FALSE(is_actuator(AttributeType::kPresenceSensor));
  EXPECT_FALSE(is_actuator(AttributeType::kContactSensor));
}

TEST(EventLog, AppendAndInterEventGap) {
  EventLog log(small_catalog());
  log.append({0.0, 0, 1.0});
  log.append({10.0, 1, 55.0});
  log.append({20.0, 0, 0.0});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log.mean_inter_event_seconds(), 10.0);
}

TEST(EventLog, GapUndefinedBelowTwoEvents) {
  EventLog log(small_catalog());
  EXPECT_DOUBLE_EQ(log.mean_inter_event_seconds(), 0.0);
  log.append({5.0, 0, 1.0});
  EXPECT_DOUBLE_EQ(log.mean_inter_event_seconds(), 0.0);
}

TEST(EventLog, SortByTimeIsStable) {
  EventLog log(small_catalog());
  log.append({5.0, 0, 1.0});
  log.append({1.0, 1, 2.0});
  log.append({5.0, 1, 3.0});  // ties keep insertion order
  EXPECT_FALSE(log.is_time_ordered());
  log.sort_by_time();
  EXPECT_TRUE(log.is_time_ordered());
  EXPECT_EQ(log.events()[0].device, 1u);
  EXPECT_EQ(log.events()[1].device, 0u);
  EXPECT_DOUBLE_EQ(log.events()[2].value, 3.0);
}

class EventLogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() / "causaliot_events.csv";
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(EventLogFileTest, SaveLoadRoundTrip) {
  EventLog log(small_catalog());
  log.append({0.5, 0, 1.0});
  log.append({2.25, 1, 73.5});
  ASSERT_TRUE(log.save_csv(path_.string()).ok());

  const auto loaded = EventLog::load_csv(path_.string(), small_catalog());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().events()[0].device, 0u);
  EXPECT_DOUBLE_EQ(loaded.value().events()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(loaded.value().events()[1].value, 73.5);
  EXPECT_NEAR(loaded.value().events()[1].timestamp, 2.25, 1e-3);
}

TEST_F(EventLogFileTest, LoadRejectsUnknownDevice) {
  EventLog log(small_catalog());
  log.append({1.0, 0, 1.0});
  ASSERT_TRUE(log.save_csv(path_.string()).ok());
  DeviceCatalog other;
  ASSERT_TRUE(other
                  .add({"different", "x", AttributeType::kSwitch,
                        ValueType::kBinary})
                  .ok());
  EXPECT_FALSE(EventLog::load_csv(path_.string(), other).ok());
}

TEST_F(EventLogFileTest, LoadRejectsNonFiniteFields) {
  const auto load_row = [this](const char* row) {
    std::ofstream(path_) << "timestamp,device,value\n"
                         << "1.0,switch_a,0\n"
                         << row << "\n";
    return EventLog::load_csv(path_.string(), small_catalog());
  };
  ASSERT_TRUE(load_row("2.0,switch_a,1").ok());
  for (const char* row :
       {"nan,switch_a,1", "inf,switch_a,1", "2.0,switch_a,-inf"}) {
    EXPECT_FALSE(load_row(row).ok()) << row;
  }
}

}  // namespace
}  // namespace causaliot::telemetry
