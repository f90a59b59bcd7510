// util::scan_flat_json, the one flat-object grammar behind event traces,
// ingest lines and alert rules: unit checks of the grammar (every value
// kind, escapes, error offsets, nesting, trailing bytes, non-finite
// numbers), json_unescape as the inverse of json_escape, and a seeded
// differential mutation suite that feeds mutated fixture lines to all
// three front ends and checks they agree with the scanner and each other.
#include "causaliot/util/flat_json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "causaliot/obs/alert.hpp"
#include "causaliot/serve/ingest.hpp"
#include "causaliot/telemetry/jsonl.hpp"
#include "causaliot/util/rng.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::util {
namespace {

using Kind = FlatJsonValue::Kind;

struct Member {
  std::string key;
  FlatJsonValue value;
};

/// Scans `line`, collecting every member the visitor sees.
std::optional<FlatJsonError> collect(std::string_view line,
                                     std::vector<Member>& members) {
  return scan_flat_json(line, [&](std::string_view key,
                                  const FlatJsonValue& value) {
    members.push_back({std::string(key), value});
    return true;
  });
}

bool accepts(std::string_view line) {
  std::vector<Member> ignored;
  return !collect(line, ignored);
}

// --- grammar units ---

TEST(FlatJson, VisitsEveryValueKindInOrder) {
  const std::string line =
      R"({"s": "text", "n": -1.5e2, "t": true, "f": false, "z": null})";
  std::vector<Member> members;
  ASSERT_FALSE(collect(line, members));
  ASSERT_EQ(members.size(), 5u);
  EXPECT_EQ(members[0].key, "s");
  EXPECT_EQ(members[0].value.kind, Kind::kString);
  EXPECT_EQ(members[0].value.text, "text");
  EXPECT_FALSE(members[0].value.escaped);
  EXPECT_EQ(members[1].key, "n");
  EXPECT_EQ(members[1].value.kind, Kind::kNumber);
  EXPECT_EQ(members[1].value.number, -150.0);
  EXPECT_EQ(members[2].value.kind, Kind::kTrue);
  EXPECT_EQ(members[3].value.kind, Kind::kFalse);
  EXPECT_EQ(members[4].value.kind, Kind::kNull);
}

TEST(FlatJson, EmptyObjectAndJsonWhitespace) {
  std::vector<Member> members;
  EXPECT_FALSE(collect("{}", members));
  EXPECT_FALSE(collect(" \t{ } \r\n", members));
  EXPECT_TRUE(members.empty());
  EXPECT_FALSE(collect("\r\n{\n\"a\"\t:\r1\n}\n", members));
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].value.number, 1.0);
}

TEST(FlatJson, EscapesAreSkippedNotDecoded) {
  std::vector<Member> members;
  ASSERT_FALSE(collect(
      R"({"a": "x\"}y", "b": "\\", "c": "\u0041\/\b\f\n\r\t", "d": "plain"})",
      members));
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].value.text, R"(x\"}y)");
  EXPECT_TRUE(members[0].value.escaped);
  EXPECT_EQ(members[1].value.text, R"(\\)");
  EXPECT_TRUE(members[1].value.escaped);
  EXPECT_EQ(members[2].value.text, R"(\u0041\/\b\f\n\r\t)");
  EXPECT_FALSE(members[3].value.escaped);
  EXPECT_EQ(json_unescape(members[0].value.text).value(), "x\"}y");
  EXPECT_EQ(json_unescape(members[2].value.text).value(), "A/\b\f\n\r\t");
}

TEST(FlatJson, DuplicateKeysAreEachVisited) {
  std::vector<Member> members;
  ASSERT_FALSE(collect(R"({"k": 1, "k": 2})", members));
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[1].value.number, 2.0);
}

TEST(FlatJson, ReportsTheFirstErrorWithItsOffset) {
  struct Case {
    std::string_view line;
    std::size_t offset;
    std::string_view what;
  };
  const Case cases[] = {
      {"", 0, "expected '{'"},
      {"  not json", 2, "expected '{'"},
      {R"({a: 1})", 1, "expected a quoted key"},
      {R"({"a": 1,})", 8, "expected a quoted key"},
      {R"({"a" 1})", 5, "expected ':'"},
      {R"({"a": })", 6, "expected a value"},
      {R"({"a": 1 "b": 2})", 8, "expected ',' or '}'"},
      {R"({"a": "x)", 8, "unterminated string"},
      {R"({"a)", 3, "unterminated string"},
      {R"({"a": "x\)", 8, "invalid escape"},
      {R"({"a": "\q"})", 7, "invalid escape"},
      {R"({"a": "\u12"})", 7, "invalid \\u escape"},
      {R"({"a": 1} x)", 9, "trailing characters after '}'"},
      {R"({"a": 1}})", 8, "trailing characters after '}'"},
      {R"({"a": {"b": 1}})", 6, "nested values are not supported"},
      {R"({"a": [1]})", 6, "nested values are not supported"},
      {R"({"a": 1e999})", 6, "number out of range"},
      {R"({"a": +1})", 6, "expected a value"},
      {R"({"a": tru})", 6, "expected a value"},
  };
  for (const Case& c : cases) {
    std::vector<Member> members;
    const auto error = collect(c.line, members);
    ASSERT_TRUE(error) << c.line;
    EXPECT_EQ(error->offset, c.offset) << c.line;
    EXPECT_EQ(std::string_view(error->what), c.what) << c.line;
  }
}

TEST(FlatJson, RejectsNonFiniteNumbers) {
  for (std::string_view number :
       {"nan", "-nan", "NaN", "nan(1)", "inf", "-inf", "INF", "infinity",
        "-Infinity"}) {
    const std::string line = "{\"x\": 1, \"v\": " + std::string(number) + "}";
    std::vector<Member> members;
    const auto error = collect(line, members);
    ASSERT_TRUE(error) << line;
    EXPECT_EQ(error->offset, 14u) << line;
    EXPECT_EQ(std::string_view(error->what), "non-finite number") << line;
  }
  EXPECT_TRUE(accepts(R"({"v": 1.7976931348623157e308})"));
  EXPECT_TRUE(accepts(R"({"v": -0})"));
}

TEST(FlatJson, VisitorStopsTheWalkAtTheValue) {
  int calls = 0;
  const auto error = scan_flat_json(
      R"({"a": 1, "b": "x", "c": 3})",
      [&](std::string_view key, const FlatJsonValue&) {
        ++calls;
        return key != "b";
      });
  ASSERT_TRUE(error);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(error->offset, 14u);
  EXPECT_STREQ(error->what, kFlatJsonVisitorStop);
}

TEST(JsonUnescape, InvertsJsonEscapeForEveryAsciiByte) {
  std::string all;
  for (int byte = 0x01; byte <= 0x7f; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    const auto back = json_unescape(json_escape(one));
    ASSERT_TRUE(back.ok()) << byte;
    EXPECT_EQ(back.value(), one) << byte;
    all += one;
  }
  EXPECT_EQ(json_unescape(json_escape(all)).value(), all);
  // The escaped form is itself a well-formed flat-JSON string.
  EXPECT_TRUE(accepts("{\"k\": \"" + json_escape(all) + "\"}"));
}

TEST(JsonUnescape, RejectsWhatItCannotDecode) {
  for (std::string_view bad :
       {R"(\q)", R"(tail\)", R"(\u00)", R"(\u00zz)", R"(\u0080)",
        R"(\ud83d)"}) {
    EXPECT_FALSE(json_unescape(bad).ok()) << bad;
  }
}

// --- differential mutation suite over the three front ends ---

// Fixture lines from the ingest, JSONL trace and alert-rule suites.
const char* const kCorpus[] = {
    // test_serve_ingest
    R"({"tenant": "home-0", "device": "pe_kitchen", "value": 1, "timestamp": 12.5})",
    R"({"op": "add_tenant", "tenant": "t", "note": "hi", "n": 3, "flag": true})",
    "  { \"device\" : \"d\" , \"value\" : 0 , \"timestamp\" : 1e3 }\r",
    "{}",
    "not json",
    R"({"device": })",
    R"({"device": "d")",
    R"({"value": "str"})",
    R"({"device": "a\"b"})",
    R"({"a": 1} trailing)",
    R"({"a": {"nested": 1}})",
    R"({"op": "add_tenant", "tenant": "dyn"})",
    R"({"op": "remove_tenant", "tenant": "dyn"})",
    R"({"device": "no_such", "value": 1, "timestamp": 4})",
    // test_telemetry_jsonl
    R"({"timestamp": 12.5, "device": "pe_kitchen", "value": 1})",
    R"({"value": 83.25, "source": "mqtt", "device": "bright", "timestamp": 7})",
    R"({"timestamp": 1, "device": "weird \"name\"", "value": 0})",
    R"({"timestamp": 1e3, "device": "bright", "value": -2.5})",
    R"({"timestamp": "1", "device": "pe_kitchen", "value": 0})",
    R"({"timestamp": 1, "device": "pe_kitchen"} junk)",
    // test_obs_alert
    R"({"name": "queue_sat", "metric": "serve_queue_depth", "labels": "shard=0", "kind": "threshold", "op": ">=", "value": 48, "for_seconds": 5})",
    R"({"name": "reject_spike", "metric": "rejected_total", "kind": "rate", "op": ">", "value": 5, "window_seconds": 10, "for_seconds": 2})",
    R"({"name": "gone", "metric": "heartbeat", "kind": "absence", "stale_seconds": 10})",
    R"({"name": "r", "metric": "m", "labels": "oops", "value": 1})",
    R"({"name": "r", "metric": "m", "value": 1, "bogus": 2})",
};

// Tokens an insert may splice in, so mutations reach the grammar's edges
// (literals, non-finite numbers, escapes, nesting) far more often than
// random bytes alone would.
const char* const kTokens[] = {
    "nan", "inf", "-infinity", "true", "false", "null", R"(\")", R"(\\)",
    R"(\u0041)", R"(\u00e9)", "{", "}", "[", "\"", ",", ":", " ", "\t",
    "\r", "\n", "1e999", "-0", R"("x": 1, )", "#", "0x1p3", ".5"};

std::string mutate(const std::string& line, Rng& rng) {
  std::string out = line;
  const int steps = 1 + static_cast<int>(rng.uniform(3));
  for (int step = 0; step < steps; ++step) {
    const std::size_t at = rng.uniform(out.size() + 1);
    switch (rng.uniform(7)) {
      case 0:  // byte flip
        if (!out.empty()) {
          out[at % out.size()] ^= static_cast<char>(1u << rng.uniform(8));
        }
        break;
      case 1:  // insert a random byte
        out.insert(at, 1, static_cast<char>(rng.uniform(256)));
        break;
      case 2:  // insert a grammar token
        out.insert(at, kTokens[rng.uniform(std::size(kTokens))]);
        break;
      case 3:  // delete a short run
        out.erase(at, 1 + rng.uniform(4));
        break;
      case 4:  // truncate
        out.resize(at);
        break;
      case 5:  // overwrite a short run with a grammar token
        out.replace(at, 1 + rng.uniform(4),
                    kTokens[rng.uniform(std::size(kTokens))]);
        break;
      case 6: {  // splice: this prefix + another line's suffix
        const std::string other = kCorpus[rng.uniform(std::size(kCorpus))];
        out = out.substr(0, at) + other.substr(rng.uniform(other.size() + 1));
        break;
      }
    }
  }
  return out;
}

/// The alert parser frames a rules file into lines (newline split, blank
/// lines and `#` comments skipped) before the grammar sees one; only a
/// line that framing passes through whole is a single rule line.
bool is_single_rule_line(std::string_view line) {
  const std::string_view content = trim(line);
  return line.find('\n') == std::string_view::npos && !content.empty() &&
         content.front() != '#';
}

TEST(FlatJsonMutation, FrontEndsAgreeWithTheScannerAndEachOther) {
  constexpr std::uint64_t kSeed = 20230627;
  constexpr int kIterations = 40000;
  Rng rng(kSeed);

  telemetry::DeviceCatalog fixture_catalog;
  for (const char* name : {"pe_kitchen", "bright", "d", "weird \"name\""}) {
    ASSERT_TRUE(fixture_catalog
                    .add({name, "x", telemetry::AttributeType::kSwitch,
                          telemetry::ValueType::kBinary})
                    .ok());
  }

  int scanner_rejected = 0;
  int ingest_accepted = 0;
  int compared = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::string line =
        mutate(kCorpus[rng.uniform(std::size(kCorpus))], rng);
    SCOPED_TRACE(testing::Message() << "iteration " << iteration << ": "
                                    << testing::PrintToString(line));

    serve::IngestFields fields;
    const bool ingest_ok = serve::scan_ingest_line(line, fields);
    const bool jsonl_ok =
        telemetry::parse_jsonl_event(line, fixture_catalog).ok();
    const bool alert_ok = obs::parse_alert_rules(line).ok();

    if (!accepts(line)) {
      ++scanner_rejected;
      ASSERT_FALSE(ingest_ok);
      ASSERT_FALSE(jsonl_ok);
      if (is_single_rule_line(line)) {
        ASSERT_FALSE(alert_ok);
      }
      continue;
    }
    if (!ingest_ok) continue;
    ++ingest_accepted;
    if (fields.has_value) {
      ASSERT_TRUE(std::isfinite(fields.value));
    }
    if (fields.has_timestamp) {
      ASSERT_TRUE(std::isfinite(fields.timestamp));
    }

    // An event line ingest accepts is one the trace loader reads with
    // bit-identical numbers, given a catalog that knows its device.
    if (fields.has_op || !fields.has_device || !fields.has_value ||
        !fields.has_timestamp || fields.device.empty()) {
      continue;
    }
    telemetry::DeviceCatalog catalog;
    ASSERT_TRUE(catalog
                    .add({std::string(fields.device), "x",
                          telemetry::AttributeType::kSwitch,
                          telemetry::ValueType::kBinary})
                    .ok());
    const auto event = telemetry::parse_jsonl_event(line, catalog);
    ASSERT_TRUE(event.ok()) << event.error().to_string();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(event->timestamp),
              std::bit_cast<std::uint64_t>(fields.timestamp));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(event->value),
              std::bit_cast<std::uint64_t>(fields.value));
    ++compared;
  }
  // The mutations must exercise both sides of every invariant.
  EXPECT_GT(scanner_rejected, kIterations / 4);
  EXPECT_GT(ingest_accepted, kIterations / 20);
  EXPECT_GT(compared, kIterations / 100);
}

}  // namespace
}  // namespace causaliot::util
