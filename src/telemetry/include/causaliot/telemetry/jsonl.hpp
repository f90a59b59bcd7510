// JSON-lines trace ingestion/export.
//
// Commodity platforms (openHAB, SmartThings exports, MQTT bridges) dump
// event logs as one JSON object per line:
//
//   {"timestamp": 12.5, "device": "pe_kitchen", "value": 1}
//
// Lines are read by util::scan_flat_json, the one flat-object grammar
// shared with ingest lines and alert rules: no nesting, no arrays, finite
// numbers only — which is exactly the event shape; anything else is a
// parse error, not a silent skip. Device names are JSON-escaped on write
// and unescaped on read, so any name round-trips.
#pragma once

#include <string>
#include <string_view>

#include "causaliot/telemetry/event.hpp"
#include "causaliot/util/result.hpp"

namespace causaliot::telemetry {

/// Parses one `{"key": value, ...}` line into an event. Field names:
/// `timestamp` (number), `device` (string, unescaped and looked up in
/// `catalog`), `value` (number). Unknown extra fields are ignored.
util::Result<DeviceEvent> parse_jsonl_event(std::string_view line,
                                            const DeviceCatalog& catalog);

/// Serializes one event as a JSON line (no trailing newline).
std::string format_jsonl_event(const DeviceEvent& event,
                               const DeviceCatalog& catalog);

/// Reads a whole JSON-lines trace; blank lines are skipped, any malformed
/// line aborts with its line number in the error message.
util::Result<EventLog> load_jsonl(const std::string& path,
                                  DeviceCatalog catalog);

/// Writes the log as JSON lines.
util::Status save_jsonl(const EventLog& log, const std::string& path);

}  // namespace causaliot::telemetry
