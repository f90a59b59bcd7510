#include "causaliot/telemetry/jsonl.hpp"

#include <fstream>

#include "causaliot/util/flat_json.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::telemetry {

util::Result<DeviceEvent> parse_jsonl_event(std::string_view line,
                                            const DeviceCatalog& catalog) {
  util::FlatJsonValue timestamp, device, value;
  const auto error = util::scan_flat_json(
      line, [&](std::string_view key, const util::FlatJsonValue& v) {
        if (key == "timestamp") timestamp = v;
        if (key == "device") device = v;
        if (key == "value") value = v;
        return true;  // unknown keys are ignored
      });
  if (error) {
    return util::Error::parse_error(
        util::format("%s at offset %zu", error->what, error->offset));
  }
  if (!timestamp.is_number()) {
    return util::Error::parse_error("missing numeric 'timestamp'");
  }
  if (!device.is_string()) {
    return util::Error::parse_error("missing string 'device'");
  }
  if (!value.is_number()) {
    return util::Error::parse_error("missing numeric 'value'");
  }
  std::string unescaped;
  if (device.escaped) {
    auto name = util::json_unescape(device.text);
    if (!name.ok()) return name.error();
    unescaped = std::move(name).value();
  }
  const auto id =
      catalog.find(device.escaped ? std::string_view(unescaped) : device.text);
  if (!id.ok()) return id.error();
  return DeviceEvent{timestamp.number, id.value(), value.number};
}

std::string format_jsonl_event(const DeviceEvent& event,
                               const DeviceCatalog& catalog) {
  const std::string name = util::json_escape(catalog.info(event.device).name);
  return util::format(R"({"timestamp": %.3f, "device": "%s", "value": %g})",
                      event.timestamp, name.c_str(), event.value);
}

util::Result<EventLog> load_jsonl(const std::string& path,
                                  DeviceCatalog catalog) {
  std::ifstream in(path);
  if (!in) return util::Error::io_error("cannot open " + path);
  EventLog log(std::move(catalog));
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (util::trim(line).empty()) continue;
    auto event = parse_jsonl_event(line, log.catalog());
    if (!event.ok()) {
      return util::Error::parse_error(
          util::format("line %zu: %s", line_number,
                       event.error().message.c_str()));
    }
    log.append(event.value());
  }
  return log;
}

util::Status save_jsonl(const EventLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Error::io_error("cannot open " + path);
  for (const DeviceEvent& event : log.events()) {
    out << format_jsonl_event(event, log.catalog()) << '\n';
  }
  if (!out) return util::Error::io_error("write failed: " + path);
  return util::Status::ok_status();
}

}  // namespace causaliot::telemetry
