#include "causaliot/serve/ingest.hpp"

#include "causaliot/obs/http_server.hpp"
#include "causaliot/util/flat_json.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::serve {

bool scan_ingest_line(std::string_view line, IngestFields& out) {
  const auto visit = [&out](std::string_view key,
                            const util::FlatJsonValue& value) {
    const auto take_name = [&value](std::string_view& field, bool& has) {
      if (!value.is_string() || value.escaped) return false;
      field = value.text;
      has = true;
      return true;
    };
    const auto take_number = [&value](double& field, bool& has) {
      if (!value.is_number()) return false;
      field = value.number;
      has = true;
      return true;
    };
    if (key == "op") return take_name(out.op, out.has_op);
    if (key == "tenant") return take_name(out.tenant, out.has_tenant);
    if (key == "device") return take_name(out.device, out.has_device);
    if (key == "template") {
      return take_name(out.template_name, out.has_template);
    }
    if (key == "value") return take_number(out.value, out.has_value);
    if (key == "timestamp") {
      return take_number(out.timestamp, out.has_timestamp);
    }
    return true;  // unknown keys are skipped
  };
  return !util::scan_flat_json(line, visit);
}

IngestRouter::IngestRouter(DetectionService& service,
                           const telemetry::DeviceCatalog& catalog,
                           IngestConfig config)
    : service_(service), catalog_(catalog), config_(std::move(config)) {
  const auto& devices = catalog_.devices();
  device_index_.reserve(devices.size());
  for (std::size_t id = 0; id < devices.size(); ++id) {
    device_index_.emplace(devices[id].name,
                          static_cast<telemetry::DeviceId>(id));
  }
  obs::Registry& registry = service_.registry();
  lines_ = &registry.counter("serve_ingest_lines_total", {},
                             "Non-blank JSONL lines received, any transport");
  accepted_ = &registry.counter("serve_ingest_accepted_total", {},
                                "Ingest event lines queued to a shard");
  const char* rejected_help =
      "Ingest lines refused, by reason (parse | unknown-tenant | "
      "unknown-device | overflow | closed)";
  rejected_parse_ = &registry.counter("serve_ingest_rejected_total",
                                      {{"reason", "parse"}}, rejected_help);
  rejected_unknown_tenant_ = &registry.counter(
      "serve_ingest_rejected_total", {{"reason", "unknown-tenant"}});
  rejected_unknown_device_ = &registry.counter(
      "serve_ingest_rejected_total", {{"reason", "unknown-device"}});
  rejected_overflow_ = &registry.counter("serve_ingest_rejected_total",
                                         {{"reason", "overflow"}});
  rejected_closed_ = &registry.counter("serve_ingest_rejected_total",
                                       {{"reason", "closed"}});
  const char* control_help =
      "Control verbs (TCP op lines and HTTP tenant routes), by result";
  control_add_ok_ = &registry.counter(
      "serve_ingest_controls_total",
      {{"op", "add_tenant"}, {"result", "ok"}}, control_help);
  control_add_err_ = &registry.counter(
      "serve_ingest_controls_total",
      {{"op", "add_tenant"}, {"result", "error"}});
  control_remove_ok_ = &registry.counter(
      "serve_ingest_controls_total",
      {{"op", "remove_tenant"}, {"result", "ok"}});
  control_remove_err_ = &registry.counter(
      "serve_ingest_controls_total",
      {{"op", "remove_tenant"}, {"result", "error"}});
}

bool IngestRouter::add_tenant(std::string_view name,
                              std::string_view template_name,
                              const char** reason) {
  const std::string_view tpl =
      template_name.empty() ? std::string_view(config_.default_template)
                            : template_name;
  TenantHandle handle = DetectionService::kInvalidTenant;
  const char* why = "tenant-exists";
  if (!tpl.empty()) {
    handle = service_.add_tenant(std::string(name), tpl);
    if (handle == DetectionService::kInvalidTenant &&
        service_.find_tenant(name) == DetectionService::kInvalidTenant) {
      why = "unknown-template";
    }
  } else {
    handle = service_.add_tenant(std::string(name), config_.model,
                                 config_.initial_state);
  }
  const bool ok = handle != DetectionService::kInvalidTenant;
  (ok ? control_add_ok_ : control_add_err_)->increment();
  if (!ok && reason != nullptr) *reason = why;
  return ok;
}

bool IngestRouter::remove_tenant(std::string_view name) {
  const TenantHandle handle = service_.find_tenant(name);
  const bool ok = handle != DetectionService::kInvalidTenant &&
                  service_.remove_tenant(handle);
  (ok ? control_remove_ok_ : control_remove_err_)->increment();
  return ok;
}

IngestRouter::LineResult IngestRouter::handle_line(std::string_view line) {
  if (util::trim(line).empty()) return {Outcome::kBlank, nullptr};
  lines_->increment();

  IngestFields fields;
  if (!scan_ingest_line(line, fields)) {
    rejected_parse_->increment();
    return {Outcome::kParseError, "parse"};
  }

  if (fields.has_op) {
    if (!fields.has_tenant || fields.tenant.empty()) {
      (fields.op == "remove_tenant" ? control_remove_err_
                                    : control_add_err_)
          ->increment();
      return {Outcome::kControlFailed, "missing-tenant"};
    }
    if (fields.op == "add_tenant") {
      const char* reason = "tenant-exists";
      return add_tenant(fields.tenant,
                        fields.has_template ? fields.template_name
                                            : std::string_view{},
                        &reason)
                 ? LineResult{Outcome::kControlOk, "add_tenant"}
                 : LineResult{Outcome::kControlFailed, reason};
    }
    if (fields.op == "remove_tenant") {
      return remove_tenant(fields.tenant)
                 ? LineResult{Outcome::kControlOk, "remove_tenant"}
                 : LineResult{Outcome::kControlFailed, "unknown-tenant"};
    }
    control_add_err_->increment();
    return {Outcome::kControlFailed, "unknown-op"};
  }

  if (!fields.has_device || !fields.has_value || !fields.has_timestamp) {
    rejected_parse_->increment();
    return {Outcome::kParseError, "missing-field"};
  }

  const std::string_view tenant_name =
      fields.has_tenant ? fields.tenant
                        : std::string_view(config_.default_tenant);
  const TenantHandle tenant = service_.find_tenant(tenant_name);
  if (tenant == DetectionService::kInvalidTenant) {
    rejected_unknown_tenant_->increment();
    return {Outcome::kUnknownTenant, "unknown-tenant"};
  }

  const auto device = device_index_.find(fields.device);
  if (device == device_index_.end()) {
    rejected_unknown_device_->increment();
    return {Outcome::kUnknownDevice, "unknown-device"};
  }

  const preprocess::BinaryEvent event{
      device->second,
      static_cast<std::uint8_t>(fields.value != 0.0 ? 1 : 0),
      fields.timestamp};
  switch (service_.submit(tenant, event)) {
    case DetectionService::SubmitResult::kAccepted:
      accepted_->increment();
      return {Outcome::kAccepted, nullptr};
    case DetectionService::SubmitResult::kRejected:
      rejected_overflow_->increment();
      return {Outcome::kOverflow, "overflow"};
    case DetectionService::SubmitResult::kClosed:
      rejected_closed_->increment();
      return {Outcome::kClosed, "closed"};
    case DetectionService::SubmitResult::kUnknownTenant:
      // The tenant was removed between find_tenant and submit.
      rejected_unknown_tenant_->increment();
      return {Outcome::kUnknownTenant, "unknown-tenant"};
  }
  return {Outcome::kParseError, "parse"};  // unreachable
}

std::optional<std::string> IngestRouter::response_line(
    const LineResult& result) {
  switch (result.outcome) {
    case Outcome::kBlank:
    case Outcome::kAccepted:
      return std::nullopt;
    case Outcome::kControlOk:
      return "OK " + std::string(result.reason);
    default:
      return "ERR " + std::string(result.reason);
  }
}

std::uint64_t IngestRouter::lines_total() const { return lines_->value(); }
std::uint64_t IngestRouter::accepted_total() const {
  return accepted_->value();
}
std::uint64_t IngestRouter::rejected_total() const {
  return rejected_parse_->value() + rejected_unknown_tenant_->value() +
         rejected_unknown_device_->value() + rejected_overflow_->value() +
         rejected_closed_->value();
}

void attach_ingest(obs::HttpServer& http, IngestRouter& router) {
  http.handle("POST", "/ingest", [&router](const obs::HttpRequest& request) {
    std::size_t lines = 0, accepted = 0, rejected = 0, controls = 0;
    bool backpressured = false;
    std::string errors;  // first few rejections, as JSON objects
    std::size_t error_count = 0;
    std::string_view body = request.body;
    std::size_t line_number = 0;
    while (!body.empty()) {
      const std::size_t newline = body.find('\n');
      const std::string_view line = body.substr(0, newline);
      body = newline == std::string_view::npos
                 ? std::string_view{}
                 : body.substr(newline + 1);
      ++line_number;
      const IngestRouter::LineResult result = router.handle_line(line);
      switch (result.outcome) {
        case IngestRouter::Outcome::kBlank:
          continue;
        case IngestRouter::Outcome::kAccepted:
          ++lines, ++accepted;
          continue;
        case IngestRouter::Outcome::kControlOk:
          ++lines, ++controls;
          continue;
        case IngestRouter::Outcome::kOverflow:
        case IngestRouter::Outcome::kClosed:
          backpressured = true;
          [[fallthrough]];
        default:
          ++lines, ++rejected;
          if (++error_count <= 16) {
            if (!errors.empty()) errors += ", ";
            errors += util::format("{\"line\": %zu, \"reason\": \"%s\"}",
                                   line_number, result.reason);
          }
      }
    }
    obs::HttpResponse response = obs::HttpResponse::json(util::format(
        "{\"lines\": %zu, \"accepted\": %zu, \"controls\": %zu, "
        "\"rejected\": %zu, \"errors\": [%s]}",
        lines, accepted, controls, rejected, errors.c_str()));
    if (backpressured) response.status = 503;
    return response;
  });

  http.handle("POST", "/tenants", [&router](const obs::HttpRequest& request) {
    IngestFields fields;
    if (!scan_ingest_line(request.body, fields) || !fields.has_tenant ||
        fields.tenant.empty()) {
      obs::HttpResponse response =
          obs::HttpResponse::json("{\"error\": \"expected {\\\"tenant\\\": "
                                  "\\\"name\\\"}\"}");
      response.status = 400;
      return response;
    }
    const std::string name(fields.tenant);
    const char* reason = "tenant-exists";
    if (!router.add_tenant(name,
                           fields.has_template ? fields.template_name
                                               : std::string_view{},
                           &reason)) {
      obs::HttpResponse response = obs::HttpResponse::json(
          util::format("{\"error\": \"%s\", \"tenant\": \"%s\"}", reason,
                       util::json_escape(name).c_str()));
      response.status =
          std::string_view(reason) == "unknown-template" ? 404 : 409;
      return response;
    }
    return obs::HttpResponse::json(util::format(
        "{\"added\": \"%s\"}", util::json_escape(name).c_str()));
  });

  http.handle_prefix(
      "DELETE", "/tenants/", [&router](const obs::HttpRequest& request) {
        const std::string name =
            request.path.substr(std::string_view("/tenants/").size());
        if (name.empty()) {
          obs::HttpResponse response =
              obs::HttpResponse::json("{\"error\": \"missing tenant name\"}");
          response.status = 400;
          return response;
        }
        if (!router.remove_tenant(name)) {
          obs::HttpResponse response = obs::HttpResponse::json(util::format(
              "{\"error\": \"unknown-tenant\", \"tenant\": \"%s\"}",
              util::json_escape(name).c_str()));
          response.status = 404;
          return response;
        }
        return obs::HttpResponse::json(util::format(
            "{\"removed\": \"%s\"}", util::json_escape(name).c_str()));
      });
}

}  // namespace causaliot::serve
