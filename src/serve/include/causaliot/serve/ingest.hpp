// The ingestion plane's protocol core: one shared line handler behind
// stdin, raw-TCP JSONL, and HTTP `POST /ingest`.
//
// Every transport reduces to the same unit of work — "here is one JSONL
// line, route it" — so the parsing, tenant resolution, rejection
// accounting, and control verbs live here exactly once. A line is
// either an event:
//
//   {"tenant": "home-0", "device": "pe_kitchen", "value": 1,
//    "timestamp": 12.5}
//
// or a control verb on the running service:
//
//   {"op": "add_tenant", "tenant": "home-9"}
//   {"op": "add_tenant", "tenant": "home-9", "template": "default"}
//   {"op": "remove_tenant", "tenant": "home-9"}
//
// Lines are read by util::scan_flat_json, the zero-allocation flat-JSON
// walk (string_view slices into the line, std::from_chars for numbers)
// shared with event traces and alert rules, because the parse is the
// per-event cost floor of the whole plane: the detection path behind it
// is O(1), so a general-purpose parser would dominate the throughput
// budget. Non-finite numbers (`nan`, `inf`) are parse errors.
//
// The protocol is quiet on success for events (response_line() returns
// nullopt) and explicit for everything else ("OK ..." / "ERR <reason>"),
// matching net::LineProtocolServer's batched-response model. Every
// rejected line increments serve_ingest_rejected_total{reason}, so a
// misbehaving producer is visible in /metrics no matter which transport
// it used.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "causaliot/serve/service.hpp"
#include "causaliot/telemetry/device.hpp"

namespace causaliot::obs {
class HttpServer;
}  // namespace causaliot::obs

namespace causaliot::serve {

/// Fields of one flat JSONL ingest line. String views alias the scanned
/// line and are valid only while it is.
struct IngestFields {
  std::string_view op;
  std::string_view tenant;
  std::string_view device;
  /// "template" on the wire (a C++ keyword): the model template an
  /// add_tenant verb instantiates from.
  std::string_view template_name;
  double value = 0.0;
  double timestamp = 0.0;
  bool has_op = false;
  bool has_tenant = false;
  bool has_device = false;
  bool has_template = false;
  bool has_value = false;
  bool has_timestamp = false;
};

/// Scans one `{"key": value, ...}` object with util::scan_flat_json;
/// unknown keys are skipped. Returns false on malformed input, on a
/// known key of the wrong type, and on an escaped `op`, `tenant`,
/// `device` or `template` value (names are identifiers, not decoded).
bool scan_ingest_line(std::string_view line, IngestFields& out);

struct IngestConfig {
  /// Model snapshot given to tenants created via the add_tenant control
  /// verb / POST /tenants (a deployment would load per-tenant models;
  /// the plane's job is the lifecycle, not the model store).
  std::shared_ptr<const ModelSnapshot> model;
  /// Initial phantom state for dynamically added tenants.
  std::vector<std::uint8_t> initial_state;
  /// Tenant used for event lines without a "tenant" field ("" = such
  /// lines are rejected as unknown-tenant). Keeps the pre-existing
  /// single-tenant stdin contract working unchanged.
  std::string default_tenant;
  /// Template used by add_tenant verbs without a "template" field ("" =
  /// fall back to the static `model` snapshot above). Requires the
  /// service to be configured with a TemplateRegistry.
  std::string default_template;
};

/// Thread-safe line router shared by all ingestion transports.
class IngestRouter {
 public:
  enum class Outcome : std::uint8_t {
    kBlank,          // empty line; not counted
    kAccepted,       // event queued
    kParseError,     // malformed line or missing event field
    kUnknownTenant,  // tenant (or default) names no live tenant
    kUnknownDevice,  // device name not in the catalog
    kOverflow,       // shard queue full under kReject
    kClosed,         // service shut down
    kControlOk,      // control verb applied
    kControlFailed,  // control verb refused (see reason)
  };

  struct LineResult {
    Outcome outcome = Outcome::kBlank;
    /// Static reason token for ERR responses and rejection labels.
    const char* reason = nullptr;
  };

  /// Counters live on `service.registry()`. `catalog` must outlive the
  /// router (device names are indexed by reference).
  IngestRouter(DetectionService& service,
               const telemetry::DeviceCatalog& catalog, IngestConfig config);

  /// Parses and routes one line. Callable concurrently from any number
  /// of transport workers.
  LineResult handle_line(std::string_view line);

  /// Wire response for a result: nullopt for the quiet paths (blank,
  /// accepted event), "OK <op>" for controls, "ERR <reason>" otherwise.
  static std::optional<std::string> response_line(const LineResult& result);

  /// Control-verb implementations, shared with the HTTP tenant routes.
  /// An empty `template_name` falls back to config.default_template,
  /// then to the static config.model snapshot. On failure `reason`
  /// (when non-null) receives the rejection token ("tenant-exists" or
  /// "unknown-template").
  bool add_tenant(std::string_view name, std::string_view template_name = {},
                  const char** reason = nullptr);
  bool remove_tenant(std::string_view name);

  DetectionService& service() { return service_; }

  // Test/diagnostic visibility (counter values, relaxed).
  std::uint64_t lines_total() const;
  std::uint64_t accepted_total() const;
  std::uint64_t rejected_total() const;

 private:
  DetectionService& service_;
  const telemetry::DeviceCatalog& catalog_;
  IngestConfig config_;
  /// Device name -> id; keys alias catalog strings. Built once — the
  /// catalog's linear find() would be the hot path otherwise.
  std::unordered_map<std::string_view, telemetry::DeviceId> device_index_;
  obs::Counter* lines_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_parse_ = nullptr;
  obs::Counter* rejected_unknown_tenant_ = nullptr;
  obs::Counter* rejected_unknown_device_ = nullptr;
  obs::Counter* rejected_overflow_ = nullptr;
  obs::Counter* rejected_closed_ = nullptr;
  obs::Counter* control_add_ok_ = nullptr;
  obs::Counter* control_add_err_ = nullptr;
  obs::Counter* control_remove_ok_ = nullptr;
  obs::Counter* control_remove_err_ = nullptr;
};

/// Registers the ingestion routes on an HTTP plane:
///   POST   /ingest         JSONL batch body; 200 with a tally, or 503
///                          when any line hit backpressure/shutdown.
///   POST   /tenants        {"tenant": "name"}; 200, or 409 duplicate.
///   DELETE /tenants/{name} 200, or 404 unknown.
/// Call before http.start(); `router` must outlive the server.
void attach_ingest(obs::HttpServer& http, IngestRouter& router);

}  // namespace causaliot::serve
