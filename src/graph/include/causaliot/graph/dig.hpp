// The Device Interaction Graph (Definition 1).
//
// Under the tau-th-order Markov and stationarity assumptions the DIG is
// fully described by, for each device i, the set of lagged causes
// Ca(S_i^t) with lags in [1, tau] plus a CPT over those causes. Edges are
// always oriented lagged -> present (the cause precedes the effect).
//
// Storage is one layout for every graph: the structure lives in an
// immutable, content-hashed Skeleton and the CPT counts in an immutable
// base payload, both held by shared_ptr, and the graph itself owns only
// a sparse copy-on-write delta. Reads consult the delta first and fall
// through to the base; the first mutable cpt(child) access copies that
// child's base table into the delta, so update_cpts personalizes a graph
// without ever touching the base. set_causes is copy-on-write on the
// structure: it installs a fresh Skeleton with that child's causes
// replaced and gives the child an empty table in the delta. A freshly
// built graph is simply the only owner of its skeleton and base; N
// tenants instantiated from one template (from_template) pay full model
// bytes once plus delta bytes each.
//
// Concurrency contract: the delta slot vector is sized at construction,
// so concurrent copy-on-write faults on *different* children are safe
// (estimate_cpts / update_cpts parallelize per child); two threads
// mutating the same child's table race, as any shared table would.
// set_causes swaps the skeleton and must not race with any other access.
// The skeleton and base are never written through this class.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "causaliot/graph/cpt.hpp"
#include "causaliot/graph/skeleton.hpp"
#include "causaliot/telemetry/device.hpp"
#include "causaliot/util/result.hpp"

namespace causaliot::graph {

/// A directed interaction edge: cause (lagged) -> child (present).
struct Edge {
  LaggedNode cause;
  telemetry::DeviceId child = telemetry::kInvalidDevice;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class InteractionGraph {
 public:
  /// An empty graph (no devices).
  InteractionGraph();
  /// `device_count` devices with no causes and empty tables.
  InteractionGraph(std::size_t device_count, std::size_t max_lag);

  InteractionGraph(const InteractionGraph& other);
  InteractionGraph& operator=(const InteractionGraph& other);
  InteractionGraph(InteractionGraph&&) = default;
  InteractionGraph& operator=(InteractionGraph&&) = default;

  /// Structure from `skeleton`, counts from `base`, an empty
  /// copy-on-write delta. `base` must have one Cpt per skeleton device
  /// whose causes match the skeleton's (the layout the template
  /// publisher froze); CHECKed.
  static InteractionGraph from_template(SkeletonRef skeleton,
                                        CptPayloadRef base);

  std::size_t device_count() const { return skeleton_->device_count(); }
  std::size_t max_lag() const { return skeleton_->max_lag(); }

  /// Installs the cause set (any order; canonicalized) for `child`,
  /// resetting its CPT to an empty table. All lags must be in
  /// [1, max_lag]. Copy-on-write: this graph gets a new Skeleton; the
  /// one it held before (possibly a template's) is left untouched.
  void set_causes(telemetry::DeviceId child, std::vector<LaggedNode> causes);

  const std::vector<LaggedNode>& causes(telemetry::DeviceId child) const;
  const Cpt& cpt(telemetry::DeviceId child) const;
  /// Mutable table access — the copy-on-write point: the child's base
  /// table is copied into this graph's delta on first access and
  /// returned from the delta ever after.
  Cpt& cpt(telemetry::DeviceId child);

  /// All edges, grouped by child.
  std::vector<Edge> edges() const;
  std::size_t edge_count() const;

  /// True if `cause_device` at lag `lag` is a cause of `child`.
  bool has_edge(telemetry::DeviceId cause_device, std::uint32_t lag,
                telemetry::DeviceId child) const;

  /// True if `cause_device` is a cause of `child` at *any* lag — the
  /// device-level interaction relation used for ground-truth matching.
  bool has_interaction(telemetry::DeviceId cause_device,
                       telemetry::DeviceId child) const;

  /// Devices that have `device` among their causes (at any lag): the
  /// devices a state change of `device` can directly affect. Used for
  /// collective-anomaly chain tracking diagnostics.
  std::vector<telemetry::DeviceId> children(telemetry::DeviceId device) const;

  // --- structure-sharing introspection ---

  /// The (possibly shared) structure and base payload. The pointer
  /// identities key the serving plane's dedup accounting.
  const SkeletonRef& skeleton() const { return skeleton_; }
  const CptPayloadRef& base() const { return base_; }
  /// Children whose tables have been copy-on-write personalized.
  std::size_t delta_count() const;
  /// The delta's table for `child`, or nullptr while it still reads
  /// through to the base.
  const Cpt* delta_cpt(telemetry::DeviceId child) const;

  /// This graph's immutable structure (its existing ref — no copy).
  SkeletonRef freeze_skeleton() const { return skeleton_; }
  /// Materializes the effective per-child tables (base overlaid with any
  /// delta) into an immutable payload — what a template publisher pairs
  /// with freeze_skeleton().
  CptPayloadRef freeze_cpts() const;

  /// Graphviz DOT rendering with device names from `catalog`.
  std::string to_dot(const telemetry::DeviceCatalog& catalog) const;

  /// Plain-text serialization of the effective tables (stable across
  /// runs). load() returns parse_error, never aborts, on malformed input;
  /// the loaded tables become the graph's base with an empty delta.
  util::Status save(const std::string& path) const;
  static util::Result<InteractionGraph> load(const std::string& path);

 private:
  InteractionGraph(SkeletonRef skeleton, CptPayloadRef base);

  // Immutable structure + base counts, sparse COW delta. delta_ is sized
  // to device_count at construction; a slot is written by the
  // copy-on-write fault or by set_causes.
  SkeletonRef skeleton_;
  CptPayloadRef base_;
  std::vector<std::unique_ptr<Cpt>> delta_;
};

}  // namespace causaliot::graph
