// The immutable structural half of a DIG, split out for fleet-scale
// model sharing.
//
// A home's InteractionGraph is two very different kinds of state: the
// *structure* (device inventory, lagged edge set, per-child cause lists
// — which also fixes every CPT's key layout, since Cpt::pack packs cause
// values in canonical cause order) and the *behaviour* (the CPT counts).
// Homes with identical device inventories share the former exactly and
// differ only in the latter, so the structure is frozen into a Skeleton:
// an immutable, content-hashed object. Every InteractionGraph holds its
// structure this way — a freshly built graph is the only owner of its
// Skeleton, and set_causes installs a new one rather than editing it —
// so any number of tenants can reference one Skeleton through a
// SkeletonRef while carrying their own CPT payload (a shared base plus
// a sparse copy-on-write delta — see graph/dig.hpp).
//
// The content hash is FNV-1a over (device_count, max_lag, per-child
// cause lists in canonical order); serve::TemplateRegistry interns
// skeletons by it (with a deep-equality check against collisions), so N
// templates mined from the same inventory resolve to one Skeleton in
// memory.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "causaliot/graph/cpt.hpp"
#include "causaliot/telemetry/device.hpp"

namespace causaliot::graph {

class Skeleton {
 public:
  /// `causes[child]` must be in canonical (sorted, duplicate-free) order
  /// with every device < causes.size() and every lag in [1, max_lag];
  /// CHECKed. max_lag must be >= 1 unless the skeleton is empty.
  Skeleton(std::size_t max_lag,
           std::vector<std::vector<LaggedNode>> causes);

  std::size_t device_count() const { return causes_.size(); }
  std::size_t max_lag() const { return max_lag_; }
  const std::vector<LaggedNode>& causes(telemetry::DeviceId child) const;
  std::size_t edge_count() const { return edge_count_; }

  /// FNV-1a over the full structure; equal structures hash equal, and
  /// the registry backs the hash with operator== so a collision can
  /// never alias two different inventories.
  std::uint64_t content_hash() const { return hash_; }

  friend bool operator==(const Skeleton& a, const Skeleton& b) {
    return a.max_lag_ == b.max_lag_ && a.causes_ == b.causes_;
  }

  /// Estimated heap + object bytes (memory_footprint's skeleton half).
  std::size_t approx_bytes() const;

 private:
  std::size_t max_lag_ = 0;
  std::vector<std::vector<LaggedNode>> causes_;
  std::size_t edge_count_ = 0;
  std::uint64_t hash_ = 0;
};

/// Shared immutable skeleton handle: N tenants with the same inventory
/// hold N refs to one Skeleton.
using SkeletonRef = std::shared_ptr<const Skeleton>;

/// Shared immutable CPT payload: the template's base tables, indexed by
/// child device. Tenants overlay a sparse copy-on-write delta on top.
using CptPayload = std::vector<Cpt>;
using CptPayloadRef = std::shared_ptr<const CptPayload>;

}  // namespace causaliot::graph
