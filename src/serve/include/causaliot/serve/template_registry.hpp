// Process-wide model-template store for fleet-scale structure sharing.
//
// Fleet deployments ship homes with identical device inventories, so the
// serving plane should pay for one model skeleton per *inventory*, not
// one per tenant. A ModelTemplate is the immutable published form of a
// trained model — (SkeletonRef, base CPT payload, threshold, smoothing,
// version) — registered under a name that the ingestion plane's
// add_tenant control verb can reference ({"op": "add_tenant",
// "tenant": "home-9", "template": "default"}).
//
// publish() interns skeletons by content hash (backed by deep equality,
// so a hash collision can never alias two inventories): two templates
// mined from the same device inventory resolve to one Skeleton object,
// and every tenant instantiated from either holds a shared_ptr to it.
// The intern pool holds weak references — evicting a template (or
// letting every tenant of it drain away) releases the skeleton as soon
// as the last snapshot drops, which the 25-cycle churn suite pins.
//
// instantiate() builds what a tenant actually serves from: an
// InteractionGraph that reads the template's base tables through a
// sparse copy-on-write delta (update_cpts personalizes the delta, never
// the base; set_causes gives the tenant its own skeleton — see
// graph/dig.hpp), wrapped in a ModelSnapshot that add_tenant and
// swap_model take like any other.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "causaliot/graph/skeleton.hpp"
#include "causaliot/serve/model_snapshot.hpp"

namespace causaliot::serve {

struct ModelTemplate {
  std::string name;
  graph::SkeletonRef skeleton;
  graph::CptPayloadRef base_cpts;
  double score_threshold = 1.0;
  double laplace_alpha = 0.0;
  std::uint64_t version = 0;
};

/// A tenant-servable snapshot sharing the template's skeleton and base
/// (empty delta). Each call returns a fresh snapshot so per-tenant
/// personalization (copy the graph, update_cpts, republish) never
/// aliases another tenant's delta.
std::shared_ptr<const ModelSnapshot> instantiate(
    const ModelTemplate& tpl);

class TemplateRegistry {
 public:
  TemplateRegistry() = default;
  TemplateRegistry(const TemplateRegistry&) = delete;
  TemplateRegistry& operator=(const TemplateRegistry&) = delete;

  /// Freezes `graph` into a template registered under `name`, interning
  /// its skeleton against every previously published one (the graph's
  /// skeleton ref is reused; its effective tables are materialized
  /// once). Returns nullptr when the name is taken.
  std::shared_ptr<const ModelTemplate> publish(std::string name,
                                               const graph::InteractionGraph& graph,
                                               double score_threshold,
                                               double laplace_alpha,
                                               std::uint64_t version);

  /// nullptr when unknown.
  std::shared_ptr<const ModelTemplate> find(std::string_view name) const;

  /// Drops the name. Live tenants keep serving from their refs; the
  /// skeleton/base free once the last snapshot drops. False if unknown.
  bool evict(std::string_view name);

  /// Registered templates.
  std::size_t template_count() const;
  /// Distinct live skeletons the intern pool still tracks (expired weak
  /// entries are swept on the way) — < template_count() when templates
  /// share an inventory.
  std::size_t skeleton_count() const;

 private:
  graph::SkeletonRef intern_locked(graph::SkeletonRef skeleton);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ModelTemplate>>
      by_name_;
  /// content hash -> skeletons with that hash (collision list). Weak:
  /// the pool never keeps a skeleton alive by itself.
  mutable std::unordered_map<std::uint64_t,
                             std::vector<std::weak_ptr<const graph::Skeleton>>>
      interned_;
};

}  // namespace causaliot::serve
