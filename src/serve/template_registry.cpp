#include "causaliot/serve/template_registry.hpp"

#include <algorithm>

#include "causaliot/util/check.hpp"

namespace causaliot::serve {

std::shared_ptr<const ModelSnapshot> instantiate(const ModelTemplate& tpl) {
  return make_snapshot(
      graph::InteractionGraph::from_template(tpl.skeleton, tpl.base_cpts),
      tpl.score_threshold, tpl.laplace_alpha, tpl.version);
}

std::shared_ptr<const ModelTemplate> TemplateRegistry::publish(
    std::string name, const graph::InteractionGraph& graph,
    double score_threshold, double laplace_alpha, std::uint64_t version) {
  auto tpl = std::make_shared<ModelTemplate>();
  tpl->name = name;
  // Freeze outside the lock: freeze_cpts copies every table —
  // publication-path work that must not serialize against find() from
  // ingest transports.
  graph::SkeletonRef skeleton = graph.freeze_skeleton();
  tpl->base_cpts = graph.freeze_cpts();
  tpl->score_threshold = score_threshold;
  tpl->laplace_alpha = laplace_alpha;
  tpl->version = version;

  std::lock_guard<std::mutex> lock(mutex_);
  if (by_name_.count(name) != 0) return nullptr;
  tpl->skeleton = intern_locked(std::move(skeleton));
  std::shared_ptr<const ModelTemplate> published = std::move(tpl);
  by_name_.emplace(std::move(name), published);
  return published;
}

graph::SkeletonRef TemplateRegistry::intern_locked(
    graph::SkeletonRef skeleton) {
  CAUSALIOT_CHECK(skeleton != nullptr);
  auto& bucket = interned_[skeleton->content_hash()];
  // Sweep expired entries while scanning: the pool is weak, so a
  // skeleton whose last template and tenant are gone must not pin a
  // stale slot forever.
  for (auto it = bucket.begin(); it != bucket.end();) {
    if (graph::SkeletonRef existing = it->lock()) {
      if (*existing == *skeleton) return existing;
      ++it;
    } else {
      it = bucket.erase(it);
    }
  }
  bucket.push_back(skeleton);
  return skeleton;
}

std::shared_ptr<const ModelTemplate> TemplateRegistry::find(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(std::string(name));
  return it != by_name_.end() ? it->second : nullptr;
}

bool TemplateRegistry::evict(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.erase(std::string(name)) != 0;
}

std::size_t TemplateRegistry::template_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.size();
}

std::size_t TemplateRegistry::skeleton_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (auto& [hash, bucket] : interned_) {
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [](const auto& weak) {
                                  return weak.expired();
                                }),
                 bucket.end());
    live += bucket.size();
  }
  return live;
}

}  // namespace causaliot::serve
