#include "causaliot/graph/dig.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "causaliot/util/strings.hpp"

namespace causaliot::graph {

namespace {

// The structure of `device_count` devices with no causes yet.
SkeletonRef empty_skeleton(std::size_t device_count, std::size_t max_lag) {
  CAUSALIOT_CHECK_MSG(max_lag >= 1, "max_lag must be >= 1");
  return std::make_shared<const Skeleton>(
      max_lag, std::vector<std::vector<LaggedNode>>(device_count));
}

}  // namespace

InteractionGraph::InteractionGraph(SkeletonRef skeleton, CptPayloadRef base)
    : skeleton_(std::move(skeleton)),
      base_(std::move(base)),
      delta_(skeleton_->device_count()) {}

InteractionGraph::InteractionGraph()
    : InteractionGraph(std::make_shared<const Skeleton>(
                           0, std::vector<std::vector<LaggedNode>>()),
                       std::make_shared<const CptPayload>()) {}

InteractionGraph::InteractionGraph(std::size_t device_count,
                                   std::size_t max_lag)
    : InteractionGraph(empty_skeleton(device_count, max_lag),
                       std::make_shared<const CptPayload>(device_count)) {}

InteractionGraph::InteractionGraph(const InteractionGraph& other)
    : skeleton_(other.skeleton_), base_(other.base_) {
  // The skeleton and base stay shared (copying a tenant's graph is the
  // cheap personalization path); only the delta is deep-copied.
  delta_.resize(other.delta_.size());
  for (std::size_t i = 0; i < other.delta_.size(); ++i) {
    if (other.delta_[i] != nullptr) {
      delta_[i] = std::make_unique<Cpt>(*other.delta_[i]);
    }
  }
}

InteractionGraph& InteractionGraph::operator=(const InteractionGraph& other) {
  if (this == &other) return *this;
  InteractionGraph copy(other);
  *this = std::move(copy);
  return *this;
}

InteractionGraph InteractionGraph::from_template(SkeletonRef skeleton,
                                                 CptPayloadRef base) {
  CAUSALIOT_CHECK_MSG(skeleton != nullptr && base != nullptr,
                      "from_template needs a skeleton and a base payload");
  CAUSALIOT_CHECK_MSG(base->size() == skeleton->device_count(),
                      "base payload / skeleton device-count mismatch");
  for (telemetry::DeviceId child = 0; child < base->size(); ++child) {
    CAUSALIOT_CHECK_MSG((*base)[child].causes() == skeleton->causes(child),
                        "base CPT layout disagrees with skeleton");
  }
  return InteractionGraph(std::move(skeleton), std::move(base));
}

void InteractionGraph::set_causes(telemetry::DeviceId child,
                                  std::vector<LaggedNode> causes) {
  CAUSALIOT_CHECK(child < device_count());
  std::sort(causes.begin(), causes.end());
  // The new Skeleton validates device range, lag range and duplicates;
  // the Cpt caps the cause count.
  auto table = std::make_unique<Cpt>(causes);
  std::vector<std::vector<LaggedNode>> structure;
  structure.reserve(device_count());
  for (telemetry::DeviceId c = 0; c < device_count(); ++c) {
    structure.push_back(skeleton_->causes(c));
  }
  structure[child] = std::move(causes);
  skeleton_ = std::make_shared<const Skeleton>(max_lag(), std::move(structure));
  delta_[child] = std::move(table);
}

const std::vector<LaggedNode>& InteractionGraph::causes(
    telemetry::DeviceId child) const {
  return skeleton_->causes(child);
}

const Cpt& InteractionGraph::cpt(telemetry::DeviceId child) const {
  CAUSALIOT_CHECK(child < delta_.size());
  const Cpt* overridden = delta_[child].get();
  return overridden != nullptr ? *overridden : (*base_)[child];
}

Cpt& InteractionGraph::cpt(telemetry::DeviceId child) {
  CAUSALIOT_CHECK(child < delta_.size());
  if (delta_[child] == nullptr) {
    delta_[child] = std::make_unique<Cpt>((*base_)[child]);
  }
  return *delta_[child];
}

std::vector<Edge> InteractionGraph::edges() const {
  std::vector<Edge> all;
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    for (const LaggedNode& cause : causes(child)) {
      all.push_back({cause, child});
    }
  }
  return all;
}

std::size_t InteractionGraph::edge_count() const {
  return skeleton_->edge_count();
}

bool InteractionGraph::has_edge(telemetry::DeviceId cause_device,
                                std::uint32_t lag,
                                telemetry::DeviceId child) const {
  const LaggedNode target{cause_device, lag};
  const auto& child_causes = causes(child);
  return std::find(child_causes.begin(), child_causes.end(), target) !=
         child_causes.end();
}

bool InteractionGraph::has_interaction(telemetry::DeviceId cause_device,
                                       telemetry::DeviceId child) const {
  const auto& child_causes = causes(child);
  return std::any_of(child_causes.begin(), child_causes.end(),
                     [&](const LaggedNode& c) {
                       return c.device == cause_device;
                     });
}

std::vector<telemetry::DeviceId> InteractionGraph::children(
    telemetry::DeviceId device) const {
  std::vector<telemetry::DeviceId> out;
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    if (has_interaction(device, child)) out.push_back(child);
  }
  return out;
}

std::size_t InteractionGraph::delta_count() const {
  std::size_t count = 0;
  for (const std::unique_ptr<Cpt>& entry : delta_) {
    if (entry != nullptr) ++count;
  }
  return count;
}

const Cpt* InteractionGraph::delta_cpt(telemetry::DeviceId child) const {
  CAUSALIOT_CHECK(child < delta_.size());
  return delta_[child].get();
}

CptPayloadRef InteractionGraph::freeze_cpts() const {
  auto payload = std::make_shared<CptPayload>();
  payload->reserve(device_count());
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    payload->push_back(cpt(child));
  }
  return payload;
}

std::string InteractionGraph::to_dot(
    const telemetry::DeviceCatalog& catalog) const {
  CAUSALIOT_CHECK(catalog.size() == device_count());
  std::ostringstream out;
  out << "digraph DIG {\n  rankdir=LR;\n  node [shape=box];\n";
  for (telemetry::DeviceId id = 0; id < device_count(); ++id) {
    out << "  d" << id << " [label=\"" << catalog.info(id).name << "\"];\n";
  }
  for (const Edge& edge : edges()) {
    out << "  d" << edge.cause.device << " -> d" << edge.child
        << " [label=\"lag " << edge.cause.lag << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

util::Status InteractionGraph::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return util::Error::io_error("cannot open " + path);
  // Counts at max_digits10 round-trip exactly; at the default 6 digits
  // decayed (fractional) and >= 1e6 counts lost digits. Integral counts
  // below 1e6 print as before, with no exponent and no decimals.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "dig v1 " << device_count() << ' ' << max_lag() << '\n';
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    const Cpt& cpt = this->cpt(child);
    out << "child " << child << ' ' << cpt.cause_count() << '\n';
    for (const LaggedNode& cause : cpt.causes()) {
      out << "  cause " << cause.device << ' ' << cause.lag << '\n';
    }
    // Sort entries for a byte-stable file.
    std::vector<std::pair<std::uint64_t, std::array<double, 2>>> entries(
        cpt.counts().begin(), cpt.counts().end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out << "  entries " << entries.size() << '\n';
    for (const auto& [key, counts] : entries) {
      out << "    " << key << ' ' << counts[0] << ' ' << counts[1] << '\n';
    }
  }
  if (!out) return util::Error::io_error("write failed: " + path);
  return util::Status::ok_status();
}

util::Result<InteractionGraph> InteractionGraph::load(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Error::io_error("cannot open " + path);
  std::string tag;
  std::string version;
  std::size_t device_count = 0;
  std::size_t max_lag = 0;
  if (!(in >> tag >> version >> device_count >> max_lag) || tag != "dig" ||
      version != "v1") {
    return util::Error::parse_error("bad DIG header in " + path);
  }
  if (max_lag < 1) return util::Error::parse_error("DIG max_lag must be >= 1");
  // Records are read in child order and grow the tables one at a time,
  // so a header that overstates device_count fails at the first missing
  // record instead of allocating for it.
  std::vector<std::vector<LaggedNode>> structure;
  auto tables = std::make_shared<CptPayload>();
  for (std::size_t i = 0; i < device_count; ++i) {
    std::size_t child = 0;
    std::size_t cause_count = 0;
    if (!(in >> tag >> child >> cause_count) || tag != "child" ||
        child != i) {
      return util::Error::parse_error("bad child record");
    }
    if (cause_count > 64) {  // Cpt::pack keys fit one uint64_t
      return util::Error::parse_error("too many causes for child " +
                                      std::to_string(child));
    }
    std::vector<LaggedNode> causes;
    for (std::size_t c = 0; c < cause_count; ++c) {
      LaggedNode node;
      if (!(in >> tag >> node.device >> node.lag) || tag != "cause") {
        return util::Error::parse_error("bad cause record");
      }
      if (node.device >= device_count || node.lag < 1 || node.lag > max_lag) {
        return util::Error::parse_error("cause out of range for child " +
                                        std::to_string(child));
      }
      causes.push_back(node);
    }
    std::sort(causes.begin(), causes.end());
    if (std::adjacent_find(causes.begin(), causes.end()) != causes.end()) {
      return util::Error::parse_error("duplicate cause for child " +
                                      std::to_string(child));
    }
    Cpt table(causes);
    std::size_t entry_count = 0;
    if (!(in >> tag >> entry_count) || tag != "entries") {
      return util::Error::parse_error("bad entries record");
    }
    for (std::size_t e = 0; e < entry_count; ++e) {
      std::uint64_t key = 0;
      double count0 = 0.0;
      double count1 = 0.0;
      if (!(in >> key >> count0 >> count1) || !(count0 >= 0.0) ||
          !(count1 >= 0.0)) {
        return util::Error::parse_error("bad CPT entry");
      }
      table.set_counts(key, count0, count1);
    }
    structure.push_back(std::move(causes));
    tables->push_back(std::move(table));
  }
  return InteractionGraph(
      std::make_shared<const Skeleton>(max_lag, std::move(structure)),
      std::move(tables));
}

}  // namespace causaliot::graph
