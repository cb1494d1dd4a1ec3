#include "core/resource_manager.hpp"

#include <stdexcept>

#include "reputation/rating.hpp"

namespace st::core {

ResourceManagerNetwork::ResourceManagerNetwork(
    std::unique_ptr<reputation::ReputationSystem> inner,
    const graph::SocialGraph& graph, const InterestProfiles& profiles,
    SocialTrustConfig config, std::size_t manager_count)
    : manager_count_(manager_count) {
  if (manager_count_ == 0)
    throw std::invalid_argument(
        "ResourceManagerNetwork: need at least one manager");
  plugin_ = std::make_unique<SocialTrustPlugin>(std::move(inner), graph,
                                                profiles, config);
  name_ = std::string(plugin_->name()) + "(distributed)";
  manager_load_.assign(manager_count_, 0);
}

void ResourceManagerNetwork::update(
    std::span<const reputation::Rating> cycle_ratings) {
  traffic_ = ManagerTrafficReport{};
  std::fill(manager_load_.begin(), manager_load_.end(), 0);

  // Route each rating the plugin accepts to the ratee's manager (one
  // message per rating).
  for (const reputation::Rating& r : cycle_ratings) {
    if (!reputation::valid_rating(r, size())) continue;
    ++traffic_.ratings_routed;
    ++manager_load_[manager_of(r.ratee)];
  }

  // The adjustment mathematics is shared with the centralised plugin, so
  // distributed execution is reputations-identical by construction.
  plugin_->update(cycle_ratings);

  // Protocol accounting from the detector hits: a flagged pair whose rater
  // lives under a different manager than the ratee costs one
  // social-information fetch (Mj -> Mi) plus one adjustment notification.
  for (const FlaggedPair& fp : plugin_->last_report().flagged) {
    if (manager_of(fp.rater) != manager_of(fp.ratee)) {
      ++traffic_.info_requests;
    } else {
      ++traffic_.local_hits;
    }
    ++traffic_.adjustments_applied;
  }

  total_traffic_.ratings_routed += traffic_.ratings_routed;
  total_traffic_.info_requests += traffic_.info_requests;
  total_traffic_.adjustments_applied += traffic_.adjustments_applied;
  total_traffic_.local_hits += traffic_.local_hits;
}

void ResourceManagerNetwork::reset() {
  plugin_->reset();
  traffic_ = ManagerTrafficReport{};
  total_traffic_ = ManagerTrafficReport{};
  std::fill(manager_load_.begin(), manager_load_.end(), 0);
}

}  // namespace st::core
