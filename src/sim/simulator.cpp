#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace st::sim {

Simulator::Simulator(SimConfig config, SystemFactory factory,
                     std::unique_ptr<CollusionStrategy> strategy,
                     std::uint64_t seed)
    : config_(config),
      rng_(seed),
      graph_(config.node_count),
      profiles_(config.node_count, config.interest_count),
      interest_members_(config.interest_count),
      types_(config.node_count, NodeType::kNormal),
      roles_(config.node_count, CollusionRole::kNone),
      compromised_(config.node_count, false),
      active_prob_(config.node_count, 1.0),
      whitewash_counts_(config.node_count, 0),
      capacity_left_(config.node_count, 0),
      strategy_(std::move(strategy)) {
  if (config_.node_count == 0)
    throw std::invalid_argument("Simulator: node_count must be > 0");
  if (config_.pretrusted_count + config_.colluder_count > config_.node_count)
    throw std::invalid_argument(
        "Simulator: pretrusted + colluders exceed node count");
  if (!factory) throw std::invalid_argument("Simulator: null SystemFactory");

  auto& registry = obs::Obs::instance().registry();
  obs_.requests = &registry.counter("sim.requests");
  obs_.requests_to_colluders = &registry.counter("sim.requests_to_colluders");
  obs_.requests_to_pretrusted =
      &registry.counter("sim.requests_to_pretrusted");
  obs_.authentic_services = &registry.counter("sim.authentic_services");
  obs_.inauthentic_services = &registry.counter("sim.inauthentic_services");
  obs_.ratings = &registry.counter("sim.ratings");
  obs_.fake_ratings = &registry.counter("sim.fake_ratings");

  assign_interests();
  assign_roles();
  build_social_graph();
  preferred_provider_.assign(
      config_.node_count,
      std::vector<NodeId>(config_.interest_count, static_cast<NodeId>(-1)));
  for (NodeId v = 0; v < config_.node_count; ++v) {
    active_prob_[v] =
        rng_.uniform(config_.active_prob_min, config_.active_prob_max);
  }
  system_ = factory(graph_, profiles_, pretrusted_, config_.node_count);
  if (!system_ || system_->size() != config_.node_count)
    throw std::invalid_argument(
        "Simulator: factory returned null or wrongly sized system");
  if (strategy_) strategy_->setup(*this, rng_);
}

void Simulator::assign_interests() {
  interest_rank_.resize(config_.node_count);
  request_dist_.reserve(config_.node_count);
  for (NodeId v = 0; v < config_.node_count; ++v) {
    auto count = static_cast<std::size_t>(rng_.uniform_u64(
        config_.min_interests,
        std::min(config_.max_interests, config_.interest_count)));
    auto picks = rng_.sample_without_replacement(config_.interest_count,
                                                 count);
    // The sample order is already random; treat it as the node's interest
    // ranking (rank 0 = favourite category) and declare the set.
    std::vector<InterestId> ranked;
    ranked.reserve(picks.size());
    for (std::size_t p : picks) ranked.push_back(static_cast<InterestId>(p));
    interest_rank_[v] = ranked;
    profiles_.set_interests(v, ranked);
    for (InterestId cat : ranked) interest_members_[cat].push_back(v);
    request_dist_.emplace_back(ranked.size(), config_.request_zipf_exponent);
  }
}

void Simulator::assign_roles() {
  // Paper id convention (1-based ids 1-9 and 10-39) maps to indices
  // [0, pretrusted_count) and [pretrusted_count, +colluder_count).
  pretrusted_.clear();
  colluders_.clear();
  for (std::size_t i = 0; i < config_.pretrusted_count; ++i) {
    auto id = static_cast<NodeId>(i);
    types_[id] = NodeType::kPretrusted;
    pretrusted_.push_back(id);
  }
  for (std::size_t i = 0; i < config_.colluder_count; ++i) {
    auto id = static_cast<NodeId>(config_.pretrusted_count + i);
    types_[id] = NodeType::kColluder;
    colluders_.push_back(id);
  }
}

void Simulator::build_social_graph() {
  // Background friendship graph: social_degree random friends per node, so
  // pairwise distances concentrate on 1-3 hops (cf. Section 5.1). Each
  // edge carries [normal_relationships_min, max] relationship types;
  // colluder-colluder edges carry [colluder_relationships_min, max] and are
  // wired by the collusion strategy (which also fixes their distance to 1).
  const std::size_t n = config_.node_count;
  const std::size_t target_edges = n * config_.social_degree / 2;
  std::size_t made = 0;
  std::size_t guard = 0;
  while (made < target_edges && guard++ < target_edges * 50) {
    auto a = static_cast<NodeId>(rng_.index(n));
    auto b = static_cast<NodeId>(rng_.index(n));
    if (a == b || graph_.adjacent(a, b)) continue;
    auto rel_count = static_cast<std::size_t>(
        rng_.uniform_u64(config_.normal_relationships_min,
                         config_.normal_relationships_max));
    auto rels = rng_.sample_without_replacement(graph::kRelationshipCount,
                                                rel_count);
    for (std::size_t r : rels) {
      graph_.add_relationship(a, b, static_cast<graph::Relationship>(r));
    }
    ++made;
  }
}

std::uint32_t Simulator::whitewash(NodeId node) {
  system_->forget_node(node);
  graph_.clear_node(node);
  profiles_.clear_requests(node);
  // Clients attached to the vanished identity must re-select.
  for (auto& per_interest : preferred_provider_) {
    for (NodeId& provider : per_interest) {
      if (provider == node) provider = static_cast<NodeId>(-1);
    }
  }
  current_bar_ = selection_bar();
  return ++whitewash_counts_[node];
}

double Simulator::authentic_probability(NodeId node) const {
  switch (types_.at(node)) {
    case NodeType::kPretrusted:
      return config_.pretrusted_authentic;
    case NodeType::kNormal:
      return config_.normal_authentic;
    case NodeType::kColluder:
      return config_.colluder_authentic;
  }
  return config_.normal_authentic;
}

void Simulator::submit_rating(NodeId rater, NodeId ratee, double value,
                              InterestId interest, bool is_transaction) {
  reputation::Rating r;
  r.rater = rater;
  r.ratee = ratee;
  r.value = value;
  r.interest = interest;
  ledger_.record(r);
  obs_.ratings->add(1);
  // Rating frequency doubles as social interaction frequency f(i,j)
  // (Section 5.1: "The social interaction frequency f(i,j) equals the
  // rating frequency of n_i to n_j").
  graph_.record_interaction(rater, ratee);
  if (is_transaction) {
    profiles_.record_request(rater, interest);
  } else {
    ++fake_ratings_;
    obs_.fake_ratings->add(1);
  }
}

namespace {
constexpr NodeId kNoProvider = static_cast<NodeId>(-1);
}  // namespace

double Simulator::selection_bar() const {
  if (!config_.relative_reputation_threshold) {
    return config_.reputation_threshold;
  }
  auto reps = system_->reputations();
  double max_rep = 0.0;
  for (double r : reps) max_rep = std::max(max_rep, r);
  return config_.reputation_threshold * max_rep;
}

NodeId Simulator::select_server(NodeId client, InterestId interest) {
  // Reputations only change at simulation-cycle boundaries, so the bar is
  // refreshed there (run loop) and reused across the cycle's requests.
  const double bar = current_bar_;
  // Repeat patronage: stay with the current provider while it has spare
  // capacity and still satisfies the selection rule's reputation bar (it
  // is dropped on inauthentic service in issue_request).
  if (config_.sticky_selection) {
    NodeId pref = preferred_provider_[client][interest];
    if (pref != kNoProvider && pref != client && capacity_left_[pref] > 0 &&
        system_->reputation(pref) > bar) {
      return pref;
    }
  }
  const auto& members = interest_members_.at(interest);
  if (members.empty()) return client;
  // Bounded-patience draw: sample random capacitated interest neighbours,
  // accept the first above the reputation bar, settle for the last
  // otherwise. (A few extra draws absorb self/full-capacity hits.)
  NodeId fallback = client;
  std::size_t eligible_draws = 0;
  for (std::size_t attempt = 0;
       attempt < (config_.selection_patience + 1) * 4; ++attempt) {
    NodeId cand = members[rng_.index(members.size())];
    if (cand == client || capacity_left_[cand] == 0) continue;
    fallback = cand;
    if (system_->reputation(cand) > bar) break;
    if (++eligible_draws > config_.selection_patience) break;
  }
  if (fallback == client) return client;  // sentinel: no server available
  if (config_.sticky_selection) {
    preferred_provider_[client][interest] = fallback;
  }
  return fallback;
}

void Simulator::issue_request(NodeId client) {
  const auto& ranked = interest_rank_[client];
  if (ranked.empty()) return;
  InterestId interest = ranked[request_dist_[client](rng_)];
  NodeId server = select_server(client, interest);
  if (server == client) return;  // nobody can serve this cycle

  --capacity_left_[server];
  ++total_requests_;
  obs_.requests->add(1);
  if (types_[server] == NodeType::kColluder) {
    ++requests_to_colluders_;
    obs_.requests_to_colluders->add(1);
  }
  if (types_[server] == NodeType::kPretrusted) {
    ++requests_to_pretrusted_;
    obs_.requests_to_pretrusted->add(1);
  }

  bool authentic = rng_.bernoulli(authentic_probability(server));
  if (authentic) {
    ++authentic_services_;
    obs_.authentic_services->add(1);
  } else {
    ++inauthentic_services_;
    obs_.inauthentic_services->add(1);
    // Dissatisfied clients abandon the provider (inference I1: a buyer is
    // "unlikely to repeatedly choose a seller with low QoS").
    if (config_.sticky_selection) {
      preferred_provider_[client][interest] = kNoProvider;
    }
  }
  submit_rating(client, server, authentic ? 1.0 : -1.0, interest,
                /*is_transaction=*/true);
}

void Simulator::record_cycle_metrics(RunResult& result) {
  auto group_mean = [&](const std::vector<NodeId>& group) {
    if (group.empty()) return 0.0;
    double sum = 0.0;
    for (NodeId v : group) sum += system_->reputation(v);
    return sum / static_cast<double>(group.size());
  };
  result.pretrusted_mean_by_cycle.push_back(group_mean(pretrusted_));
  result.colluder_mean_by_cycle.push_back(group_mean(colluders_));

  double normal_sum = 0.0;
  std::size_t normal_count = 0;
  for (NodeId v = 0; v < config_.node_count; ++v) {
    if (types_[v] == NodeType::kNormal) {
      normal_sum += system_->reputation(v);
      ++normal_count;
    }
  }
  result.normal_mean_by_cycle.push_back(
      normal_count ? normal_sum / static_cast<double>(normal_count) : 0.0);

  for (std::size_t c = 0; c < colluders_.size(); ++c) {
    result.colluder_history[c].push_back(
        system_->reputation(colluders_[c]));
  }
}

void Simulator::finalize_metrics(RunResult& result) const {
  result.final_reputation.assign(system_->reputations().begin(),
                                 system_->reputations().end());

  double boosted_sum = 0.0, boosting_sum = 0.0;
  std::size_t boosted_n = 0, boosting_n = 0;
  for (NodeId c : colluders_) {
    CollusionRole role = roles_[c];
    double rep = result.final_reputation[c];
    if (role == CollusionRole::kBoosted || role == CollusionRole::kBoth) {
      boosted_sum += rep;
      ++boosted_n;
    }
    if (role == CollusionRole::kBoosting || role == CollusionRole::kBoth) {
      boosting_sum += rep;
      ++boosting_n;
    }
  }
  result.boosted_final_mean =
      boosted_n ? boosted_sum / static_cast<double>(boosted_n) : 0.0;
  result.boosting_final_mean =
      boosting_n ? boosting_sum / static_cast<double>(boosting_n) : 0.0;

  std::vector<double> normal_reps;
  for (NodeId v = 0; v < config_.node_count; ++v) {
    if (types_[v] == NodeType::kNormal) {
      normal_reps.push_back(result.final_reputation[v]);
    }
  }
  if (!normal_reps.empty()) {
    auto mid = normal_reps.begin() +
               static_cast<long>(normal_reps.size() / 2);
    std::nth_element(normal_reps.begin(), mid, normal_reps.end());
    result.normal_final_median = *mid;
  }
  result.total_requests = total_requests_;
  result.requests_to_colluders = requests_to_colluders_;
  result.requests_to_pretrusted = requests_to_pretrusted_;
  result.authentic_services = authentic_services_;
  result.inauthentic_services = inauthentic_services_;
  result.fake_ratings = fake_ratings_;

  // Convergence: last cycle after which the colluder's reputation stayed
  // below epsilon until the end of the run.
  result.colluder_convergence_cycle.resize(colluders_.size());
  const auto cycles =
      static_cast<std::uint32_t>(config_.simulation_cycles);
  for (std::size_t c = 0; c < colluders_.size(); ++c) {
    const auto& history = result.colluder_history[c];
    std::uint32_t converged_at = cycles + 1;
    for (std::uint32_t t = static_cast<std::uint32_t>(history.size()); t > 0;
         --t) {
      if (history[t - 1] < config_.convergence_epsilon) {
        converged_at = t - 1;
      } else {
        break;
      }
    }
    result.colluder_convergence_cycle[c] = converged_at;
  }
}

RunResult Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run may be called once");
  ran_ = true;

  RunResult result;
  result.colluder_history.resize(colluders_.size());

  current_bar_ = selection_bar();
  for (std::size_t cycle = 0; cycle < config_.simulation_cycles; ++cycle) {
    for (std::size_t qc = 0; qc < config_.query_cycles_per_cycle; ++qc) {
      // Capacity renews every query cycle ("each node can handle 50
      // requests simultaneously per query cycle").
      std::fill(capacity_left_.begin(), capacity_left_.end(),
                static_cast<std::uint32_t>(config_.capacity_per_query_cycle));
      for (NodeId v = 0; v < config_.node_count; ++v) {
        if (rng_.bernoulli(active_prob_[v])) issue_request(v);
      }
      if (strategy_) {
        strategy_->on_query_cycle(*this, static_cast<std::uint32_t>(qc),
                                  rng_);
      }
    }
    ledger_.close_cycle();
    // Compact any pending graph deltas before the parallel reputation
    // update so every closeness BFS and common-friend merge this interval
    // walks pure flat rows. Representation-only: the structure epoch does
    // not move, so the update pass sees bit-identical social state either
    // way.
    graph_.begin_interval();
    system_->update(ledger_.last_cycle());
    current_bar_ = selection_bar();
    record_cycle_metrics(result);
    // Observation only — the extras are this run's cumulative tallies at
    // the end of each simulation cycle (rates fall out by differencing
    // consecutive events); nothing here affects the simulation.
    if (obs::enabled()) {
      const obs::ExtraField extras[] = {
          {"cycle", static_cast<double>(cycle)},
          {"requests", static_cast<double>(total_requests_)},
          {"requests_to_colluders",
           static_cast<double>(requests_to_colluders_)},
          {"requests_to_pretrusted",
           static_cast<double>(requests_to_pretrusted_)},
          {"authentic_services", static_cast<double>(authentic_services_)},
          {"inauthentic_services",
           static_cast<double>(inauthentic_services_)},
          {"fake_ratings", static_cast<double>(fake_ratings_)},
      };
      obs::Obs::instance().emit_interval("sim.cycle", system_->name(),
                                         extras);
    }
  }

  finalize_metrics(result);
  return result;
}

}  // namespace st::sim
