#include "te/lp_routing.hpp"
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "lp/problem.hpp"
#include "te/lp_routing_detail.hpp"

namespace switchboard::te {

namespace detail {
namespace {

/// Weight of the latency term added to throughput objectives so that,
/// among max-throughput routings, low-latency ones win.
constexpr double kLatencyTiebreak = 1e-4;

}  // namespace

BuiltLp build_routing_lp(const model::NetworkModel& model,
                         const LpRoutingOptions& options) {
  using lp::Relation;
  using lp::Term;
  using lp::VarIndex;

  const bool minimize = options.objective == LpObjective::kMinLatency;
  BuiltLp built;
  built.problem.set_sense(minimize ? lp::Sense::kMinimize
                                   : lp::Sense::kMaximize);
  lp::Problem& problem = built.problem;

  const auto& chains = model.chains();
  const std::size_t site_count = model.sites().size();

  // ---- variables -----------------------------------------------------
  // The latency objective coefficient is attached at creation; throughput
  // modes negate it as a tie-break.
  const double latency_sign = minimize ? 1.0 : -kLatencyTiebreak;
  built.vars.resize(chains.size());
  for (const model::Chain& chain : chains) {
    auto& stage_vars = built.vars[chain.id.value()];
    stage_vars.resize(chain.stage_count());
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      StageVars& sv = stage_vars[z - 1];
      sv.sources = model.stage_sources(chain, z);
      sv.dests = model.stage_destinations(chain, z);
      sv.base = problem.variable_count();
      const double stage_traffic = chain.stage_traffic(z);
      for (std::size_t i = 0; i < sv.sources.size(); ++i) {
        for (std::size_t j = 0; j < sv.dests.size(); ++j) {
          const double delay =
              model.delay_ms(sv.sources[i].node, sv.dests[j].node);
          if (std::isfinite(delay)) {
            problem.add_variable(latency_sign * stage_traffic * delay);
          } else {
            // Unreachable pair: keep the variable so var() arithmetic
            // stays trivial, but pin it to zero via its bounds instead of
            // a penalty coefficient (which distorted the objective).
            const lp::VarIndex v = problem.add_variable(0.0);
            problem.set_upper_bound(v, 0.0);
          }
        }
      }
    }
  }

  // Mode variables.
  built.planning = options.cloud_capacity_budget >= 0.0 &&
                   options.objective == LpObjective::kMaxUniformScale;
  if (options.objective == LpObjective::kMaxUniformScale) {
    built.alpha_var = problem.add_variable(1.0, "alpha");
    if (built.planning) {
      std::vector<Term> budget_terms;
      for (const model::CloudSite& site : model.sites()) {
        const VarIndex a = problem.add_variable(0.0, "a_" + site.name);
        built.a_vars.push_back(a);
        budget_terms.push_back({a, 1.0});
      }
      problem.add_constraint(Relation::kLessEqual,
                             options.cloud_capacity_budget,
                             std::move(budget_terms), "capacity_budget");
    }
  } else if (options.objective == LpObjective::kMaxThroughput) {
    built.t_vars.reserve(chains.size());
    for (const model::Chain& chain : chains) {
      const VarIndex t = problem.add_variable(chain.total_traffic(),
                                              "t_" + chain.name);
      problem.set_upper_bound(t, 1.0);   // carried fraction t_c <= 1
      built.t_vars.push_back(t);
    }
  }

  // ---- ingress coupling + flow conservation ---------------------------
  for (const model::Chain& chain : chains) {
    const auto& stage_vars = built.vars[chain.id.value()];
    const StageVars& first = stage_vars[0];

    std::vector<Term> ingress_terms;
    for (std::size_t j = 0; j < first.dests.size(); ++j) {
      ingress_terms.push_back({first.var(0, j), 1.0});
    }
    switch (options.objective) {
      case LpObjective::kMinLatency:
        problem.add_constraint(Relation::kEqual, 1.0,
                               std::move(ingress_terms));
        break;
      case LpObjective::kMaxThroughput:
        ingress_terms.push_back({built.t_vars[chain.id.value()], -1.0});
        problem.add_constraint(Relation::kEqual, 0.0,
                               std::move(ingress_terms));
        break;
      case LpObjective::kMaxUniformScale:
        ingress_terms.push_back({built.alpha_var, -1.0});
        problem.add_constraint(Relation::kEqual, 0.0,
                               std::move(ingress_terms));
        break;
    }

    // Eq. 5: traffic entering the VNF of stage z at a site equals traffic
    // leaving at stage z+1.
    for (std::size_t z = 1; z < chain.stage_count(); ++z) {
      const StageVars& in = stage_vars[z - 1];
      const StageVars& out = stage_vars[z];
      SWB_DCHECK(in.dests.size() == out.sources.size());
      for (std::size_t s = 0; s < in.dests.size(); ++s) {
        std::vector<Term> terms;
        for (std::size_t i = 0; i < in.sources.size(); ++i) {
          terms.push_back({in.var(i, s), 1.0});
        }
        for (std::size_t j = 0; j < out.dests.size(); ++j) {
          terms.push_back({out.var(s, j), -1.0});
        }
        problem.add_constraint(Relation::kEqual, 0.0, std::move(terms));
      }
    }
  }

  // ---- compute capacity (Eq. 4) ---------------------------------------
  // Accumulate terms per (vnf, site) and per site.
  std::vector<std::vector<Term>> vnf_site_terms(model.vnfs().size() *
                                                site_count);
  std::vector<std::vector<Term>> site_terms(site_count);
  for (const model::Chain& chain : chains) {
    const auto& stage_vars = built.vars[chain.id.value()];
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      const StageVars& sv = stage_vars[z - 1];
      const double stage_traffic = chain.stage_traffic(z);
      for (std::size_t i = 0; i < sv.sources.size(); ++i) {
        for (std::size_t j = 0; j < sv.dests.size(); ++j) {
          const VarIndex x = sv.var(i, j);
          if (z < chain.stage_count()) {
            const VnfId f = chain.vnfs[z - 1];
            const SiteId s = sv.dests[j].site;
            const double load = model.vnf(f).load_per_unit * stage_traffic;
            vnf_site_terms[f.value() * site_count + s.value()].push_back(
                {x, load});
            site_terms[s.value()].push_back({x, load});
          }
          if (z > 1) {
            const VnfId f = chain.vnfs[z - 2];
            const SiteId s = sv.sources[i].site;
            const double load = model.vnf(f).load_per_unit * stage_traffic;
            vnf_site_terms[f.value() * site_count + s.value()].push_back(
                {x, load});
            site_terms[s.value()].push_back({x, load});
          }
        }
      }
    }
  }
  for (const model::Vnf& vnf : model.vnfs()) {
    for (const model::VnfDeployment& dep : vnf.deployments) {
      auto& terms = vnf_site_terms[vnf.id.value() * site_count +
                                   dep.site.value()];
      if (terms.empty()) continue;
      if (built.planning) {
        // VNF capacity grows proportionally with its site's expansion.
        const double site_cap = model.site(dep.site).compute_capacity;
        if (site_cap > 0) {
          terms.push_back(
              {built.a_vars[dep.site.value()], -dep.capacity / site_cap});
        }
      }
      problem.add_constraint(Relation::kLessEqual, dep.capacity,
                             std::move(terms));
    }
  }
  for (const model::CloudSite& site : model.sites()) {
    auto& terms = site_terms[site.id.value()];
    if (terms.empty()) continue;
    if (built.planning) {
      terms.push_back({built.a_vars[site.id.value()], -1.0});
    }
    problem.add_constraint(Relation::kLessEqual, site.compute_capacity,
                           std::move(terms));
  }

  // ---- MLU bound (Eqs. 6-7) -------------------------------------------
  std::vector<std::vector<Term>> link_terms(model.topology().link_count());
  for (const model::Chain& chain : chains) {
    const auto& stage_vars = built.vars[chain.id.value()];
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      const StageVars& sv = stage_vars[z - 1];
      const double w = chain.forward_traffic[z - 1];
      const double v = chain.reverse_traffic[z - 1];
      for (std::size_t i = 0; i < sv.sources.size(); ++i) {
        for (std::size_t j = 0; j < sv.dests.size(); ++j) {
          const NodeId n1 = sv.sources[i].node;
          const NodeId n2 = sv.dests[j].node;
          if (n1 == n2) continue;
          const VarIndex x = sv.var(i, j);
          for (const net::LinkShare& share :
               model.routing().link_shares(n1, n2)) {
            link_terms[share.link.value()].push_back({x, w * share.fraction});
          }
          for (const net::LinkShare& share :
               model.routing().link_shares(n2, n1)) {
            link_terms[share.link.value()].push_back({x, v * share.fraction});
          }
        }
      }
    }
  }
  for (const net::Link& link : model.topology().links()) {
    auto& terms = link_terms[link.id.value()];
    if (terms.empty()) continue;
    const double budget = model.mlu_limit() * link.capacity -
                          model.background_traffic(link.id);
    problem.add_constraint(Relation::kLessEqual, budget, std::move(terms));
  }

  return built;
}

void extract_routing(const model::NetworkModel& model, const BuiltLp& built,
                     const std::vector<double>& values,
                     const LpRoutingOptions& options,
                     LpRoutingResult& result) {
  const auto& chains = model.chains();
  result.routing.resize(chains.size());
  for (const model::Chain& chain : chains) {
    result.routing.init_chain(chain.id, chain.stage_count());
    const auto& stage_vars = built.vars[chain.id.value()];
    for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
      const StageVars& sv = stage_vars[z - 1];
      for (std::size_t i = 0; i < sv.sources.size(); ++i) {
        for (std::size_t j = 0; j < sv.dests.size(); ++j) {
          const double x = values[sv.var(i, j)];
          if (x > 1e-9) {
            result.routing.add_flow(chain.id, z, sv.sources[i].node,
                                    sv.dests[j].node, x);
          }
        }
      }
    }
  }
  if (options.objective == LpObjective::kMaxUniformScale) {
    result.alpha = values[built.alpha_var];
    if (built.planning) {
      result.extra_site_capacity.reserve(built.a_vars.size());
      for (const lp::VarIndex a : built.a_vars) {
        result.extra_site_capacity.push_back(values[a]);
      }
    }
  }
  if (options.objective == LpObjective::kMaxThroughput) {
    for (const model::Chain& chain : chains) {
      result.carried_volume +=
          chain.total_traffic() * values[built.t_vars[chain.id.value()]];
    }
  }
}

}  // namespace detail

LpRoutingResult solve_lp_routing(const model::NetworkModel& model,
                                 const LpRoutingOptions& options) {
  detail::BuiltLp built = detail::build_routing_lp(model, options);
  LpRoutingResult result;
  const lp::Solution solution =
      lp::solve_simplex(built.problem, {}, options.warm_start);
  result.status = solution.status;
  result.stats = solution.stats;
  if (!solution.optimal()) return result;
  result.objective = solution.objective;
  result.basis = solution.basis;
  detail::extract_routing(model, built, solution.values, options, result);
  return result;
}

std::optional<std::vector<SiteId>> primary_route_sites(
    const model::NetworkModel& model, const ChainRouting& routing,
    ChainId chain) {
  if (!routing.has_chain(chain)) return std::nullopt;
  const model::Chain& spec = model.chain(chain);
  const std::size_t stages = spec.vnfs.size();
  if (routing.stage_count(chain) < stages) return std::nullopt;

  std::vector<SiteId> sites;
  sites.reserve(stages);
  NodeId current = spec.ingress;
  for (std::size_t z = 1; z <= stages; ++z) {
    const StageFlow* best = nullptr;
    for (const StageFlow& flow : routing.flows(chain, z)) {
      if (flow.src != current || flow.fraction <= 0.0) continue;
      if (best == nullptr || flow.fraction > best->fraction ||
          (flow.fraction == best->fraction &&
           flow.dst.value() < best->dst.value())) {
        best = &flow;
      }
    }
    if (best == nullptr) return std::nullopt;
    const std::optional<SiteId> site = model.site_at(best->dst);
    if (!site.has_value()) return std::nullopt;   // not a deployment site
    sites.push_back(*site);
    current = best->dst;
  }
  return sites;
}

}  // namespace switchboard::te
