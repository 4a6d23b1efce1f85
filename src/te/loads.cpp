#include "te/loads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace switchboard::te {

Loads::Loads(const model::NetworkModel& model)
    : model_{model},
      site_count_{model.sites().size()},
      link_load_(model.topology().link_count(), 0.0),
      site_load_(site_count_, 0.0),
      vnf_site_load_(model.vnfs().size() * site_count_, 0.0),
      link_epoch_(link_load_.size(), 1),
      vnf_site_epoch_(vnf_site_load_.size(), 1) {}

void Loads::reset() {
  site_count_ = model_.sites().size();
  link_load_.assign(model_.topology().link_count(), 0.0);
  site_load_.assign(site_count_, 0.0);
  vnf_site_load_.assign(model_.vnfs().size() * site_count_, 0.0);
  // Stamp every slot with a fresh version: values cached before the reset
  // carry an older stamp and fail the epoch check.
  ++version_;
  link_epoch_.assign(link_load_.size(), version_);
  vnf_site_epoch_.assign(vnf_site_load_.size(), version_);
}

void Loads::grow_to_model() {
  // The topology, and so the link count, is fixed with the model.
  const std::size_t sites = model_.sites().size();
  const std::size_t vnf_sites = model_.vnfs().size() * sites;
  if (sites == site_count_ && vnf_sites == vnf_site_load_.size()) return;
  // New slots are stamped with a fresh version, like a reset would.
  ++version_;
  site_load_.resize(sites, 0.0);
  // (vnf, site) slots are VNF-major: copy each old row into its place in
  // the wider layout (an unchanged site count just appends rows).
  std::vector<double> load(vnf_sites, 0.0);
  std::vector<std::uint64_t> epoch(vnf_sites, version_);
  for (std::size_t i = 0; i < vnf_site_load_.size(); ++i) {
    const std::size_t moved = i / site_count_ * sites + i % site_count_;
    load[moved] = vnf_site_load_[i];
    epoch[moved] = vnf_site_epoch_[i];
  }
  vnf_site_load_ = std::move(load);
  vnf_site_epoch_ = std::move(epoch);
  site_count_ = sites;
}

void Loads::add_route(const model::Chain& chain,
                      const std::vector<SiteId>& vnf_sites, double weight) {
  NodeId prev = chain.ingress;
  for (std::size_t z = 1; z <= chain.stage_count(); ++z) {
    const NodeId next = z <= vnf_sites.size()
        ? model_.site(vnf_sites[z - 1]).node
        : chain.egress;
    add_stage_flow(chain, z, prev, next, weight);
    prev = next;
  }
}

void Loads::add_stage_flow(const model::Chain& chain, std::size_t z,
                           NodeId n1, NodeId n2, double fraction) {
  SWB_DCHECK(z >= 1 && z <= chain.stage_count());
  const double w = chain.forward_traffic[z - 1] * fraction;
  const double v = chain.reverse_traffic[z - 1] * fraction;
  ++version_;

  // Link load: forward direction follows r_{n1 n2 e}; reverse traffic of
  // the same stage crosses r_{n2 n1 e} (symmetric return, Section 5.3).
  if (n1 != n2) {
    if (w != 0.0) {
      for (const net::LinkShare& share : model_.routing().link_shares(n1, n2)) {
        link_load_[share.link.value()] += w * share.fraction;
        link_epoch_[share.link.value()] = version_;
      }
    }
    if (v != 0.0) {
      for (const net::LinkShare& share : model_.routing().link_shares(n2, n1)) {
        link_load_[share.link.value()] += v * share.fraction;
        link_epoch_[share.link.value()] = version_;
      }
    }
  }

  // Compute load on the VNF at the destination of stage z (entering
  // traffic) and on the VNF at the source (leaving traffic).
  const double stage_volume = w + v;
  if (z < chain.stage_count()) {
    const VnfId f = chain.vnfs[z - 1];
    const auto site = model_.site_at(n2);
    SWB_DCHECK(site.has_value());
    const double load = model_.vnf(f).load_per_unit * stage_volume;
    vnf_site_load_[vnf_site_index(f, *site)] += load;
    vnf_site_epoch_[vnf_site_index(f, *site)] = version_;
    site_load_[site->value()] += load;
  }
  if (z > 1) {
    const VnfId f = chain.vnfs[z - 2];
    const auto site = model_.site_at(n1);
    SWB_DCHECK(site.has_value());
    const double load = model_.vnf(f).load_per_unit * stage_volume;
    vnf_site_load_[vnf_site_index(f, *site)] += load;
    vnf_site_epoch_[vnf_site_index(f, *site)] = version_;
    site_load_[site->value()] += load;
  }
}

double Loads::link_load(LinkId e) const {
  SWB_DCHECK(e.value() < link_load_.size());
  return link_load_[e.value()];
}

double Loads::link_utilization(LinkId e) const {
  const net::Link& link = model_.topology().link(e);
  return (model_.background_traffic(e) + link_load(e)) / link.capacity;
}

double Loads::link_headroom(LinkId e) const {
  const net::Link& link = model_.topology().link(e);
  return model_.mlu_limit() * link.capacity - model_.background_traffic(e) -
         link_load(e);
}

double Loads::site_load(SiteId s) const {
  SWB_DCHECK(s.value() < site_load_.size());
  return site_load_[s.value()];
}

double Loads::vnf_site_load(VnfId f, SiteId s) const {
  SWB_DCHECK(vnf_site_index(f, s) < vnf_site_load_.size());
  return vnf_site_load_[vnf_site_index(f, s)];
}

double Loads::vnf_site_utilization(VnfId f, SiteId s) const {
  const double cap = model_.vnf(f).capacity_at(s);
  return cap > 0 ? vnf_site_load(f, s) / cap : 0.0;
}

double Loads::vnf_site_headroom(VnfId f, SiteId s) const {
  return model_.vnf(f).capacity_at(s) - vnf_site_load(f, s);
}

double Loads::site_headroom(SiteId s) const {
  return model_.site(s).compute_capacity - site_load(s);
}

void Loads::check_invariants(double tolerance) const {
  SWB_CHECK_EQ(site_count_, model_.sites().size());
  SWB_CHECK_EQ(link_load_.size(), model_.topology().link_count());
  SWB_CHECK_EQ(site_load_.size(), site_count_);
  SWB_CHECK_EQ(vnf_site_load_.size(), model_.vnfs().size() * site_count_);
  SWB_CHECK_EQ(link_epoch_.size(), link_load_.size());
  SWB_CHECK_EQ(vnf_site_epoch_.size(), vnf_site_load_.size());
  for (const std::uint64_t e : link_epoch_) SWB_CHECK_LE(e, version_);
  for (const std::uint64_t e : vnf_site_epoch_) SWB_CHECK_LE(e, version_);

  for (std::size_t e = 0; e < link_load_.size(); ++e) {
    SWB_CHECK(std::isfinite(link_load_[e])) << "link " << e;
    SWB_CHECK_GE(link_load_[e], -tolerance) << "link " << e;
  }
  for (const double load : vnf_site_load_) {
    SWB_CHECK(std::isfinite(load) && load >= -tolerance);
  }
  // site_load_ is a denormalized sum over the site's VNF loads; the two
  // accountings must agree or removal (negative fraction) went wrong.
  for (std::size_t s = 0; s < site_count_; ++s) {
    double total = 0.0;
    for (std::size_t f = 0; f < model_.vnfs().size(); ++f) {
      total += vnf_site_load_[f * site_count_ + s];
    }
    SWB_CHECK_LE(std::abs(site_load_[s] - total),
                 tolerance * std::max(1.0, total))
        << "site " << s << " total drifted from its per-VNF sum";
  }
}

void Loads::check_matches(const Loads& rebuilt, double tolerance) const {
  SWB_CHECK(&rebuilt.model_ == &model_);
  SWB_CHECK_EQ(site_count_, rebuilt.site_count_);
  SWB_CHECK_EQ(link_load_.size(), rebuilt.link_load_.size());
  SWB_CHECK_EQ(vnf_site_load_.size(), rebuilt.vnf_site_load_.size());
  for (std::size_t e = 0; e < link_load_.size(); ++e) {
    SWB_CHECK_LE(std::abs(link_load_[e] - rebuilt.link_load_[e]),
                 tolerance * std::max(1.0, rebuilt.link_load_[e]))
        << "link " << e << " load drifted from its routes";
  }
  for (std::size_t s = 0; s < site_count_; ++s) {
    SWB_CHECK_LE(std::abs(site_load_[s] - rebuilt.site_load_[s]),
                 tolerance * std::max(1.0, rebuilt.site_load_[s]))
        << "site " << s << " load drifted from its routes";
  }
  for (std::size_t i = 0; i < vnf_site_load_.size(); ++i) {
    SWB_CHECK_LE(std::abs(vnf_site_load_[i] - rebuilt.vnf_site_load_[i]),
                 tolerance * std::max(1.0, rebuilt.vnf_site_load_[i]))
        << "vnf " << i / site_count_ << " load at site " << i % site_count_
        << " drifted from its routes";
  }
}

void Loads::check_no_capacity_violation(double tolerance) const {
  check_invariants(tolerance);
  for (std::size_t e = 0; e < link_load_.size(); ++e) {
    const LinkId link{static_cast<LinkId::underlying_type>(e)};
    SWB_CHECK_LE(model_.background_traffic(link) + link_load_[e],
                 model_.mlu_limit() * model_.topology().link(link).capacity +
                     tolerance)
        << "link " << e << " over its MLU budget";
  }
  for (std::size_t f = 0; f < model_.vnfs().size(); ++f) {
    for (std::size_t s = 0; s < site_count_; ++s) {
      const VnfId vnf{static_cast<VnfId::underlying_type>(f)};
      const SiteId site{static_cast<SiteId::underlying_type>(s)};
      if (!model_.vnf(vnf).deployed_at(site)) continue;
      SWB_CHECK_LE(vnf_site_load_[f * site_count_ + s],
                   model_.vnf(vnf).capacity_at(site) + tolerance)
          << "vnf " << f << " over capacity at site " << s;
    }
  }
}

}  // namespace switchboard::te
