#include "control/controller_state.hpp"

#include <algorithm>
#include <set>
#include <type_traits>
#include <utility>

#include "common/check.hpp"

namespace switchboard::control {
namespace {

Status reject(const char* why) { return Status{ErrorCode::kNotFound, why}; }

template <typename Record>
void put_line(std::string& out, const Record& record) {
  out += encode_record(record);
  out += '\n';
}

/// A chain's snapshot records: the chain, then begin + commit per route.
std::string encode_block(const ChainRecord& chain) {
  std::string block;
  put_line(block, chain);
  for (const RouteRecord& route : chain.routes) {
    put_line(block, BeginRecord{chain.id, route.id, route.vnf_sites});
    put_line(block, CommitRecord{chain.id, route.id});
  }
  return block;
}

/// Chains stay sorted by id (the model allocates ids in creation order).
template <typename Chains>
auto chain_position(Chains& chains, ChainId id) {
  return std::lower_bound(
      chains.begin(), chains.end(), id,
      [](const ChainRecord& chain, ChainId key) { return chain.id < key; });
}

}  // namespace

const ChainRecord* ControllerState::find_chain(ChainId chain) const {
  const auto it = chain_position(chains, chain);
  return it != chains.end() && it->id == chain ? &*it : nullptr;
}

ChainRecord* ControllerState::find_chain(ChainId chain) {
  return const_cast<ChainRecord*>(std::as_const(*this).find_chain(chain));
}

Status ControllerState::apply(JournalRecord record) {
  return std::visit(
      [this](auto& r) -> Status {
        using R = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<R, EpochRecord>) {
          epoch = std::max(epoch, r.epoch);
        } else if constexpr (std::is_same_v<R, NextRouteRecord>) {
          next_route_id = std::max(next_route_id, r.next_route_id);
        } else if constexpr (std::is_same_v<R, ChainRecord>) {
          const auto at = chain_position(chains, r.id);
          if (at != chains.end() && at->id == r.id) {
            return reject("duplicate chain");
          }
          r.routes.clear();   // routes arrive by begin + commit
          r.active = false;
          // The new chain's block is empty: the next snapshot encodes it.
          blocks_.emplace(blocks_.begin() + (at - chains.begin()));
          chains.insert(at, std::move(r));
        } else if constexpr (std::is_same_v<R, BeginRecord>) {
          const ChainRecord* chain = find_chain(r.chain);
          if (chain == nullptr) return reject("begin for unknown chain");
          const bool committed = std::any_of(
              chain->routes.begin(), chain->routes.end(),
              [&](const RouteRecord& route) { return route.id == r.route; });
          if (committed || !r.route.valid() ||
              r.vnf_sites.size() != chain->spec.vnfs.size()) {
            return reject("begin does not fit its chain");
          }
          inflight[{r.chain.value(), r.route.value()}] =
              Inflight{std::move(r.vnf_sites), /*prepared=*/false};
          next_route_id = std::max(next_route_id, r.route.value() + 1);
        } else if constexpr (std::is_same_v<R, PrepRecord>) {
          const auto it = inflight.find({r.chain.value(), r.route.value()});
          if (it == inflight.end()) return reject("prep without begin");
          it->second.prepared = true;
        } else if constexpr (std::is_same_v<R, CommitRecord>) {
          const auto it = inflight.find({r.chain.value(), r.route.value()});
          if (it == inflight.end()) return reject("commit without begin");
          // A begin only applies to a known chain, which is never removed.
          ChainRecord* chain = find_chain(r.chain);
          SWB_CHECK(chain != nullptr);
          chain->routes.push_back(
              RouteRecord{r.route, std::move(it->second.vnf_sites), 1.0});
          drop_block(*chain);
          inflight.erase(it);
        } else if constexpr (std::is_same_v<R, AbortRecord> ||
                             std::is_same_v<R, RetireRecord>) {
          inflight.erase({r.chain.value(), r.route.value()});
          ChainRecord* chain = find_chain(r.chain);
          if (chain != nullptr &&
              std::erase_if(chain->routes, [&](const RouteRecord& route) {
                return route.id == r.route;
              }) > 0) {
            drop_block(*chain);
          }
        } else if constexpr (std::is_same_v<R, PoolDownRecord>) {
          dead_pools[{r.vnf.value(), r.site.value()}] = r.capacity;
        } else {
          static_assert(std::is_same_v<R, PoolUpRecord>);
          dead_pools.erase({r.vnf.value(), r.site.value()});
        }
        return Status{};
      },
      record);
}

void ControllerState::drop_block(const ChainRecord& chain) {
  const auto index = static_cast<std::size_t>(&chain - chains.data());
  SWB_DCHECK_LT(index, blocks_.size());
  blocks_[index].clear();
}

bool ControllerState::apply_line(std::string_view line,
                                 const IdCheck& known) {
  Result<JournalRecord> record = decode_record(line);
  return record.ok() && known(record.value()) &&
         apply(std::move(record).value()).ok();
}

std::size_t ControllerState::apply_lines(
    const std::vector<std::string>& lines, const IdCheck& known) {
  return static_cast<std::size_t>(std::count_if(
      lines.begin(), lines.end(),
      [&](const std::string& line) { return !apply_line(line, known); }));
}

std::string ControllerState::snapshot() const {
  SWB_CHECK_EQ(blocks_.size(), chains.size())
      << "chains inserted or erased outside apply()";
  std::size_t block_bytes = 0;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    if (blocks_[c].empty()) blocks_[c] = encode_block(chains[c]);
    block_bytes += blocks_[c].size();
  }
  std::string blob;
  put_line(blob, EpochRecord{epoch});
  put_line(blob, NextRouteRecord{next_route_id});
  blob.reserve(blob.size() + block_bytes);
  for (const std::string& block : blocks_) blob += block;
  for (const auto& [pool, capacity] : dead_pools) {
    put_line(blob,
             PoolDownRecord{VnfId{pool.first}, SiteId{pool.second}, capacity});
  }
  for (const auto& [key, round] : inflight) {
    const ChainId chain{key.first};
    const RouteId route{key.second};
    put_line(blob, BeginRecord{chain, route, round.vnf_sites});
    if (round.prepared) put_line(blob, PrepRecord{chain, route});
  }
  return blob;
}

void ControllerState::check_invariants() const {
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const ChainRecord& chain = chains[c];
    SWB_CHECK(c == 0 || chains[c - 1].id < chain.id)
        << "chains out of id order at chain " << chain.id.value();
    std::set<std::uint32_t> route_ids;
    for (const RouteRecord& route : chain.routes) {
      SWB_CHECK_LT(route.id.value(), next_route_id)
          << "route id outside the allocator for chain " << chain.id.value();
      SWB_CHECK(route_ids.insert(route.id.value()).second)
          << "duplicate route id " << route.id.value() << " in chain "
          << chain.id.value();
      // One placement per VNF stage — route announcements index
      // vnf_sites positionally against spec.vnfs.
      SWB_CHECK_EQ(route.vnf_sites.size(), chain.spec.vnfs.size())
          << "chain " << chain.id.value() << " route " << route.id.value();
      SWB_CHECK(inflight.count({chain.id.value(), route.id.value()}) == 0)
          << "round (" << chain.id.value() << "," << route.id.value()
          << ") both in flight and committed";
    }
  }
  SWB_CHECK_EQ(blocks_.size(), chains.size())
      << "chains inserted or erased outside apply()";
  for (std::size_t c = 0; c < chains.size(); ++c) {
    SWB_CHECK(blocks_[c].empty() || blocks_[c] == encode_block(chains[c]))
        << "chain " << chains[c].id.value()
        << " changed a journaled field outside apply()";
  }
}

}  // namespace switchboard::control
