// control::ControllerState: everything the Global Switchboard journals —
// epoch, route-id allocator, chains with their committed routes, in-flight
// 2PC rounds, dead VNF pools — and apply(), the one interpreter of journal
// records.  The live controller applies a change, then appends its record;
// a cold start folds snapshot + log through apply(); a hot standby applies
// each streamed record and hands its state over on promotion.  Route
// weights, `active` and loads are derived, not journaled.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "control/codec.hpp"

namespace switchboard::control {

struct ControllerState {
  /// (chain, route) of a 2PC round; (vnf, site) of a pool.
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  /// True when every id a decoded record names is one its owner can look
  /// up (GlobalSwitchboard::id_check()).  Replay applies no other record.
  using IdCheck = std::function<bool(const JournalRecord&)>;

  /// One 2PC round between its begin and its terminal record — exactly
  /// what a restart must resolve.
  struct Inflight {
    std::vector<SiteId> vnf_sites;
    bool prepared{false};
  };

  std::uint64_t epoch{0};
  std::uint32_t next_route_id{0};
  /// Sorted by id.  apply() is the only writer of a field on the wire;
  /// owners may write route weights and `active`.
  std::vector<ChainRecord> chains;
  std::map<Key, Inflight> inflight;
  /// Failed pools (vnf, site) -> capacity to restore when they return.
  std::map<Key, double> dead_pools;

  /// A record that does not fit — prep or commit without a begin, a begin
  /// for an unknown chain, a duplicate — is an error and changes nothing.
  /// New routes get weight 1.0; the owner rebalances.
  [[nodiscard]] Status apply(JournalRecord record);

  /// Decodes and applies one line; false (state unchanged) when it does
  /// not decode, names an id `known` rejects, or does not apply.  Replay
  /// and standbys skip such a record.
  [[nodiscard]] bool apply_line(std::string_view line, const IdCheck& known);
  /// apply_line() over `lines`; returns how many were skipped.
  std::size_t apply_lines(const std::vector<std::string>& lines,
                          const IdCheck& known);

  /// The shortest record sequence that applies back to this state, as one
  /// blob of '\n'-terminated records: epoch, allocator, each chain's
  /// block, dead pools, in-flight rounds.  Encodes only the chain blocks
  /// that apply() dropped since the previous call.
  [[nodiscard]] std::string snapshot() const;

  [[nodiscard]] ChainRecord* find_chain(ChainId chain);
  [[nodiscard]] const ChainRecord* find_chain(ChainId chain) const;

  /// Aborts via SWB_CHECK: chains sorted by unique id, unique route ids
  /// below the allocator, one site per stage, no round both in flight and
  /// committed, and every cached chain block equal to its re-encoding (a
  /// field on the wire written outside apply() fails here).
  void check_invariants() const;

 private:
  /// Drops the cached block of `chain`, one of `chains`.
  void drop_block(const ChainRecord& chain);

  /// blocks_[i] is chains[i]'s snapshot records — `t=chain`, then
  /// `t=begin` and `t=commit` per route — encoded as one '\n'-terminated
  /// block, or empty once apply() dropped it; snapshot() re-encodes the
  /// empty ones.  A copy or move carries the blocks with their chains; a
  /// replayed state starts with none.  Like the rest of the state it is
  /// touched only on the simulator thread, so the cache takes no lock.
  mutable std::vector<std::string> blocks_;
};

}  // namespace switchboard::control
