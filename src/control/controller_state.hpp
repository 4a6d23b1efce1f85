// control::ControllerState: everything the Global Switchboard journals —
// epoch, route-id allocator, chains with their committed routes, in-flight
// 2PC rounds, dead VNF pools — and apply(), the one interpreter of journal
// records.  The live controller applies a change, then appends its record;
// a cold start folds snapshot + log through apply(); a hot standby applies
// each streamed record and hands its state over on promotion.  Route
// weights, `active` and loads are derived, not journaled.
#pragma once

#include <cstdint>
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

  /// One 2PC round between its begin and its terminal record — exactly
  /// what a restart must resolve.
  struct Inflight {
    std::vector<SiteId> vnf_sites;
    bool prepared{false};
  };

  std::uint64_t epoch{0};
  std::uint32_t next_route_id{0};
  std::vector<ChainRecord> chains;
  std::map<Key, Inflight> inflight;
  /// Failed pools (vnf, site) -> capacity to restore when they return.
  std::map<Key, double> dead_pools;

  /// A record that does not fit — prep or commit without a begin, a begin
  /// for an unknown chain, a duplicate — is an error and changes nothing.
  /// New routes get weight 1.0; the owner rebalances.
  [[nodiscard]] Status apply(JournalRecord record);

  /// Decodes and applies one line; false (state unchanged) when it does
  /// not decode or apply.  Replay and standbys skip such a record.
  [[nodiscard]] bool apply_line(std::string_view line);
  /// apply_line() over `lines`; returns how many were skipped.
  std::size_t apply_lines(const std::vector<std::string>& lines);

  /// The shortest record sequence that applies back to this state.
  [[nodiscard]] std::vector<std::string> snapshot() const;

  [[nodiscard]] ChainRecord* find_chain(ChainId chain);
  [[nodiscard]] const ChainRecord* find_chain(ChainId chain) const;

  /// Aborts via SWB_CHECK: chains sorted by unique id, unique route ids
  /// below the allocator, one site per stage, no round both in flight and
  /// committed.
  void check_invariants() const;
};

}  // namespace switchboard::control
