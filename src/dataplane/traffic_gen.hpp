// Synthetic packet generation (substitute for the paper's MoonGen traffic
// generator): minimum-size UDP packets distributed uniformly over a fixed
// number of flows, as in the Fig. 8 setup.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/packet.hpp"

namespace switchboard::dataplane {

struct TrafficGenConfig {
  std::uint32_t flow_count{1};
  Labels labels{1, 1};
  /// Fraction of generated packets in the reverse direction.
  double reverse_fraction{0.0};
  std::uint64_t seed{1};
  /// RSS worker filtering (multi-threaded Fig. 8 runs): when worker_count
  /// > 1 the stream yields only flows whose forward-direction hash maps to
  /// `worker_index` (same mapping as Forwarder::worker_for, i.e.
  /// rss_worker over shard_count_for_workers(worker_count) shards), so each
  /// worker thread generates exactly the traffic it owns.
  std::uint32_t worker_count{1};
  std::uint32_t worker_index{0};
};

/// Deterministic stream of packets, round-robin across flows (uniform flow
/// distribution).  Flow k's 5-tuple is a pure function of (seed, k).
class PacketStream {
 public:
  explicit PacketStream(const TrafficGenConfig& config);

  [[nodiscard]] Packet next();
  /// 5-tuple of a given flow index (forward direction).
  [[nodiscard]] FiveTuple flow_tuple(std::uint32_t flow_index) const;
  [[nodiscard]] const TrafficGenConfig& config() const { return config_; }
  /// Flows this stream cycles through (= flow_count when unfiltered; the
  /// worker's share when worker_count > 1; can be 0 for a tiny flow set).
  [[nodiscard]] std::size_t owned_flow_count() const {
    return owned_flows_.empty() && config_.worker_count <= 1
        ? config_.flow_count
        : owned_flows_.size();
  }

 private:
  TrafficGenConfig config_;
  std::vector<std::uint32_t> owned_flows_;   // empty = all flows (no filter)
  std::uint32_t next_flow_{0};
  std::uint64_t packet_counter_{0};
};

/// Materializes `count` packets (convenience for benchmarks).
[[nodiscard]] std::vector<Packet> make_packet_batch(
    const TrafficGenConfig& config, std::size_t count);

}  // namespace switchboard::dataplane
