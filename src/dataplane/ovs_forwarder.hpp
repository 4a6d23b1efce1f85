// OVS-style software forwarder used as the Figure 7 baseline.
//
// The paper's first forwarder used Open vSwitch with multipath + learn
// actions, and measured the *relative* overhead of (b) overlay labels
// (VXLAN + MPLS) and (a) flow-affinity learn rules over (c) a plain
// bridge.  This model executes the same classes of per-packet work:
//   * kBridge         — destination lookup only,
//   * kLabels         — bridge + VXLAN encap/decap + MPLS push/pop with a
//                       real header build + checksum,
//   * kLabelsAffinity — labels + an OVS-like exact-match rule list with
//                       learn-on-miss; lookup is a linear scan, which is
//                       what makes OVS scale poorly with flow count.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dataplane/packet.hpp"

namespace switchboard::dataplane {

enum class OvsMode { kBridge, kLabels, kLabelsAffinity };

class OvsForwarder {
 public:
  explicit OvsForwarder(OvsMode mode, std::size_t port_count = 64);

  /// Processes one packet; returns the chosen output port.
  std::uint32_t process(const Packet& packet);

  [[nodiscard]] OvsMode mode() const { return mode_; }
  [[nodiscard]] std::size_t learned_rules() const { return learned_.size(); }
  /// Running checksum of all header work — forces the work to be real
  /// (prevents the optimizer from deleting it) and is checkable in tests.
  [[nodiscard]] std::uint64_t work_digest() const { return digest_; }

 private:
  struct LearnedRule {
    FiveTuple tuple;
    Labels labels;
    std::uint32_t port;
  };

  void parse_headers(const Packet& packet);
  std::uint32_t bridge_lookup(const Packet& packet);
  void vxlan_mpls_encap(const Packet& packet);
  std::uint32_t affinity_lookup(const Packet& packet);

  OvsMode mode_;
  std::size_t port_count_;
  std::vector<LearnedRule> learned_;
  std::array<std::uint8_t, 64> header_scratch_{};
  std::uint64_t digest_{0};
};

}  // namespace switchboard::dataplane
