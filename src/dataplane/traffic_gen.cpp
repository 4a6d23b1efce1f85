#include "dataplane/traffic_gen.hpp"

#include "common/check.hpp"
#include "dataplane/sharded_flow_table.hpp"

namespace switchboard::dataplane {
namespace {

/// Size of every generated packet.
constexpr std::uint16_t kPacketSize = 64;

}  // namespace

PacketStream::PacketStream(const TrafficGenConfig& config) : config_{config} {
  SWB_CHECK(config.flow_count > 0);
  SWB_CHECK(config.reverse_fraction >= 0.0 && config.reverse_fraction <= 1.0);
  SWB_CHECK(config.worker_count >= 1);
  SWB_CHECK_LT(config.worker_index, config.worker_count);
  if (config.worker_count > 1) {
    // Precompute this worker's flow share (RSS steering): same mapping the
    // forwarder uses, so a worker's stream only carries flows it owns.
    const std::size_t shards = shard_count_for_workers(config.worker_count);
    owned_flows_.reserve(config.flow_count / config.worker_count + 1);
    for (std::uint32_t f = 0; f < config.flow_count; ++f) {
      const std::uint64_t hash = flow_hash(config.labels, flow_tuple(f));
      if (rss_worker(hash, shards, config.worker_count) ==
          config.worker_index) {
        owned_flows_.push_back(f);
      }
    }
  }
}

FiveTuple PacketStream::flow_tuple(std::uint32_t flow_index) const {
  const std::uint64_t h = mix64(config_.seed ^ (0xF10Cull << 32) ^ flow_index);
  FiveTuple tuple;
  tuple.src_ip = 0x0A000000u | (flow_index & 0x00FFFFFFu);        // 10.x.y.z
  tuple.dst_ip = 0xC0A80000u | static_cast<std::uint32_t>(h & 0xFFFF);
  tuple.src_port = static_cast<std::uint16_t>(1024 + (h >> 16 & 0x7FFF));
  tuple.dst_port = 80;
  tuple.protocol = 17;   // UDP
  return tuple;
}

Packet PacketStream::next() {
  Packet packet;
  if (owned_flows_.empty()) {
    SWB_CHECK(config_.worker_count <= 1)
        << "worker " << config_.worker_index << " owns no flows";
    packet.flow = flow_tuple(next_flow_);
  } else {
    packet.flow = flow_tuple(owned_flows_[next_flow_]);
  }
  packet.labels = config_.labels;
  packet.size_bytes = kPacketSize;
  // Deterministic direction pattern approximating the requested mix.
  if (config_.reverse_fraction > 0.0) {
    const std::uint64_t h = mix64(packet_counter_ ^ config_.seed);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < config_.reverse_fraction) {
      packet.direction = Direction::kReverse;
      packet.flow = packet.flow.reversed();
    }
  }
  ++packet_counter_;
  const std::uint32_t cycle = owned_flows_.empty()
      ? config_.flow_count
      : static_cast<std::uint32_t>(owned_flows_.size());
  next_flow_ = (next_flow_ + 1) % cycle;
  return packet;
}

std::vector<Packet> make_packet_batch(const TrafficGenConfig& config,
                                      std::size_t count) {
  PacketStream stream{config};
  std::vector<Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) packets.push_back(stream.next());
  return packets;
}

}  // namespace switchboard::dataplane
