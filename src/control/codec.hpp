// control codec: the one place that knows the controller journal's record
// format, plus the "k=v;" machinery the bus messages share.  A record or
// message is one line of ';'-separated key=value pairs, the first naming
// its kind ("t=begin;chain=3;route=7;sites=1,2").  Each kind is a struct
// whose `fields(r, f)` calls f(key, member) for every field in wire order;
// the generic encoder and decoder below walk that one list.  Journal
// doubles are printf "%.17g" (round-trip exact), bus doubles "%g".
// Decoding malformed input returns an error; it never throws or aborts.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "dataplane/packet.hpp"

namespace switchboard::control {

namespace codec {

// Parsing: the whole text is one value, or false.
template <typename T>
  requires std::unsigned_integral<T> || std::same_as<T, double>
[[nodiscard]] bool parse(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

template <typename Tag>
[[nodiscard]] bool parse(std::string_view text, StrongId<Tag>& out) {
  typename StrongId<Tag>::underlying_type value = 0;
  if (!parse(text, value)) return false;
  out = StrongId<Tag>{value};
  return true;
}

/// A name: any text without the framing bytes ';' and '\n'.
[[nodiscard]] bool parse(std::string_view text, std::string& out);

/// A ','-separated list; empty items are skipped.
template <typename T>
[[nodiscard]] bool parse(std::string_view list, std::vector<T>& out) {
  while (!list.empty()) {
    const std::size_t end = std::min(list.find(','), list.size());
    if (end > 0 && !parse(list.substr(0, end), out.emplace_back())) {
      return false;
    }
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return true;
}

/// Allocation-free view of a "k1=v1;k2=v2;..." payload.  Pairs without
/// '=' are skipped; a value runs to the next ';' and may hold '='.  When
/// a key repeats, the first pair wins.
class Fields {
 public:
  explicit Fields(std::string_view text) : text_{text} {}

  [[nodiscard]] std::optional<std::string_view> find(
      std::string_view key) const;

  /// True (and `out` set) when `key` is present and its value parses.
  template <typename T>
  [[nodiscard]] bool get(std::string_view key, T& out) const {
    const std::optional<std::string_view> value = find(key);
    return value.has_value() && parse(*value, out);
  }

  /// Parses every field `Kind::fields` lists into `out`.
  template <typename Kind>
  [[nodiscard]] bool get_all(Kind& out) const {
    bool ok = true;
    Kind::fields(out, [&](std::string_view key, auto& member) {
      ok = ok && get(key, member);
    });
    return ok;
  }

 private:
  std::string_view text_;
};

// Formatting.
inline void put(std::string& out, std::string_view text) { out += text; }
template <std::unsigned_integral T>
void put(std::string& out, T value) {
  std::array<char, 24> buf{};
  const auto result =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  out.append(buf.data(), result.ptr);
}
template <typename Tag>
void put(std::string& out, StrongId<Tag> id) {
  put(out, id.value());
}
/// printf "%.<digits>g".
void put_double(std::string& out, double value, int digits);
inline void put(std::string& out, double value) { put_double(out, value, 6); }
template <typename T>
void put(std::string& out, const std::vector<T>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    put(out, items[i]);
  }
}

/// Appends every part in order.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

/// Appends ";key=value" for every field `Kind::fields` lists.
template <typename Kind>
void append_fields(std::string& out, const Kind& kind, int digits) {
  Kind::fields(kind, [&](std::string_view key, const auto& member) {
    append(out, ";", key, "=");
    if constexpr (std::is_same_v<std::decay_t<decltype(member)>, double>) {
      put_double(out, member, digits);
    } else {
      put(out, member);
    }
  });
}

/// "type=<Message::kType>;..." — a bus message.
template <typename Message>
[[nodiscard]] std::string encode_message(const Message& message) {
  std::string out{"type="};
  out += Message::kType;
  append_fields(out, message, /*digits=*/6);
  return out;
}
template <typename Message>
[[nodiscard]] std::optional<Message> decode_message(std::string_view payload) {
  Message message;
  if (!Fields{payload}.get_all(message)) return std::nullopt;
  return message;
}

}  // namespace codec

struct ChainSpec {
  std::string name;
  EdgeServiceId ingress_service;
  NodeId ingress_node;
  EdgeServiceId egress_service;
  NodeId egress_node;
  std::vector<VnfId> vnfs;
  /// Estimated per-stage traffic (customer estimate at first deployment).
  double forward_traffic{1.0};
  double reverse_traffic{0.0};

  bool operator==(const ChainSpec&) const = default;
};

/// False when `name` would break the record framing (';' or '\n').
[[nodiscard]] bool journal_safe_name(std::string_view name);

// Journal record kinds ("t=<kType>;...").

/// t=epoch: a controller incarnation started.
struct EpochRecord {
  static constexpr std::string_view kType = "epoch";
  std::uint64_t epoch{0};
  static void fields(auto& r, auto&& f) { f("n", r.epoch); }
  bool operator==(const EpochRecord&) const = default;
};
/// t=nri: the route-id allocator's next value (snapshots only).
struct NextRouteRecord {
  static constexpr std::string_view kType = "nri";
  std::uint32_t next_route_id{0};
  static void fields(auto& r, auto&& f) { f("n", r.next_route_id); }
  bool operator==(const NextRouteRecord&) const = default;
};
struct RouteRecord {
  RouteId id;
  std::vector<SiteId> vnf_sites;   // one per VNF in the chain
  double weight{1.0};
  bool operator==(const RouteRecord&) const = default;
};
/// t=chain: a chain registered with the coordinator.  Routes arrive by
/// begin + commit; `active` is derived; neither is on the wire.
struct ChainRecord {
  static constexpr std::string_view kType = "chain";
  ChainId id;
  ChainSpec spec;
  dataplane::Labels labels;
  SiteId ingress_site;
  SiteId egress_site;
  std::vector<RouteRecord> routes;
  bool active{false};
  static void fields(auto& r, auto&& f) {
    f("id", r.id);
    f("name", r.spec.name);
    f("ins", r.spec.ingress_service);
    f("inn", r.spec.ingress_node);
    f("egs", r.spec.egress_service);
    f("egn", r.spec.egress_node);
    f("vnfs", r.spec.vnfs);
    f("ft", r.spec.forward_traffic);
    f("rt", r.spec.reverse_traffic);
    f("cl", r.labels.chain);
    f("el", r.labels.egress_site);
    f("insite", r.ingress_site);
    f("egsite", r.egress_site);
  }
  bool operator==(const ChainRecord&) const = default;
};
/// t=begin: a 2PC round for (chain, route) placing one VNF per site.
struct BeginRecord {
  static constexpr std::string_view kType = "begin";
  ChainId chain;
  RouteId route;
  std::vector<SiteId> vnf_sites;
  static void fields(auto& r, auto&& f) {
    f("chain", r.chain);
    f("route", r.route);
    f("sites", r.vnf_sites);
  }
  bool operator==(const BeginRecord&) const = default;
};
/// A 2PC round transition naming its (chain, route); `Kind` gives kType.
template <typename Kind>
struct RoundRecord {
  static constexpr std::string_view kType = Kind::kType;
  ChainId chain;
  RouteId route;
  static void fields(auto& r, auto&& f) {
    f("chain", r.chain);
    f("route", r.route);
  }
  bool operator==(const RoundRecord&) const = default;
};
/// t=prep: every participant of the round voted yes.
struct PrepKind { static constexpr std::string_view kType = "prep"; };
/// t=commit: the round committed; the route belongs to the chain.
struct CommitKind { static constexpr std::string_view kType = "commit"; };
/// t=abort: the round ended without a route.
struct AbortKind { static constexpr std::string_view kType = "abort"; };
/// t=retire: failure recovery removed a committed route.
struct RetireKind { static constexpr std::string_view kType = "retire"; };
using PrepRecord = RoundRecord<PrepKind>;
using CommitRecord = RoundRecord<CommitKind>;
using AbortRecord = RoundRecord<AbortKind>;
using RetireRecord = RoundRecord<RetireKind>;
/// t=pooldown: a VNF pool died; `capacity` is restored when it returns.
struct PoolDownRecord {
  static constexpr std::string_view kType = "pooldown";
  VnfId vnf;
  SiteId site;
  double capacity{0.0};
  static void fields(auto& r, auto&& f) {
    f("vnf", r.vnf);
    f("site", r.site);
    f("cap", r.capacity);
  }
  bool operator==(const PoolDownRecord&) const = default;
};
/// t=poolup: a dead VNF pool is back.
struct PoolUpRecord {
  static constexpr std::string_view kType = "poolup";
  VnfId vnf;
  SiteId site;
  static void fields(auto& r, auto&& f) {
    f("vnf", r.vnf);
    f("site", r.site);
  }
  bool operator==(const PoolUpRecord&) const = default;
};

using JournalRecord =
    std::variant<EpochRecord, NextRouteRecord, ChainRecord, BeginRecord,
                 PrepRecord, CommitRecord, AbortRecord, RetireRecord,
                 PoolDownRecord, PoolUpRecord>;

/// One journal line (no terminator).
template <typename Kind>
[[nodiscard]] std::string encode_record(const Kind& record) {
  if constexpr (std::is_same_v<Kind, ChainRecord>) {
    SWB_CHECK(journal_safe_name(record.spec.name))
        << "chain name unserializable for the journal";
  }
  std::string out{"t="};
  out += Kind::kType;
  codec::append_fields(out, record, /*digits=*/17);
  return out;
}

[[nodiscard]] inline std::string encode_record(const JournalRecord& record) {
  return std::visit([](const auto& r) { return encode_record(r); }, record);
}
/// kInvalidArgument for an unknown kind or a missing or malformed field.
[[nodiscard]] Result<JournalRecord> decode_record(std::string_view line);

}  // namespace switchboard::control
