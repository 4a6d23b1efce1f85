// The control-plane codec: golden bytes for every journal record kind and
// every bus message (the journal, replication digests, and trace digests
// are computed over exactly these bytes), decode(encode(x)) == x, and a
// seeded mutation fuzz over decode_record() and every parse_*() that
// must never throw or abort and must only accept inputs that re-encode to
// the same value.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "control/codec.hpp"
#include "control/controller_state.hpp"
#include "control/messages.hpp"
#include "control/state_journal.hpp"

namespace switchboard::control {
namespace {

ChainRecord golden_chain() {
  ChainRecord r;
  r.id = ChainId{0};
  r.spec.name = "golden-a=b";
  r.spec.ingress_service = EdgeServiceId{0};
  r.spec.ingress_node = NodeId{0};
  r.spec.egress_service = EdgeServiceId{0};
  r.spec.egress_node = NodeId{3};
  r.spec.vnfs = {VnfId{0}};
  r.spec.forward_traffic = 0.1;
  r.spec.reverse_traffic = 1.0 / 3.0;
  r.labels = dataplane::Labels{1000, 3};
  r.ingress_site = SiteId{0};
  r.egress_site = SiteId{3};
  return r;
}

ChainRecord two_vnf_chain() {
  ChainRecord r = golden_chain();
  r.spec.name = "two";
  r.spec.vnfs = {VnfId{0}, VnfId{1}};
  r.spec.forward_traffic = 2.0;
  r.spec.reverse_traffic = 0.0;
  return r;
}

/// Every journal record kind with the bytes the controller journals for
/// it (captured from a live durable controller).
std::vector<std::pair<JournalRecord, std::string>> journal_goldens() {
  return {
      {EpochRecord{1}, "t=epoch;n=1"},
      {NextRouteRecord{3}, "t=nri;n=3"},
      {golden_chain(),
       "t=chain;id=0;name=golden-a=b;ins=0;inn=0;egs=0;egn=3;vnfs=0;"
       "ft=0.10000000000000001;rt=0.33333333333333331;cl=1000;el=3;"
       "insite=0;egsite=3"},
      {two_vnf_chain(),
       "t=chain;id=0;name=two;ins=0;inn=0;egs=0;egn=3;vnfs=0,1;ft=2;rt=0;"
       "cl=1000;el=3;insite=0;egsite=3"},
      {BeginRecord{ChainId{0}, RouteId{0}, {SiteId{1}}},
       "t=begin;chain=0;route=0;sites=1"},
      {BeginRecord{ChainId{0}, RouteId{1}, {SiteId{1}, SiteId{1}}},
       "t=begin;chain=0;route=1;sites=1,1"},
      {PrepRecord{ChainId{0}, RouteId{1}}, "t=prep;chain=0;route=1"},
      {CommitRecord{ChainId{0}, RouteId{1}}, "t=commit;chain=0;route=1"},
      {AbortRecord{ChainId{1}, RouteId{2}}, "t=abort;chain=1;route=2"},
      {RetireRecord{ChainId{0}, RouteId{0}}, "t=retire;chain=0;route=0"},
      {PoolDownRecord{VnfId{0}, SiteId{1}, 123.456},
       "t=pooldown;vnf=0;site=1;cap=123.456"},
      {PoolDownRecord{VnfId{1}, SiteId{2}, 0.1},
       "t=pooldown;vnf=1;site=2;cap=0.10000000000000001"},
      {PoolUpRecord{VnfId{0}, SiteId{1}}, "t=poolup;vnf=0;site=1"},
  };
}

TEST(JournalCodec, GoldenBytesForEveryRecordKind) {
  for (const auto& [record, bytes] : journal_goldens()) {
    EXPECT_EQ(encode_record(record), bytes);
  }
}

TEST(JournalCodec, DecodeInvertsEncode) {
  for (const auto& [record, bytes] : journal_goldens()) {
    const Result<JournalRecord> decoded = decode_record(bytes);
    ASSERT_TRUE(decoded.ok()) << bytes;
    EXPECT_EQ(*decoded, record) << bytes;
  }
}

TEST(JournalCodec, DecodeRejectsMalformedRecords) {
  for (const std::string bad :
       {"", "t=", "t=bogus;n=1", "t=epoch", "t=epoch;n=x", "t=epoch;n=-1",
        "t=epoch;n=1x", "t=nri;n=4294967296", "t=prep;chain=1",
        "t=begin;chain=1;route=2;sites=1,a", "t=pooldown;vnf=0;site=1",
        "t=chain;id=0;name=a"}) {
    const Result<JournalRecord> decoded = decode_record(bad);
    EXPECT_FALSE(decoded.ok()) << bad;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.error().code, ErrorCode::kInvalidArgument);
    }
  }
}

TEST(ControllerStateCodec, SnapshotGoldenAndReapply) {
  // A two-VNF chain whose first round aborted, whose second committed,
  // and whose pool then died: the snapshot is the shortest record
  // sequence that applies back to the same state.
  ControllerState state;
  for (const JournalRecord& record : std::vector<JournalRecord>{
           EpochRecord{1}, NextRouteRecord{0}, two_vnf_chain(),
           BeginRecord{ChainId{0}, RouteId{0}, {SiteId{1}, SiteId{2}}},
           AbortRecord{ChainId{0}, RouteId{0}},
           BeginRecord{ChainId{0}, RouteId{1}, {SiteId{1}, SiteId{1}}},
           PrepRecord{ChainId{0}, RouteId{1}},
           CommitRecord{ChainId{0}, RouteId{1}},
           PoolDownRecord{VnfId{1}, SiteId{2}, 0.1}}) {
    ASSERT_TRUE(state.apply(record).ok());
  }
  const std::vector<std::string> snapshot = split_records(state.snapshot());
  const std::vector<std::string> golden{
      "t=epoch;n=1",
      "t=nri;n=2",
      "t=chain;id=0;name=two;ins=0;inn=0;egs=0;egn=3;vnfs=0,1;ft=2;rt=0;"
      "cl=1000;el=3;insite=0;egsite=3",
      "t=begin;chain=0;route=1;sites=1,1",
      "t=commit;chain=0;route=1",
      "t=pooldown;vnf=1;site=2;cap=0.10000000000000001"};
  EXPECT_EQ(snapshot, golden);

  EXPECT_EQ(state.snapshot(), join_records(golden));

  ControllerState replayed;
  const auto any_id = [](const JournalRecord&) { return true; };
  for (const std::string& line : snapshot) {
    EXPECT_TRUE(replayed.apply_line(line, any_id)) << line;
  }
  EXPECT_EQ(replayed.snapshot(), state.snapshot());
  replayed.check_invariants();
}

TEST(ControllerStateCodec, RecordsThatDoNotFitAreRejectedWithoutEffect) {
  ControllerState state;
  ASSERT_TRUE(state.apply(golden_chain()).ok());
  const std::string before = state.snapshot();
  EXPECT_FALSE(state.apply(PrepRecord{ChainId{0}, RouteId{4}}).ok());
  EXPECT_FALSE(state.apply(CommitRecord{ChainId{0}, RouteId{4}}).ok());
  EXPECT_FALSE(
      state.apply(BeginRecord{ChainId{9}, RouteId{4}, {SiteId{1}}}).ok());
  EXPECT_FALSE(state.apply(BeginRecord{ChainId{0}, RouteId{4}, {}}).ok());
  EXPECT_FALSE(state.apply(golden_chain()).ok());
  const auto any_id = [](const JournalRecord&) { return true; };
  EXPECT_FALSE(state.apply_line("t=commit;chain=0;route=x", any_id));
  // A record that decodes and fits is still skipped when the owner's id
  // check rejects it.
  EXPECT_FALSE(state.apply_line(
      encode_record(BeginRecord{ChainId{0}, RouteId{4}, {SiteId{1}}}),
      [](const JournalRecord&) { return false; }));
  EXPECT_EQ(state.snapshot(), before);
  state.check_invariants();
}

// ------------------------------------------------------------ bus goldens

InstanceAnnouncement golden_instance() {
  InstanceAnnouncement m;
  m.instance = 42;
  m.forwarder = 7;
  m.weight = 0.123456789;
  return m;
}

ForwarderAnnouncement golden_forwarder() {
  ForwarderAnnouncement m;
  m.forwarder = 9;
  m.weight = 1e-7;
  return m;
}

RouteAnnouncement golden_route() {
  RouteAnnouncement m;
  m.chain = ChainId{3};
  m.route = RouteId{11};
  m.chain_label = 1003;
  m.egress_label = 2;
  m.ingress_site = SiteId{0};
  m.egress_site = SiteId{2};
  m.weight = 1.0 / 3.0;
  m.epoch = 5;
  m.hops = {RouteHop{1, VnfId{4}, SiteId{1}}, RouteHop{2, VnfId{6}, SiteId{2}}};
  return m;
}

Heartbeat golden_heartbeat() {
  Heartbeat m;
  m.site = SiteId{4};
  m.seq = 123456789012ULL;
  m.down_elements = {3, 17};
  return m;
}

AnycastAnnouncement golden_anycast() {
  AnycastAnnouncement m;
  m.origin = SiteId{3};
  m.seq = 42;
  m.path_delay_ms = 12.345678;
  m.entries = {AnycastVnfEntry{VnfId{0}, 2, 150.0},
               AnycastVnfEntry{VnfId{4}, 1, 1234567.0}};
  return m;
}

ReplicationFrame golden_install() {
  ReplicationFrame m;
  m.kind = ReplicationKind::kSnapshotInstall;
  m.from = 2;
  m.epoch = 3;
  m.seq = 17;
  m.digest = 14695981039346656037ULL;
  m.records = {"t=epoch;n=3", "t=nri;n=4"};
  return m;
}

TEST(BusCodec, GoldenBytesForEveryMessage) {
  EXPECT_EQ(serialize(golden_instance()),
            "type=instance;id=42;fw=7;w=0.123457");
  EXPECT_EQ(serialize(golden_forwarder()), "type=forwarder;id=9;w=1e-07");
  EXPECT_EQ(serialize(golden_route()),
            "type=route;chain=3;route=11;cl=1003;el=2;in=0;out=2;"
            "w=0.333333;ep=5;hops=1:4:1,2:6:2");
  EXPECT_EQ(serialize(golden_heartbeat()),
            "type=heartbeat;site=4;seq=123456789012;down=3,17");
  Heartbeat quiet;
  quiet.site = SiteId{1};
  quiet.seq = 1;
  EXPECT_EQ(serialize(quiet), "type=heartbeat;site=1;seq=1;down=");
  EXPECT_EQ(serialize(golden_anycast()),
            "type=anycast;origin=3;seq=42;pd=12.3457;"
            "vnfs=0:2:150,4:1:1.23457e+06");
  EXPECT_EQ(serialize(golden_install()),
            "type=repl;k=1;from=2;ep=3;seq=17;dg=14695981039346656037;"
            "body=t=epoch;n=3\nt=nri;n=4");
  ReplicationFrame ack;
  ack.kind = ReplicationKind::kAck;
  ack.from = 1;
  ack.epoch = 2;
  ack.seq = 9;
  ack.digest = 77;
  EXPECT_EQ(serialize(ack), "type=repl;k=2;from=1;ep=2;seq=9;dg=77;body=");
}

TEST(BusCodec, ParseInvertsSerialize) {
  // Values exact at the wire's 6 significant digits round-trip exactly.
  InstanceAnnouncement instance = golden_instance();
  instance.weight = 0.25;
  const auto i = parse_instance(serialize(instance));
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->instance, instance.instance);
  EXPECT_EQ(i->forwarder, instance.forwarder);
  EXPECT_EQ(i->weight, instance.weight);

  const auto f = parse_forwarder(serialize(golden_forwarder()));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->forwarder, 9u);
  EXPECT_EQ(f->weight, 1e-7);

  RouteAnnouncement route = golden_route();
  route.weight = 0.5;
  const auto r = parse_route(serialize(route));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->chain, route.chain);
  EXPECT_EQ(r->route, route.route);
  EXPECT_EQ(r->chain_label, route.chain_label);
  EXPECT_EQ(r->egress_label, route.egress_label);
  EXPECT_EQ(r->ingress_site, route.ingress_site);
  EXPECT_EQ(r->egress_site, route.egress_site);
  EXPECT_EQ(r->weight, route.weight);
  EXPECT_EQ(r->epoch, route.epoch);
  ASSERT_EQ(r->hops.size(), route.hops.size());
  for (std::size_t h = 0; h < route.hops.size(); ++h) {
    EXPECT_EQ(r->hops[h].stage, route.hops[h].stage);
    EXPECT_EQ(r->hops[h].vnf, route.hops[h].vnf);
    EXPECT_EQ(r->hops[h].site, route.hops[h].site);
  }

  const auto hb = parse_heartbeat(serialize(golden_heartbeat()));
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->site, SiteId{4});
  EXPECT_EQ(hb->seq, 123456789012ULL);
  EXPECT_EQ(hb->down_elements, golden_heartbeat().down_elements);

  AnycastAnnouncement anycast = golden_anycast();
  anycast.path_delay_ms = 12.5;
  anycast.entries[1].residual_capacity = 75.25;
  const auto a = parse_anycast(serialize(anycast));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->origin, anycast.origin);
  EXPECT_EQ(a->seq, anycast.seq);
  EXPECT_EQ(a->path_delay_ms, anycast.path_delay_ms);
  ASSERT_EQ(a->entries.size(), 2u);
  EXPECT_EQ(a->entries[1].vnf, VnfId{4});
  EXPECT_EQ(a->entries[1].live_instances, 1u);
  EXPECT_EQ(a->entries[1].residual_capacity, 75.25);

  const auto frame = parse_replication(serialize(golden_install()));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, ReplicationKind::kSnapshotInstall);
  EXPECT_EQ(frame->from, 2u);
  EXPECT_EQ(frame->epoch, 3u);
  EXPECT_EQ(frame->seq, 17u);
  EXPECT_EQ(frame->digest, 14695981039346656037ULL);
  EXPECT_EQ(frame->records, golden_install().records);
}

TEST(BusCodec, ReplicationFrameRecordCountMustFitItsKind) {
  // One record per kRecord frame, a non-empty snapshot per install, and
  // none in an ack: a frame with any other count is rejected at parse.
  for (const char* bad :
       {"type=repl;k=0;from=0;ep=1;seq=1;dg=0;body=",
        "type=repl;k=0;from=0;ep=1;seq=1;dg=0;body=t=epoch;n=1\nt=nri;n=2",
        "type=repl;k=1;from=0;ep=1;seq=1;dg=0;body=",
        "type=repl;k=2;from=0;ep=1;seq=1;dg=0;body=t=epoch;n=1"}) {
    EXPECT_FALSE(parse_replication(bad).has_value()) << bad;
  }
  for (const char* good :
       {"type=repl;k=0;from=0;ep=1;seq=1;dg=0;body=t=epoch;n=1",
        "type=repl;k=1;from=0;ep=1;seq=1;dg=0;body=t=epoch;n=1\nt=nri;n=2",
        "type=repl;k=2;from=0;ep=1;seq=1;dg=0;body=",
        "type=repl;k=3;from=0;ep=1;seq=1;dg=0;body="}) {
    EXPECT_TRUE(parse_replication(good).has_value()) << good;
  }
}

// ------------------------------------------------------- mutation fuzz

/// One decoder under fuzz: `canonical(input)` is nullopt when the input is
/// rejected, else the accepted value re-encoded.
struct Target {
  const char* name;
  std::vector<std::string> corpus;
  std::function<std::optional<std::string>(const std::string&)> canonical;
};

template <typename Parse>
std::function<std::optional<std::string>(const std::string&)> bus_canonical(
    Parse parse) {
  return [parse](const std::string& input) -> std::optional<std::string> {
    const auto message = parse(input);
    if (!message) return std::nullopt;
    return serialize(*message);
  };
}

std::vector<Target> fuzz_targets() {
  std::vector<std::string> journal_corpus;
  for (const auto& [record, bytes] : journal_goldens()) {
    journal_corpus.push_back(bytes);
  }
  Heartbeat quiet;
  quiet.site = SiteId{1};
  ReplicationFrame record_frame;
  record_frame.records = {journal_corpus[2]};
  return {
      {"decode_record", journal_corpus,
       [](const std::string& input) -> std::optional<std::string> {
         const Result<JournalRecord> record = decode_record(input);
         if (!record.ok()) return std::nullopt;
         return encode_record(*record);
       }},
      {"parse_instance", {serialize(golden_instance())},
       bus_canonical([](const std::string& s) { return parse_instance(s); })},
      {"parse_forwarder", {serialize(golden_forwarder())},
       bus_canonical([](const std::string& s) { return parse_forwarder(s); })},
      {"parse_route", {serialize(golden_route())},
       bus_canonical([](const std::string& s) { return parse_route(s); })},
      {"parse_heartbeat", {serialize(golden_heartbeat()), serialize(quiet)},
       bus_canonical([](const std::string& s) { return parse_heartbeat(s); })},
      {"parse_anycast", {serialize(golden_anycast())},
       bus_canonical([](const std::string& s) { return parse_anycast(s); })},
      {"parse_replication",
       {serialize(golden_install()), serialize(record_frame)},
       bus_canonical(
           [](const std::string& s) { return parse_replication(s); })},
  };
}

/// Applies 1-3 random edits: flip, insert, delete, truncate, or splice a
/// copy of a slice — biased toward the grammar's own punctuation and
/// digits so mutants stay near the accept boundary.
std::string mutate(std::string input, std::mt19937_64& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789;=,:-+.einfatx\n ";
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % (n == 0 ? 1 : n));
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = pick(input.size() + 1);
    const char c = rng() % 4 == 0 ? static_cast<char>(rng() & 0xFF)
                                  : kAlphabet[pick(kAlphabet.size())];
    switch (rng() % 5) {
      case 0:
        if (at < input.size()) input[at] = c;
        break;
      case 1:
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      case 2:
        if (at < input.size()) {
          input.erase(input.begin() + static_cast<std::ptrdiff_t>(at));
        }
        break;
      case 3:
        input.resize(at);
        break;
      default: {
        const std::size_t from = pick(input.size() + 1);
        const std::size_t len = pick(input.size() - from + 1);
        input.insert(at, input.substr(from, len));
        break;
      }
    }
  }
  return input;
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 7, 1009));

TEST_P(CodecFuzz, MutantsNeverCrashAndAcceptedInputsRoundTrip) {
  constexpr int kMutantsPerTarget = 4000;
  std::mt19937_64 rng{GetParam()};
  for (const Target& target : fuzz_targets()) {
    std::size_t accepted = 0;
    for (int i = 0; i < kMutantsPerTarget; ++i) {
      const std::string& seed = target.corpus[rng() % target.corpus.size()];
      const std::string input = mutate(seed, rng);
      // Rejection is fine; throwing or aborting fails the test.
      const std::optional<std::string> canonical = target.canonical(input);
      if (!canonical) continue;
      ++accepted;
      // An accepted value re-encodes to bytes that decode to the same
      // value — compared as its encoding, which is exact for the journal
      // and exact at wire precision for bus messages.
      const std::optional<std::string> again = target.canonical(*canonical);
      ASSERT_TRUE(again.has_value())
          << target.name << " rejected its own encoding of " << input;
      EXPECT_EQ(*again, *canonical) << target.name << " input " << input;
    }
    // The corpus itself must stay acceptable.
    for (const std::string& seed : target.corpus) {
      EXPECT_EQ(target.canonical(seed).value_or("<rejected>"), seed)
          << target.name;
    }
    EXPECT_GT(accepted, 0u) << target.name << " accepted no mutant";
  }
}

TEST_P(CodecFuzz, AcceptedReplicationFramesHaveARecordCountThatFitsTheirKind) {
  // Mutants of every frame kind: whatever the parser accepts carries
  // exactly one record for kRecord, at least one for an install, and none
  // for the two acks.
  std::mt19937_64 rng{GetParam() * 17 + 3};
  ReplicationFrame record_frame;
  record_frame.records = {"t=epoch;n=3"};
  ReplicationFrame ack;
  ack.kind = ReplicationKind::kAck;
  ReplicationFrame install_ack;
  install_ack.kind = ReplicationKind::kSnapshotAck;
  const std::vector<std::string> corpus = {
      serialize(golden_install()), serialize(record_frame), serialize(ack),
      serialize(install_ack)};
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string input = mutate(corpus[rng() % corpus.size()], rng);
    const auto frame = parse_replication(input);
    if (!frame) continue;
    ++accepted;
    const std::size_t count = frame->records.size();
    switch (frame->kind) {
      case ReplicationKind::kRecord:
        EXPECT_EQ(count, 1u) << input;
        break;
      case ReplicationKind::kSnapshotInstall:
        EXPECT_GE(count, 1u) << input;
        break;
      case ReplicationKind::kAck:
      case ReplicationKind::kSnapshotAck:
        EXPECT_EQ(count, 0u) << input;
        break;
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST_P(CodecFuzz, DecodedJournalRecordsEqualTheirReencoding) {
  // Structural equality for the journal codec (doubles are %.17g, so
  // every finite value and infinity round-trips exactly; NaN is never
  // equal to itself and is skipped).
  std::mt19937_64 rng{GetParam() * 31 + 5};
  std::vector<std::string> corpus;
  for (const auto& [record, bytes] : journal_goldens()) {
    corpus.push_back(bytes);
  }
  for (int i = 0; i < 4000; ++i) {
    const std::string input = mutate(corpus[rng() % corpus.size()], rng);
    const Result<JournalRecord> first = decode_record(input);
    if (!first.ok()) continue;
    const std::string encoded = encode_record(*first);
    if (encoded.find("nan") != std::string::npos) continue;
    const Result<JournalRecord> second = decode_record(encoded);
    ASSERT_TRUE(second.ok()) << encoded;
    EXPECT_EQ(*second, *first) << input;
  }
}

}  // namespace
}  // namespace switchboard::control
