#include "control/replication.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "bus/topic.hpp"
#include "common/check.hpp"
#include "common/log.hpp"

namespace switchboard::control {
namespace {

// FNV-1a over every applied record (terminated like the journal frames it
// mirrors) — the cheap, order-sensitive convergence fingerprint each
// replica maintains and acks carry for cross-checking.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Beat periods a live follower's ack may stall below the stream head
/// before the leader re-syncs it with a snapshot install (heals gaps left
/// by exhausted retransmit budgets after a partition).
constexpr std::uint32_t kRepairStallBeats = 3;

std::uint64_t fold_record(std::uint64_t digest, const std::string& record) {
  for (const char c : record) {
    digest ^= static_cast<unsigned char>(c);
    digest *= kFnvPrime;
  }
  digest ^= static_cast<unsigned char>('\n');
  digest *= kFnvPrime;
  return digest;
}

std::uint64_t fold_records(std::uint64_t digest,
                           const std::vector<std::string>& records) {
  for (const std::string& record : records) {
    digest = fold_record(digest, record);
  }
  return digest;
}

}  // namespace

ReplicaGroup::ReplicaGroup(ControlContext& context, GlobalSwitchboard& global,
                           sim::DurableStore& store,
                           std::vector<SiteId> replica_sites,
                           ReplicationConfig config)
    : context_{context},
      global_{global},
      store_{store},
      sites_{std::move(replica_sites)},
      config_{std::move(config)} {
  SWB_CHECK(!sites_.empty()) << "replica group with no replicas";
  SWB_CHECK(sites_[0] == global_.home_site())
      << "replica 0 must be hosted at the controller site";
  const auto n = static_cast<std::uint32_t>(sites_.size());
  quorum_ = config_.quorum != 0 ? config_.quorum : n / 2 + 1;
  SWB_CHECK_GE(quorum_, 1u);
  SWB_CHECK_LE(quorum_, n);

  const swb::MutexLock lock{mutex_};
  for (std::uint32_t r = 0; r < n; ++r) {
    Replica replica;
    JournalConfig journal_config = config_.journal;
    journal_config.name += "_r" + std::to_string(r);
    replica.journal =
        std::make_unique<StateJournal>(store_, journal_config);
    replicas_.push_back(std::move(replica));
  }
  detector_ = std::make_unique<FailureDetector>(context_, sites_[0],
                                                config_.detector);
}

void ReplicaGroup::start() {
  StateJournal* leader_journal = nullptr;
  {
    const swb::MutexLock lock{mutex_};
    SWB_CHECK(!started_) << "replica group started twice";
    started_ = true;
    leader_journal = replicas_.front().journal.get();
  }

  // Replica 0 becomes the leader's journal: the coordinator writes through
  // it from here on (the base snapshot is persisted by enable_durability).
  global_.enable_durability(leader_journal);
  bootstrap_install();

  global_.set_journal_observer(
      [this](const std::string& record) { on_leader_append(record); });
  global_.set_quorum_gate(
      [this](std::function<void()> resume) {
        on_quorum_gate(std::move(resume));
      });
  global_.set_compaction_gate([this] { on_compaction_wanted(); });

  // Every replica pair gets its stream + ack subscription up front (role
  // changes at failover never need new subscriptions, so retained-frame
  // replays to late subscribers cannot happen).
  const auto n = static_cast<std::uint32_t>(sites_.size());
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      if (from == to) continue;
      context_.bus.subscribe(
          sites_[to],
          bus::replication_stream_topic(from, to, sites_[from]),
          [this, to](const bus::Message& message) {
            if (const auto frame = parse_replication(message.payload)) {
              on_stream_frame(to, *frame);
            }
          });
      context_.bus.subscribe(
          sites_[to], bus::replication_ack_topic(from, to, sites_[from]),
          [this, to](const bus::Message& message) {
            if (const auto frame = parse_replication(message.payload)) {
              on_ack_frame(to, *frame);
            }
          });
    }
  }

  // Liveness: every replica beats on its own transient topic; one sweep
  // covers them all.  Election fires only on a *dead* leader's silence.
  for (std::uint32_t r = 0; r < n; ++r) {
    detector_->watch_heartbeats(replica_health_key(r),
                                bus::replica_health_topic(r, sites_[r]));
  }
  detector_->set_site_down_callback([this](SiteId key) {
    SWB_CHECK_GE(key.value(), replica_health_key(0).value());
    on_replica_suspected(key.value() - replica_health_key(0).value());
  });
  detector_->start();
  {
    const swb::MutexLock lock{mutex_};
    beating_ = true;
    beat_event_ = context_.sim.schedule(config_.detector.period,
                                        [this] { beat(); });
  }
}

void ReplicaGroup::stop() {
  detector_->stop();
  const swb::MutexLock lock{mutex_};
  beating_ = false;
  if (beat_event_.valid()) {
    context_.sim.cancel(beat_event_);
    beat_event_ = sim::EventHandle{};
  }
}

void ReplicaGroup::bootstrap_install() {
  const std::string blob = global_.state().snapshot();
  const std::vector<std::string> base = split_records(blob);
  const std::uint64_t digest = fold_records(kFnvOffset, base);
  const std::uint64_t epoch = global_.epoch();
  const ControllerState::IdCheck known = global_.id_check();
  const swb::MutexLock lock{mutex_};
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    Replica& replica = replicas_[r];
    // Replica 0's journal already holds the base snapshot (it is the
    // leader's own journal); followers get a verbatim copy.
    if (r != 0) {
      replica.journal->write_snapshot(blob);
      replica.state = ControllerState{};
      replica.state.apply_lines(base, known);
    }
    replica.applied_records = base.size();
    replica.digest = digest;
    replica.applied_seq = 0;
    replica.epoch_seen = epoch;
  }
}

void ReplicaGroup::on_leader_append(const std::string& record) {
  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    // The coordinator already applied the change; the leader's replica
    // only counts and fingerprints it.
    Replica& self = replicas_[leader_];
    ++self.applied_records;
    self.digest = fold_record(self.digest, record);
    if (promoting_) return;   // epoch bump mid-promotion: install follows
    ++stream_seq_;
    self.applied_seq = stream_seq_;
    self.epoch_seen = global_.epoch();
    ReplicationFrame frame;
    frame.kind = ReplicationKind::kRecord;
    frame.from = leader_;
    frame.epoch = global_.epoch();
    frame.seq = stream_seq_;
    frame.digest = self.digest;
    frame.records.push_back(record);
    const std::string payload = serialize(frame);
    for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
      if (f == leader_ || !replicas_[f].up) continue;
      ++records_streamed_;
      outbox.emplace_back(
          bus::replication_stream_topic(leader_, f, sites_[leader_]),
          payload);
    }
  }
  publish(std::move(outbox));
}

void ReplicaGroup::on_quorum_gate(std::function<void()> resume) {
  bool immediate = false;
  {
    const swb::MutexLock lock{mutex_};
    if (pending_.empty() && quorum_satisfied(stream_seq_)) {
      // Already durable on a quorum (single-replica groups, or a barrier
      // raised after the acks caught up) — and nothing queued ahead.
      ++barriers_released_;
      immediate = true;
    } else {
      pending_.push_back(
          Barrier{stream_seq_, context_.sim.now(), std::move(resume)});
    }
  }
  if (immediate) resume();
}

void ReplicaGroup::on_compaction_wanted() {
  Outbox outbox;
  bool compact_now = false;
  {
    const swb::MutexLock lock{mutex_};
    // One replicated install at a time.  A promotion or cold restart
    // pushes its own installs once the new epoch's stream starts; the
    // journal asks again on its next append.
    if (install_pending_ || promoting_) return;
    std::size_t live_followers = 0;
    for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
      if (f != leader_ && replicas_[f].up) ++live_followers;
    }
    if (quorum_ <= 1 || live_followers == 0) {
      // Nobody to fence on (single replica, or every follower dead — the
      // quorum barrier is already stalling commits in the latter case);
      // compact locally so the log does not grow without bound.
      compact_now = quorum_ <= 1;
      if (!compact_now) return;
    } else {
      install_pending_ = true;
      install_seq_ = stream_seq_;
      install_acks_.clear();
      for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
        if (f == leader_ || !replicas_[f].up) continue;
        push_install_to(f);
      }
      // push_install_to queued the frames; drain them below.
      outbox.swap(install_outbox_);
    }
  }
  if (compact_now) global_.compact_journal_now();
  publish(std::move(outbox));
}

void ReplicaGroup::push_install_to(std::uint32_t to) {
  // Snapshot of the leader's state *now*: followers installing it land at
  // stream position stream_seq_ with the leader's current digest.
  ReplicationFrame frame;
  frame.kind = ReplicationKind::kSnapshotInstall;
  frame.from = leader_;
  frame.epoch = global_.epoch();
  frame.seq = stream_seq_;
  frame.digest = replicas_[leader_].digest;
  frame.records = global_.snapshot_state();
  ++installs_sent_;
  replicas_[to].stalled_beats = 0;
  install_outbox_.emplace_back(
      bus::replication_stream_topic(leader_, to, sites_[leader_]),
      serialize(frame));
}

ReplicaGroup::Outbox ReplicaGroup::start_stream() {
  stream_seq_ = 0;
  for (Replica& replica : replicas_) {
    replica.acked = 0;
    replica.stalled_beats = 0;
  }
  for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
    if (f == leader_ || !replicas_[f].up) continue;
    push_install_to(f);
  }
  return std::exchange(install_outbox_, {});
}

void ReplicaGroup::publish(Outbox outbox) {
  for (auto& [topic, payload] : outbox) {
    context_.bus.publish(topic, std::move(payload));
  }
}

void ReplicaGroup::on_stream_frame(std::uint32_t to,
                                   const ReplicationFrame& frame) {
  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    Replica& replica = replicas_[to];
    // A dead process hears nothing; the leader follows nobody (a stale
    // stream from a deposed leader is fenced by the epoch check anyway).
    if (!replica.up || to == leader_) return;
    if (frame.epoch < replica.epoch_seen) return;   // zombie-leader frame

    if (frame.kind == ReplicationKind::kSnapshotInstall) {
      replica.journal->write_snapshot(join_records(frame.records));
      replica.state = ControllerState{};
      replica.state.apply_lines(frame.records, global_.id_check());
      replica.applied_records = frame.records.size();
      replica.digest = frame.digest;
      replica.applied_seq = frame.seq;
      replica.epoch_seen = frame.epoch;
      // Drop reorder entries the install supersedes; older epochs die.
      std::erase_if(replica.reorder, [&](const auto& entry) {
        return entry.first.first < frame.epoch ||
               (entry.first.first == frame.epoch &&
                entry.first.second <= frame.seq);
      });
      ReplicationFrame ack;
      ack.kind = ReplicationKind::kSnapshotAck;
      ack.from = to;
      ack.epoch = frame.epoch;
      ack.seq = frame.seq;
      ack.digest = replica.digest;
      outbox.emplace_back(
          bus::replication_ack_topic(to, frame.from, sites_[to]),
          serialize(ack));
    } else if (frame.kind == ReplicationKind::kRecord) {
      SWB_CHECK_EQ(frame.records.size(), 1u) << "record frame framing";
      if (frame.epoch == replica.epoch_seen &&
          frame.seq <= replica.applied_seq) {
        // Duplicate (retransmit raced its ack) — re-ack, apply nothing.
      } else {
        replica.reorder[{frame.epoch, frame.seq}] = frame.records.front();
      }
      // Apply in order: records for a future epoch stay buffered until
      // that epoch's snapshot install arrives and moves epoch_seen.
      for (auto it = replica.reorder.find(
               {replica.epoch_seen, replica.applied_seq + 1});
           it != replica.reorder.end();
           it = replica.reorder.find(
               {replica.epoch_seen, replica.applied_seq + 1})) {
        // A record that does not decode, names an unknown id or does not
        // apply is skipped, exactly as a cold start skips it.
        replica.journal->append(it->second);
        (void)replica.state.apply_line(it->second, global_.id_check());
        ++replica.applied_records;
        replica.digest = fold_record(replica.digest, it->second);
        ++replica.applied_seq;
        replica.reorder.erase(it);
      }
      ReplicationFrame ack;
      ack.kind = ReplicationKind::kAck;
      ack.from = to;
      ack.epoch = replica.epoch_seen;
      ack.seq = replica.applied_seq;
      ack.digest = replica.digest;
      outbox.emplace_back(
          bus::replication_ack_topic(to, frame.from, sites_[to]),
          serialize(ack));
    }
  }
  publish(std::move(outbox));
}

void ReplicaGroup::on_ack_frame(std::uint32_t to,
                                const ReplicationFrame& frame) {
  std::vector<std::function<void()>> resumes;
  bool compact = false;
  {
    const swb::MutexLock lock{mutex_};
    // Only the current leader consumes acks, and only for its own epoch —
    // acks addressed to a deposed incarnation are fenced here exactly
    // like its own continuations are fenced by the epoch guard.
    if (to != leader_ || !replicas_[to].up) return;
    if (frame.epoch != global_.epoch()) return;
    if (frame.from >= replicas_.size() || frame.from == leader_) return;
    Replica& follower = replicas_[frame.from];
    if (frame.seq > follower.acked) {
      follower.acked = frame.seq;
      follower.stalled_beats = 0;
    }
    if (frame.kind == ReplicationKind::kSnapshotAck && install_pending_ &&
        frame.seq >= install_seq_) {
      install_acks_.insert(frame.from);
      // The leader's own log always covers the snapshot; it counts
      // toward the install quorum like it counts toward ack quorums.
      if (1 + install_acks_.size() >= quorum_) {
        install_pending_ = false;
        compact = true;
        ++replicated_compactions_;
      }
    }
    // Divergence cross-check at the quiescent point: a follower claiming
    // the leader's exact stream position must carry its exact digest.
    if (frame.seq == stream_seq_ &&
        frame.digest != replicas_[leader_].digest) {
      ++divergences_;
      SB_LOG(kWarn) << "replication: follower " << frame.from
                    << " digest diverged at seq " << frame.seq;
    }
    resumes = collect_released_barriers();
  }
  if (compact) global_.compact_journal_now();
  for (auto& resume : resumes) resume();
}

bool ReplicaGroup::quorum_satisfied(std::uint64_t seq) const {
  std::uint32_t durable = 1;   // the leader's own journal
  for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
    if (f == leader_ || !replicas_[f].up) continue;
    if (replicas_[f].acked >= seq) ++durable;
  }
  return durable >= quorum_;
}

std::vector<std::function<void()>> ReplicaGroup::collect_released_barriers()
    SWB_REQUIRES(mutex_) {
  std::vector<std::function<void()>> resumes;
  while (!pending_.empty() && quorum_satisfied(pending_.front().seq)) {
    Barrier barrier = std::move(pending_.front());
    pending_.pop_front();
    ++barriers_released_;
    barrier_wait_us_total_ +=
        static_cast<std::uint64_t>(context_.sim.now() - barrier.created);
    resumes.push_back(std::move(barrier.resume));
  }
  return resumes;
}

void ReplicaGroup::beat() {
  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    if (!beating_) return;
    for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
      Replica& replica = replicas_[r];
      if (!replica.up) continue;
      if (r == leader_ && !global_.up()) continue;
      Heartbeat hb;
      hb.site = replica_health_key(r);
      hb.seq = ++replica.beat_seq;
      outbox.emplace_back(bus::replica_health_topic(r, sites_[r]),
                          serialize(hb));
    }
    // Leader-side repair: a live follower whose ack has stalled below the
    // stream head for kRepairStallBeats checks lost frames for good
    // (retransmit budget exhausted across a partition) — re-sync it with
    // a full snapshot install.
    if (replicas_[leader_].up && global_.up()) {
      for (std::uint32_t f = 0; f < replicas_.size(); ++f) {
        if (f == leader_ || !replicas_[f].up) continue;
        if (replicas_[f].acked >= stream_seq_) {
          replicas_[f].stalled_beats = 0;
          continue;
        }
        if (++replicas_[f].stalled_beats >= kRepairStallBeats) {
          push_install_to(f);
        }
      }
      outbox.insert(outbox.end(),
                    std::make_move_iterator(install_outbox_.begin()),
                    std::make_move_iterator(install_outbox_.end()));
      install_outbox_.clear();
    }
    beat_event_ = context_.sim.schedule(config_.detector.period,
                                       [this] { beat(); });
  }
  publish(std::move(outbox));
}

void ReplicaGroup::on_replica_suspected(std::uint32_t replica) {
  {
    const swb::MutexLock lock{mutex_};
    if (replica >= replicas_.size()) return;
    if (replica != leader_) return;   // follower silence: nothing to elect
    if (replicas_[replica].up) {
      // The leader process is alive — this is a partition between it and
      // the detector.  The CP choice: no election (a second coordinator
      // would split the brain); consistency waits for the heal.
      ++false_suspicions_;
      return;
    }
  }
  elect_and_promote();
}

void ReplicaGroup::elect_and_promote() {
  std::uint32_t winner = 0;
  StateJournal* winner_journal = nullptr;
  ControllerState adopted;
  {
    const swb::MutexLock lock{mutex_};
    if (replicas_[leader_].up) return;   // raced with a restore
    bool found = false;
    std::tuple<std::uint64_t, std::uint64_t, std::uint32_t> best{0, 0, 0};
    for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
      if (!replicas_[r].up) continue;
      const std::tuple<std::uint64_t, std::uint64_t, std::uint32_t> key{
          replicas_[r].epoch_seen, replicas_[r].applied_seq, r};
      if (!found || key > best) {
        best = key;
        winner = r;
        found = true;
      }
    }
    if (!found) {
      // Total controller outage: nothing to promote.  The next restored
      // replica recovers via the cold path.
      SB_LOG(kWarn) << "replication: leader dead and no live candidate";
      return;
    }
    // Barriers raised by the dead incarnation can never be satisfied in
    // its epoch; their resumes are epoch-guarded no-ops anyway.
    barriers_dropped_ += pending_.size();
    pending_.clear();
    install_pending_ = false;
    install_outbox_.clear();
    leader_ = winner;
    promoting_ = true;
    winner_journal = replicas_[winner].journal.get();
    // The standby's state becomes the coordinator's; as leader, the
    // replica keeps none of its own.
    adopted = std::move(replicas_[winner].state);
    replicas_[winner].state = ControllerState{};
    SB_LOG(kInfo) << "replication: electing replica " << winner
                  << " (applied " << replicas_[winner].applied_seq
                  << " records)";
  }

  // Hot promotion: the coordinator adopts the state the standby built
  // record by record — no journal is read, no replay cost is charged — and
  // bumps the epoch so the dead incarnation's continuations and frames
  // fence.
  global_.warm_failover(winner_journal, std::move(adopted));

  Outbox outbox;
  {
    const swb::MutexLock lock{mutex_};
    promoting_ = false;
    Replica& lead = replicas_[winner];
    lead.applied_seq = 0;
    lead.epoch_seen = global_.epoch();
    lead.reorder.clear();
    ++elections_;
    std::ostringstream entry;
    entry << "t=" << context_.sim.now() << ";winner=" << winner
          << ";epoch=" << global_.epoch()
          << ";applied=" << lead.applied_records << "\n";
    election_log_ += entry.str();
    // The new epoch starts every follower from a fresh install (seq 0):
    // whatever the old leader half-streamed becomes irrelevant history.
    outbox = start_stream();
  }
  publish(std::move(outbox));
}

void ReplicaGroup::crash_replica(std::uint32_t replica) {
  bool was_leader = false;
  {
    const swb::MutexLock lock{mutex_};
    SWB_CHECK(replica < replicas_.size());
    if (!replicas_[replica].up) return;
    replicas_[replica].up = false;
    replicas_[replica].reorder.clear();
    was_leader = replica == leader_;
    if (was_leader) {
      barriers_dropped_ += pending_.size();
      pending_.clear();
      install_pending_ = false;
      install_outbox_.clear();
    }
  }
  // A dead leader takes the coordinator down with it; the election waits
  // for the heartbeat silence to cross the detection threshold.
  if (was_leader) global_.set_up(false);
}

void ReplicaGroup::restore_replica(std::uint32_t replica) {
  bool cold = false;
  bool leader_live = false;
  {
    const swb::MutexLock lock{mutex_};
    SWB_CHECK(replica < replicas_.size());
    if (replicas_[replica].up) return;
    replicas_[replica].up = true;
    replicas_[replica].stalled_beats = 0;
    cold = replica == leader_;
    if (cold) promoting_ = true;
    leader_live = replicas_[leader_].up && leader_ != replica;
    if (!cold) {
      // Amnesia: the restarted process holds what its journal holds —
      // the state it may be promoted with before any install arrives.
      Replica& restored = replicas_[replica];
      const ControllerState::IdCheck known = global_.id_check();
      restored.state = ControllerState{};
      restored.state.apply_lines(restored.journal->snapshot_records(), known);
      restored.state.apply_lines(restored.journal->log_records(), known);
    }
  }

  if (cold) {
    // The dead leader came back before (or instead of) an election: the
    // legacy §13 path — full journal replay, replay cost charged.  This
    // is exactly the cold/hot contrast the failover bench measures.
    global_.cold_start();
    Outbox outbox;
    {
      const swb::MutexLock lock{mutex_};
      promoting_ = false;
      ++cold_restarts_;
      refold_leader_digest();
      outbox = start_stream();
    }
    publish(std::move(outbox));
    return;
  }

  // The live leader re-syncs a restored follower with a fresh snapshot
  // install.  With the leader also dead, the next election or cold
  // restart installs instead.
  if (leader_live && global_.up()) {
    Outbox outbox;
    {
      const swb::MutexLock lock{mutex_};
      replicas_[replica].applied_records = 0;
      replicas_[replica].digest = kFnvOffset;
      replicas_[replica].applied_seq = 0;
      replicas_[replica].acked = 0;
      replicas_[replica].reorder.clear();
      push_install_to(replica);
      outbox.swap(install_outbox_);
    }
    publish(std::move(outbox));
  }
}

void ReplicaGroup::refold_leader_digest() {
  Replica& lead = replicas_[leader_];
  const std::vector<std::string> snapshot = lead.journal->snapshot_records();
  const std::vector<std::string> log = lead.journal->log_records();
  lead.digest = fold_records(fold_records(kFnvOffset, snapshot), log);
  lead.applied_records = snapshot.size() + log.size();
  lead.applied_seq = 0;
  lead.epoch_seen = global_.epoch();
  lead.reorder.clear();
}

double ReplicaGroup::mean_quorum_ack_ms() const {
  const swb::MutexLock lock{mutex_};
  if (barriers_released_ == 0) return 0.0;
  return static_cast<double>(barrier_wait_us_total_) /
         static_cast<double>(barriers_released_) / 1000.0;
}

void ReplicaGroup::verify_convergence() const {
  const swb::MutexLock lock{mutex_};
  SWB_CHECK_EQ(divergences_, 0u) << "replica digests diverged mid-run";
  const Replica& lead = replicas_[leader_];
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    const Replica& replica = replicas_[r];
    if (r == leader_) continue;   // audited by GlobalSwitchboard
    replica.state.check_invariants();
    if (!replica.up) continue;
    if (replica.epoch_seen != lead.epoch_seen ||
        replica.applied_seq != stream_seq_) {
      continue;   // not caught up — nothing to compare yet
    }
    // Digest equality is the convergence proof; applied_records counts are
    // NOT compared — a snapshot install legitimately restarts a follower's
    // count from the install set while the leader's keeps its history.
    SWB_CHECK_EQ(replica.digest, lead.digest)
        << "caught-up replica " << r << " diverged from the leader";
  }
}

void ReplicaGroup::check_invariants() const {
  const swb::MutexLock lock{mutex_};
  SWB_CHECK_LT(leader_, replicas_.size());
  SWB_CHECK_GE(quorum_, 1u);
  SWB_CHECK_LE(quorum_, replicas_.size());
  std::uint64_t last_seq = 0;
  for (const Barrier& barrier : pending_) {
    SWB_CHECK_GE(barrier.seq, last_seq) << "quorum barriers out of order";
    SWB_CHECK_LE(barrier.seq, stream_seq_)
        << "barrier ahead of the stream head";
    last_seq = barrier.seq;
  }
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    const Replica& replica = replicas_[r];
    if (r != leader_) {
      replica.state.check_invariants();
      SWB_CHECK_LE(replica.acked, stream_seq_)
          << "follower " << r << " acked past the stream head";
    }
  }
  detector_->check_invariants();
}

}  // namespace switchboard::control
