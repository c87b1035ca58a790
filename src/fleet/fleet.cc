#include "fleet/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/parallel.h"
#include "obs/registry.h"
#include "sim/adversary.h"

namespace dap::fleet {

namespace {

constexpr char kForgedTag[] = "FORGED";

bool is_forged_payload(common::ByteView message) noexcept {
  const std::size_t tag_len = sizeof(kForgedTag) - 1;
  if (message.size() < tag_len) return false;
  for (std::size_t i = 0; i < tag_len; ++i) {
    if (message[i] != static_cast<std::uint8_t>(kForgedTag[i])) return false;
  }
  return true;
}

}  // namespace

namespace {

obs::SpanTag span_tag_of(tesla::RevealVerdict verdict) noexcept {
  switch (verdict) {
    case tesla::RevealVerdict::kAccepted:
      return obs::SpanTag::kAuthOk;
    case tesla::RevealVerdict::kWeakAuthFail:
      return obs::SpanTag::kWeakAuthFail;
    case tesla::RevealVerdict::kNoRecord:
      return obs::SpanTag::kNoRecord;
    case tesla::RevealVerdict::kKeyPruned:
      return obs::SpanTag::kKeyPruned;
  }
  return obs::SpanTag::kNone;
}

}  // namespace

FleetSim::FleetSim(const ScenarioSpec& spec)
    : spec_(spec),
      topo_(spec.build_topology()),
      rng_(common::subseed(spec.seed, 0xf1ee7)),
      trace_base_(common::subseed(
          spec.seed, common::fnv1a64(common::bytes_of(spec.id())))) {
  spec_.validate();
  depths_ = topo_.depths();
  adjacency_ = topo_.adjacency();

  dap_config_.sender_id = 1;
  dap_config_.chain_length = spec_.intervals + 8;
  dap_config_.disclosure_delay = 1;
  dap_config_.buffers = spec_.buffers;
  dap_config_.schedule = sim::IntervalSchedule(0, spec_.interval_us);

  // Fault scenarios arm desync recovery: reboot skew makes a rejoined
  // cohort's announces fail the safety check until a resync handshake
  // installs a fresh calibration, so the sentinel's ResyncController must
  // be live for the fleet to reconverge.
  if (!spec_.faults.empty()) {
    dap_config_.resync.enabled = true;
    dap_config_.resync.desync_threshold = 3;
    dap_config_.resync.retry_budget = 6;
    dap_config_.resync.backoff_initial = spec_.interval_us / 4;
    dap_config_.resync.backoff_max = 2 * spec_.interval_us;
  }
}

void FleetSim::set_channel_factory(ChannelFactory factory) {
  if (ran_) throw std::logic_error("FleetSim: factories must precede run()");
  channel_factory_ = std::move(factory);
}

void FleetSim::set_latency_factory(LatencyFactory factory) {
  if (ran_) throw std::logic_error("FleetSim: factories must precede run()");
  latency_factory_ = std::move(factory);
}

void FleetSim::set_snapshotter(obs::Snapshotter* snapshotter) {
  if (ran_) {
    throw std::logic_error("FleetSim: set_snapshotter must precede run()");
  }
  snapshotter_ = snapshotter;
}

void FleetSim::set_drain_observer(
    std::function<void(const DrainObservation&)> fn) {
  if (ran_) {
    throw std::logic_error("FleetSim: set_drain_observer must precede run()");
  }
  drain_observer_ = std::move(fn);
}

void FleetSim::set_drain_participant(DrainParticipant* participant) {
  if (ran_) {
    throw std::logic_error(
        "FleetSim: set_drain_participant must precede run()");
  }
  drain_participant_ = participant;
}

void FleetSim::set_ingress_observer(
    std::function<void(std::uint32_t, const sim::FramePtr&)> fn) {
  if (ran_) {
    throw std::logic_error("FleetSim: set_ingress_observer must precede run()");
  }
  ingress_observer_ = std::move(fn);
}

void FleetSim::inject(std::uint32_t node, const wire::Packet& packet) {
  DAP_REQUIRE(ran_, "FleetSim::inject: only valid while run() executes");
  DAP_REQUIRE(node < media_.size() && media_[node] != nullptr,
              "FleetSim::inject: node has no medium (no out-edges)");
  if (const auto* announce = std::get_if<wire::MacAnnounce>(&packet)) {
    if (root_of(*announce) == nullptr) ++report_.forged_announces_sent;
  } else if (const auto* reveal = std::get_if<wire::MessageReveal>(&packet)) {
    if (is_forged_payload(reveal->message)) ++report_.forged_reveals_sent;
  }
  media_[node]->broadcast(packet);
}

void FleetSim::build_network(const common::Bytes& commitment) {
  const std::uint32_t nodes = topo_.node_count;
  media_.resize(nodes);
  cohorts_.resize(nodes);
  traffic_.assign(nodes, NodeTraffic{});
  down_until_.assign(nodes, 0);

  // One bounded ingress guard per node; degraded relays get a tighter
  // bandwidth budget, everyone else the spec's fleet-wide one.
  guards_.clear();
  guards_.reserve(nodes);
  bool any_budget = spec_.guard.budget_mbps > 0.0;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    GuardConfig cfg = spec_.guard;
    cfg.dedup = spec_.relay_dedup;
    for (const DegradedRelaySpec& degraded : spec_.faults.degraded) {
      if (degraded.node == v) {
        cfg.budget_mbps = degraded.budget_mbps;
        any_budget = true;
      }
    }
    guards_.emplace_back(cfg);
  }
  guard_active_ = spec_.relay_dedup || any_budget;

  if (!channel_factory_) {
    channel_factory_ = [this](std::uint32_t, std::uint32_t) {
      std::unique_ptr<sim::Channel> channel;
      if (spec_.hop.loss > 0.0) {
        channel = std::make_unique<sim::BernoulliChannel>(spec_.hop.loss);
      } else {
        channel = std::make_unique<sim::PerfectChannel>();
      }
      if (spec_.hop.duplicate_probability > 0.0) {
        // Outermost, so duplication composes over whatever is inside.
        channel = std::make_unique<sim::DuplicateChannel>(
            std::move(channel), spec_.hop.duplicate_probability);
      }
      return channel;
    };
  }
  if (!latency_factory_) {
    latency_factory_ = [this](std::uint32_t, std::uint32_t) {
      std::unique_ptr<sim::LatencyModel> latency;
      if (spec_.hop.jitter_us > 0) {
        latency = std::make_unique<sim::JitterLink>(spec_.hop.latency_us,
                                                    spec_.hop.jitter_us);
      } else {
        latency = std::make_unique<sim::FixedLatency>(spec_.hop.latency_us);
      }
      return latency;
    };
  }

  // Healing link partitions: each partitioned edge's channel — whether it
  // came from the default stack or a test-supplied factory — is wrapped
  // in a BlackoutChannel gated on that edge's scheduled windows.
  if (!spec_.faults.partitions.empty()) {
    for (const LinkPartitionSpec& partition : spec_.faults.partitions) {
      auto& windows = partition_windows_[{partition.from, partition.to}];
      if (!windows) windows = std::make_shared<sim::FaultSchedule>();
      windows->add_window(
          dap_config_.schedule.interval_start(partition.from_interval),
          dap_config_.schedule.interval_start(partition.until_interval));
    }
    ChannelFactory inner = std::move(channel_factory_);
    channel_factory_ = [this, inner](std::uint32_t from, std::uint32_t to) {
      std::unique_ptr<sim::Channel> channel = inner(from, to);
      const auto it = partition_windows_.find({from, to});
      if (it != partition_windows_.end()) {
        channel = std::make_unique<sim::BlackoutChannel>(std::move(channel),
                                                         it->second, queue_);
      }
      return channel;
    };
  }

  // Cohorts behind every non-root node, or just the leaves.
  std::vector<bool> hosts_cohort(nodes, false);
  if (spec_.cohorts_at_leaves_only) {
    for (const std::uint32_t v : topo_.leaves()) {
      if (v != 0) hosts_cohort[v] = true;
    }
  } else {
    for (std::uint32_t v = 1; v < nodes; ++v) hosts_cohort[v] = true;
  }

  for (std::uint32_t v = 0; v < nodes; ++v) {
    if (hosts_cohort[v]) {
      CohortConfig cohort;
      cohort.members = spec_.members_per_cohort;
      cohort.dap = dap_config_;
      cohort.seed = common::subseed(spec_.seed, 2000 + v);
      // Per-node oscillator skew, derived statelessly so the fleet is
      // reproducible at any thread count.
      const sim::SimTime max_off = spec_.interval_us / 40 + 1;
      const std::int64_t span = 2 * static_cast<std::int64_t>(max_off) + 1;
      const std::int64_t offset =
          static_cast<std::int64_t>(common::subseed(spec_.seed, 5000 + v) %
                                    static_cast<std::uint64_t>(span)) -
          static_cast<std::int64_t>(max_off);
      cohort.clock = sim::LooseClock(offset, max_off);
      cohorts_[v] = std::make_unique<ReceiverCohort>(cohort, commitment);
      if (!spec_.faults.empty()) {
        // Resync transport rides the relay: handshakes fail while the
        // node is crashed, succeed (one hop-latency per leg) otherwise.
        cohorts_[v]->enable_resync(spec_.hop.latency_us,
                                   [this, v](sim::SimTime true_now) {
                                     return true_now >= down_until_[v];
                                   });
      }
    }
  }

  // One medium per relay node; each out-edge is one attached link whose
  // ingress callback delivers locally and forwards downstream.
  for (std::uint32_t v = 0; v < nodes; ++v) {
    if (adjacency_[v].empty()) continue;
    common::Rng medium_rng = rng_.fork(0x3e0 + v);
    media_[v] = std::make_unique<sim::Medium>(queue_, medium_rng);
    for (const std::uint32_t to : adjacency_[v]) {
      media_[v]->attach(
          [this, v, to](const sim::FramePtr& frame, sim::SimTime now) {
            on_packet(v, to, frame, now);
          },
          channel_factory_(v, to), latency_factory_(v, to));
    }
  }

  const std::uint32_t max_depth = topo_.depth();
  announces_in_by_depth_.assign(max_depth + 1, 0);
  hop_latency_by_depth_.assign(max_depth + 1, {});
  member_auth_by_depth_.assign(max_depth + 1, 0);
  sentinel_auth_by_depth_.assign(max_depth + 1, 0);
  sentinel_auth_by_depth_interval_.assign(
      max_depth + 1, std::vector<std::uint64_t>(spec_.intervals + 2, 0));
  cohorts_at_depth_.assign(max_depth + 1, 0);
  for (std::uint32_t v = 0; v < nodes; ++v) {
    if (cohorts_[v]) ++cohorts_at_depth_[depths_[v]];
  }
}

void FleetSim::schedule_faults() {
  const sim::IntervalSchedule& sched = dap_config_.schedule;
  const sim::SimTime interval = spec_.interval_us;
  for (const RelayCrashSpec& crash : spec_.faults.relay_crashes) {
    // Crash a quarter-interval in, before that interval's announce: the
    // guard state and every buffered record die with the node, ingress
    // goes deaf for `downtime_intervals`, then the node rejoins with its
    // oscillator ahead by `reboot_skew_us`.
    const sim::SimTime t_crash =
        sched.interval_start(crash.at_interval) + interval / 4;
    const sim::SimTime t_up =
        t_crash + static_cast<sim::SimTime>(crash.downtime_intervals) * interval;
    const std::uint32_t node = crash.node;
    const sim::SimTime skew = crash.reboot_skew_us;
    queue_.schedule_at(t_crash, [this, node, t_up, skew] {
      down_until_[node] = t_up;
      guards_[node].reset(queue_.now());
      if (cohorts_[node]) cohorts_[node]->crash_restart(queue_.now(), skew);
      ++report_.relay_restarts;
    });
  }
}

const FleetSim::RootAnnounce* FleetSim::root_of(
    const wire::MacAnnounce& announce) const noexcept {
  if (announce.interval >= root_announces_.size()) return nullptr;
  const RootAnnounce& root = root_announces_[announce.interval];
  if (root.mac.empty() ||
      !common::constant_time_equal(root.mac, announce.mac)) {
    return nullptr;
  }
  return &root;
}

bool FleetSim::is_authentic_packet(const wire::Packet& packet) const {
  if (const auto* announce = std::get_if<wire::MacAnnounce>(&packet)) {
    return root_of(*announce) != nullptr;
  }
  if (const auto* reveal = std::get_if<wire::MessageReveal>(&packet)) {
    return !is_forged_payload(reveal->message);
  }
  return false;
}

void FleetSim::on_packet(std::uint32_t from, std::uint32_t node,
                         const sim::FramePtr& frame, sim::SimTime now) {
  if (ingress_observer_) ingress_observer_(node, frame);
  const wire::Packet& packet = frame->packet();
  NodeTraffic& traffic = traffic_[node];
  ++traffic.packets_in;
  if (now < down_until_[node]) {
    // Crashed relay: deaf until it rejoins. Nothing is remembered.
    ++traffic.dropped_down;
    return;
  }
  if (guard_active_) {
    switch (guards_[node].admit(frame->digest(), frame->bits(), now)) {
      case IngressGuard::Verdict::kDuplicate:
        ++traffic.deduped;
        return;
      case IngressGuard::Verdict::kShed:
        ++traffic.shed;
        if (is_authentic_packet(packet)) guards_[node].note_false_drop();
        return;
      case IngressGuard::Verdict::kAdmit:
        break;
    }
  }
  if (const auto* announce = std::get_if<wire::MacAnnounce>(&packet)) {
    if (const RootAnnounce* root = root_of(*announce)) {
      const std::uint32_t d = depths_[node];
      ++announces_in_by_depth_[d];
      hop_latency_by_depth_[d].push_back(
          static_cast<double>(now - root->sent_at));
      // First arrival of the authentic announce at this node: one
      // relay-hop span, chained to the upstream node's announce-path
      // span so chrome://tracing shows the cross-hop route.
      const auto ctx_it = trace_by_interval_.find(announce->interval);
      if (ctx_it != trace_by_interval_.end() &&
          ctx_it->second.announce_arrived[node] == 0) {
        TraceCtx& ctx = ctx_it->second;
        ctx.announce_arrived[node] = now;
        const sim::SimTime begin = (from == 0 || ctx.announce_arrived[from] == 0)
                                       ? root->sent_at
                                       : ctx.announce_arrived[from];
        obs::SpanEvent span;
        span.uid = common::subseed(ctx.trace_id, ++ctx.seq);
        span.trace = ctx.trace_id;
        span.parent = ctx.span_at[from] != 0 ? ctx.span_at[from]
                                             : ctx.span_at[0];
        span.t_begin = begin;
        span.t_end = now;
        span.node = node;
        span.id = announce->interval;
        span.kind = obs::SpanKind::kRelayHop;
        obs::Tracer::global().record_span(span);
        ctx.span_at[node] = span.uid;
      }
    }
    if (cohorts_[node]) cohorts_[node]->receive_announce(*announce, now);
  } else if (const auto* reveal = std::get_if<wire::MessageReveal>(&packet)) {
    if (!is_forged_payload(reveal->message)) {
      const auto ctx_it = trace_by_interval_.find(reveal->interval);
      if (ctx_it != trace_by_interval_.end() &&
          ctx_it->second.reveal_arrived[node] == 0) {
        ctx_it->second.reveal_arrived[node] = now;
      }
    }
    if (cohorts_[node]) cohorts_[node]->enqueue_reveal(*reveal);
  }
  if (media_[node]) {
    media_[node]->broadcast(frame);
    ++traffic.forwarded;
  }
}

void FleetSim::drain_all() {
  const sim::SimTime now = queue_.now();
  for (std::uint32_t v = 0; v < topo_.node_count; ++v) {
    if (!cohorts_[v]) continue;
    const std::uint32_t d = depths_[v];
    if (drain_participant_ != nullptr) {
      drain_participant_->before_drain(v, *cohorts_[v]);
    }
    const std::vector<RevealOutcome> outcomes = cohorts_[v]->drain(now);
    if (drain_participant_ != nullptr) {
      drain_participant_->after_drain(v, *cohorts_[v], outcomes);
    }
    for (const RevealOutcome& outcome : outcomes) {
      const bool forged = is_forged_payload(outcome.message);
      if (drain_observer_) {
        DrainObservation observed;
        observed.node = v;
        observed.interval = outcome.interval;
        observed.forged = forged;
        observed.members_authenticated = outcome.members_authenticated;
        observed.members_total = cohorts_[v]->members() > 0
                                     ? cohorts_[v]->members() - 1
                                     : 0;  // exclude the sentinel
        observed.sentinel_authenticated = outcome.sentinel_authenticated;
        drain_observer_(observed);
      }
      // Verify span: closes this announce's causal chain at this node,
      // tagged with the sentinel's verdict (reject reason on failure).
      const auto ctx_it = trace_by_interval_.find(outcome.interval);
      if (ctx_it != trace_by_interval_.end()) {
        TraceCtx& ctx = ctx_it->second;
        obs::SpanEvent span;
        span.uid = common::subseed(ctx.trace_id, ++ctx.seq);
        span.trace = ctx.trace_id;
        span.parent = forged ? 0 : ctx.span_at[v];
        span.t_begin = (!forged && ctx.reveal_arrived[v] != 0)
                           ? ctx.reveal_arrived[v]
                           : now;
        span.t_end = now;
        span.node = v;
        span.id = outcome.interval;
        span.kind = obs::SpanKind::kVerify;
        span.tag = span_tag_of(outcome.verdict);
        obs::Tracer::global().record_span(span);
      }
      if (forged) {
        report_.forged_accepted += outcome.members_authenticated +
                                   (outcome.sentinel_authenticated ? 1 : 0);
        continue;
      }
      report_.member_auths += outcome.members_authenticated;
      member_auth_by_depth_[d] += outcome.members_authenticated;
      if (outcome.sentinel_authenticated) {
        ++report_.sentinel_auths;
        ++sentinel_auth_by_depth_[d];
        if (outcome.interval < sentinel_auth_by_depth_interval_[d].size()) {
          ++sentinel_auth_by_depth_interval_[d][outcome.interval];
        }
      }
    }
  }
  flush_live_telemetry();
  if (snapshotter_ != nullptr) {
    snapshotter_->maybe_sample(obs::Registry::global(), now);
  }
}

FleetReport FleetSim::run() {
  DAP_REQUIRE(!ran_, "FleetSim: run() is single-shot");
  ran_ = true;

  const common::Bytes sender_seed = rng_.fork(0x5eed).bytes(16);
  protocol::DapSender sender(dap_config_, sender_seed);
  build_network(sender.chain().commitment());
  schedule_faults();

  sim::FloodingForger forger(dap_config_.sender_id, dap_config_.mac_size,
                             rng_.fork(0xf04));
  sim::KeyGuessForger key_forger(dap_config_.sender_id, dap_config_.key_size,
                                 rng_.fork(0x6e5));
  std::vector<std::uint32_t> attacker_nodes = spec_.attackers;
  if (attacker_nodes.empty() && spec_.forged_fraction > 0.0) {
    attacker_nodes.push_back(0);
  }
  // With the adaptive adversary engaged the strategy layer owns announce
  // flooding (it decides per interval whether to attack, via inject());
  // running the static flood too would double-attack. The static forged
  // reveal below still runs — weak auth must reject it either way.
  const std::size_t forged_per_attacker =
      spec_.forged_fraction > 0.0 && !spec_.strategy.adaptive.enabled
          ? sim::FloodingForger::copies_for_fraction(1, spec_.forged_fraction)
          : 0;

  const sim::IntervalSchedule& sched = dap_config_.schedule;
  const sim::SimTime interval = spec_.interval_us;
  root_announces_.resize(std::size_t{spec_.intervals} + 1);
  for (std::uint32_t i = 1; i <= spec_.intervals; ++i) {
    const sim::SimTime t_announce = sched.interval_start(i) + interval / 2;
    queue_.schedule_at(t_announce, [this, &sender, i] {
      const std::string payload = "m" + std::to_string(i);
      const wire::MacAnnounce announce =
          sender.announce(i, common::bytes_of(payload));
      root_announces_[i] = RootAnnounce{announce.mac, queue_.now()};
      ++report_.announces_sent;
      // Open this announce's trace: the root send span is the parent
      // every downstream relay-hop/verify span chains back to.
      TraceCtx ctx;
      ctx.trace_id = common::subseed(trace_base_, i);
      ctx.span_at.assign(topo_.node_count, 0);
      ctx.announce_arrived.assign(topo_.node_count, 0);
      ctx.reveal_arrived.assign(topo_.node_count, 0);
      obs::SpanEvent span;
      span.uid = common::subseed(ctx.trace_id, ++ctx.seq);
      span.trace = ctx.trace_id;
      span.parent = 0;
      span.t_begin = queue_.now();
      span.t_end = queue_.now();
      span.node = 0;
      span.id = i;
      span.kind = obs::SpanKind::kAnnounceSend;
      obs::Tracer::global().record_span(span);
      ctx.span_at[0] = span.uid;
      trace_by_interval_.insert_or_assign(i, std::move(ctx));
      media_[0]->broadcast(announce);
    });
    if (forged_per_attacker > 0) {
      queue_.schedule_at(
          t_announce + sim::kMillisecond,
          [this, &forger, i, forged_per_attacker, attacker_nodes] {
            for (const std::uint32_t a : attacker_nodes) {
              forger.flood(*media_[a], i, forged_per_attacker);
              report_.forged_announces_sent += forged_per_attacker;
            }
          });
    }
    const sim::SimTime t_reveal = sched.interval_start(i + 1) + interval / 8;
    queue_.schedule_at(t_reveal, [this, &sender, i] {
      const auto ctx_it = trace_by_interval_.find(i);
      if (ctx_it != trace_by_interval_.end()) {
        TraceCtx& ctx = ctx_it->second;
        obs::SpanEvent span;
        span.uid = common::subseed(ctx.trace_id, ++ctx.seq);
        span.trace = ctx.trace_id;
        span.parent = ctx.span_at[0];
        span.t_begin = queue_.now();
        span.t_end = queue_.now();
        span.node = 0;
        span.id = i;
        span.kind = obs::SpanKind::kRevealSend;
        obs::Tracer::global().record_span(span);
      }
      media_[0]->broadcast(sender.reveal(i));
    });
    if (!attacker_nodes.empty()) {
      // Forged reveal with a tagged payload and a guessed key: only weak
      // authentication stands between it and acceptance.
      queue_.schedule_at(t_reveal + sim::kMillisecond,
                         [this, &key_forger, i, attacker_nodes] {
                           const sim::FramePtr forged = sim::make_frame(
                               key_forger.forge_reveal(
                                   i, common::bytes_of("FORGED")));
                           for (const std::uint32_t a : attacker_nodes) {
                             media_[a]->broadcast(forged);
                             ++report_.forged_reveals_sent;
                           }
                         });
    }
    queue_.schedule_at(sched.interval_start(i + 1) + interval * 3 / 4,
                       [this] { drain_all(); });
  }

  queue_.run();
  drain_all();  // catch reveals still queued after the last sweep
  rollup();
  return report_;
}

void FleetSim::flush_live_telemetry() {
  auto& reg = obs::Registry::global();
  const auto flush_counter = [&reg](const std::string& name,
                                    std::uint64_t current,
                                    std::uint64_t& flushed) {
    if (current > flushed) {
      reg.add(reg.counter(name), current - flushed);
      flushed = current;
    }
  };
  flush_counter("fleet.announces_sent", report_.announces_sent,
                flushed_.announces_sent);
  flush_counter("fleet.forged_announces_sent", report_.forged_announces_sent,
                flushed_.forged_announces_sent);
  flush_counter("fleet.forged_accepted", report_.forged_accepted,
                flushed_.forged_accepted);
  std::uint64_t deduped = 0;
  std::uint64_t dropped_down = 0;
  for (const NodeTraffic& t : traffic_) {
    deduped += t.deduped;
    dropped_down += t.dropped_down;
  }
  flush_counter("fleet.dedup_dropped", deduped, flushed_.dedup_dropped);
  flush_counter("fleet.dropped_while_down", dropped_down,
                flushed_.dropped_while_down);
  flush_counter("fleet.relay_restarts", report_.relay_restarts,
                flushed_.relay_restarts);

  const std::uint32_t max_depth = topo_.depth();
  std::uint64_t evicted = 0;
  std::uint64_t shed = 0;
  std::uint64_t false_drops = 0;
  std::vector<std::uint64_t> evicted_by_depth(max_depth + 1, 0);
  std::vector<std::uint64_t> shed_by_depth(max_depth + 1, 0);
  for (std::size_t v = 0; v < guards_.size(); ++v) {
    const GuardStats& g = guards_[v].stats();
    evicted += g.evicted;
    shed += g.shed;
    false_drops += g.false_drops;
    evicted_by_depth[depths_[v]] += g.evicted;
    shed_by_depth[depths_[v]] += g.shed;
  }
  flush_counter("fleet.guard.evicted", evicted, flushed_.guard_evicted);
  flush_counter("fleet.guard.shed", shed, flushed_.guard_shed);
  flush_counter("fleet.guard.false_drop", false_drops,
                flushed_.guard_false_drops);

  flushed_.announces_in_by_depth.resize(max_depth + 1, 0);
  flushed_.member_auth_by_depth.resize(max_depth + 1, 0);
  flushed_.sentinel_auth_by_depth.resize(max_depth + 1, 0);
  flushed_.guard_evicted_by_depth.resize(max_depth + 1, 0);
  flushed_.guard_shed_by_depth.resize(max_depth + 1, 0);
  for (std::uint32_t d = 1; d <= max_depth; ++d) {
    const std::string prefix = "fleet.d" + std::to_string(d) + ".";
    flush_counter(prefix + "announces_in", announces_in_by_depth_[d],
                  flushed_.announces_in_by_depth[d]);
    flush_counter(prefix + "guard_evicted", evicted_by_depth[d],
                  flushed_.guard_evicted_by_depth[d]);
    flush_counter(prefix + "guard_shed", shed_by_depth[d],
                  flushed_.guard_shed_by_depth[d]);
    flush_counter(prefix + "member_auths", member_auth_by_depth_[d],
                  flushed_.member_auth_by_depth[d]);
    flush_counter(prefix + "sentinel_auths", sentinel_auth_by_depth_[d],
                  flushed_.sentinel_auth_by_depth[d]);
    // Samples since the last flush move into the histogram and are
    // dropped here, so the buffer holds one drain sweep's arrivals.
    std::vector<double>& hop_latency = hop_latency_by_depth_[d];
    if (!hop_latency.empty()) {
      const auto hist = reg.histogram(prefix + "hop_latency_us");
      for (const double us : hop_latency) reg.observe(hist, us);
      hop_latency.clear();
    }
  }
}

void FleetSim::rollup() {
  report_.intervals = spec_.intervals;
  report_.max_depth = topo_.depth();
  for (std::uint32_t v = 0; v < topo_.node_count; ++v) {
    if (!cohorts_[v]) continue;
    ++report_.cohort_count;
    report_.total_members += cohorts_[v]->members();
    const CohortStats& stats = cohorts_[v]->stats();
    report_.announces_unsafe += stats.announces_unsafe;
    report_.weak_auth_failures += stats.weak_auth_failures;
    report_.stored_records_peak += stats.stored_records_peak;
  }
  for (std::uint32_t v = 0; v < topo_.node_count; ++v) {
    report_.dedup_dropped += traffic_[v].deduped;
    report_.dropped_while_down += traffic_[v].dropped_down;
    if (media_[v]) {
      report_.duplicated_frames += media_[v]->duplicated_frames();
      report_.total_bits += media_[v]->total_bits();
    }
  }
  report_.guard_capacity = spec_.guard.capacity;
  for (const IngressGuard& guard : guards_) {
    const GuardStats& g = guard.stats();
    report_.guard_evicted += g.evicted;
    report_.guard_shed += g.shed;
    report_.guard_false_drops += g.false_drops;
    report_.guard_peak_entries = std::max<std::uint64_t>(
        report_.guard_peak_entries, guard.peak_occupancy());
  }

  // Reconvergence clock: for every depth, intervals past the fault
  // horizon until all of its cohorts sentinel-authenticate in the same
  // announce interval again.
  report_.fault_clear_interval = spec_.faults.last_clear_interval();
  if (!spec_.faults.empty()) {
    const std::uint32_t clear = report_.fault_clear_interval;
    report_.reconverge_intervals.assign(report_.max_depth + 1, 0);
    for (std::uint32_t d = 1; d <= report_.max_depth; ++d) {
      if (cohorts_at_depth_[d] == 0) continue;
      std::uint32_t reconverged = kNeverReconverged;
      for (std::uint32_t i = std::max(clear, 1U); i <= spec_.intervals; ++i) {
        if (sentinel_auth_by_depth_interval_[d][i] == cohorts_at_depth_[d]) {
          reconverged = i - std::min(i, clear);
          break;
        }
      }
      report_.reconverge_intervals[d] = reconverged;
    }
  }
  const double opportunities = static_cast<double>(report_.total_members) *
                               static_cast<double>(report_.intervals);
  report_.auth_rate =
      opportunities > 0.0
          ? static_cast<double>(report_.member_auths +
                                report_.sentinel_auths) /
                opportunities
          : 0.0;

  // Per-depth telemetry flows out incrementally at every drain sweep
  // (flush_live_telemetry), so the snapshot stream carries live curves;
  // this final flush picks up anything after the last sweep, then the
  // run-scoped aggregates land. Handles resolve against the ambient
  // registry (the calling shard under parallel fan-out).
  flush_live_telemetry();
  auto& reg = obs::Registry::global();
  reg.add(reg.counter("fleet.members"), report_.total_members);
  // Auth-rate numerator/denominator as plain counters so downstream
  // trend gating can recompute the rate from any merged registry.
  reg.add(reg.counter("fleet.auths"),
          report_.member_auths + report_.sentinel_auths);
  reg.add(reg.counter("fleet.auth_opportunities"),
          report_.total_members * report_.intervals);
  // The bounded-relay-memory invariant, exported for trend gating:
  // peak_entries <= capacity regardless of flood pressure.
  reg.set(reg.gauge("fleet.guard.peak_entries"),
          static_cast<double>(report_.guard_peak_entries));
  reg.set(reg.gauge("fleet.guard.capacity"),
          static_cast<double>(report_.guard_capacity));
  if (snapshotter_ != nullptr) {
    snapshotter_->sample(reg, queue_.now());
  }
}

const NodeTraffic& FleetSim::node_traffic(std::uint32_t v) const {
  if (v >= traffic_.size()) {
    throw std::out_of_range("FleetSim::node_traffic: node out of range");
  }
  return traffic_[v];
}

const ReceiverCohort* FleetSim::cohort_at(std::uint32_t v) const {
  if (v >= cohorts_.size()) return nullptr;
  return cohorts_[v].get();
}

}  // namespace dap::fleet
