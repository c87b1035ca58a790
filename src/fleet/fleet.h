#pragma once
// Fleet-scale multi-hop broadcast simulation.
//
// FleetSim instantiates a ScenarioSpec: one DapSender at the topology
// root, a sim::Medium per relay node (one link per out-edge, each with
// its own channel + latency model built from the hop spec or a
// test-supplied factory), and a ReceiverCohort behind every non-root
// node (or every leaf). Each packet is framed once where it originates;
// relays forward that same immutable frame hop by hop through the shared
// EventQueue, never re-encoding it, and their ingress guards key on the
// digest of its bytes, computed once. An optional per-relay dedup drops
// packets a node has already forwarded so multi-parent topologies
// (gossip, grid) do not amplify traffic combinatorially — switch it off
// to observe exactly that amplification.
//
// Per interval the script mirrors the chaos harness: the root announces
// (MAC_i, i) mid-interval, per-hop flooding adversaries inject forged
// announce copies, the reveal (M_i, K_i, i) follows one interval later,
// a forged reveal with a tagged payload rides behind it (weak auth must
// reject it), and every cohort drains late in the interval. Telemetry
// rolls up per topology depth into the ambient obs registry in
// topology order, so runs fanned out by common::parallel merge
// deterministically.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fleet/cohort.h"
#include "fleet/guard.h"
#include "fleet/scenario.h"
#include "fleet/topology.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/medium.h"

namespace dap::fleet {

/// One cohort drain outcome, surfaced to an installed drain observer.
/// Generic feedback channel: the strategy layer's adaptive adversary
/// derives its per-interval authentication signal from these without
/// fleet depending back on strategy (layering stays acyclic).
struct DrainObservation {
  std::uint32_t node = 0;
  std::uint32_t interval = 0;
  /// Payload carried the forged tag (authentications count toward
  /// FleetReport::forged_accepted, which must stay 0).
  bool forged = false;
  std::uint64_t members_authenticated = 0;
  /// Statistical members of the cohort (denominator for auth share).
  std::uint64_t members_total = 0;
  bool sentinel_authenticated = false;
};

/// Hook around every cohort drain, invoked in node-id order inside
/// drain_all() — deterministic at any thread count. Cooperative
/// verification implements this to pass verdict hints root-ward ->
/// leaf-ward between cohorts of the same sweep.
class DrainParticipant {
 public:
  virtual ~DrainParticipant() = default;
  /// Called before cohort `node` drains (install hints here).
  virtual void before_drain(std::uint32_t node, ReceiverCohort& cohort) = 0;
  /// Called after, with the drain's outcomes (harvest verdicts here).
  virtual void after_drain(std::uint32_t node, ReceiverCohort& cohort,
                           const std::vector<RevealOutcome>& outcomes) = 0;
};

/// Per-node relay accounting (test introspection).
struct NodeTraffic {
  std::uint64_t packets_in = 0;   // deliveries reaching this node's ingress
  std::uint64_t deduped = 0;      // dropped as already-forwarded
  std::uint64_t shed = 0;         // dropped by the guard's bandwidth budget
  std::uint64_t dropped_down = 0; // arrived while the relay was crashed
  std::uint64_t forwarded = 0;    // broadcasts re-issued downstream
};

/// Sentinel value in FleetReport::reconverge_intervals: the depth never
/// returned to full sentinel authentication after the fault horizon.
inline constexpr std::uint32_t kNeverReconverged = UINT32_MAX;

struct FleetReport {
  std::uint64_t total_members = 0;
  std::uint64_t cohort_count = 0;
  std::uint32_t intervals = 0;
  std::uint32_t max_depth = 0;
  std::uint64_t announces_sent = 0;
  std::uint64_t forged_announces_sent = 0;
  std::uint64_t forged_reveals_sent = 0;
  /// Strong-auth successes: statistical members / sentinels, authentic
  /// payloads only.
  std::uint64_t member_auths = 0;
  std::uint64_t sentinel_auths = 0;
  /// Authentications whose payload carried the forged tag. MUST be 0.
  std::uint64_t forged_accepted = 0;
  std::uint64_t announces_unsafe = 0;
  std::uint64_t weak_auth_failures = 0;
  std::uint64_t dedup_dropped = 0;
  std::uint64_t duplicated_frames = 0;
  std::uint64_t total_bits = 0;
  // ---- Ingress-guard accounting (bounded relay data plane) ------------
  /// Packets evicted from a relay's fixed-capacity tag store (slot reuse).
  std::uint64_t guard_evicted = 0;
  /// Packets shed by a relay's bandwidth budget.
  std::uint64_t guard_shed = 0;
  /// Authentic packets among the shed ones (collateral of the budget).
  std::uint64_t guard_false_drops = 0;
  /// Max tag-store occupancy over all relays; <= guard_capacity always.
  std::uint64_t guard_peak_entries = 0;
  std::uint64_t guard_capacity = 0;
  // ---- Fault injection --------------------------------------------------
  /// Relay crash/restart cycles executed.
  std::uint64_t relay_restarts = 0;
  /// Packets that arrived at a crashed (deaf) relay.
  std::uint64_t dropped_while_down = 0;
  /// First interval with every scheduled fault cleared (0 = no faults).
  std::uint32_t fault_clear_interval = 0;
  /// Per depth (index 1..max_depth; index 0 unused): intervals past the
  /// fault horizon until every cohort at that depth authenticates its
  /// sentinel again in the same interval. 0 = immediate, kNeverReconverged
  /// = never within the run. Empty when the spec schedules no faults.
  std::vector<std::uint32_t> reconverge_intervals;
  /// Peak statistical-member records stored across all cohorts
  /// (x 56 bits = the defense-cost memory bound, Fig. 8's quantity).
  std::uint64_t stored_records_peak = 0;
  /// (member_auths + sentinel_auths) / (total_members * intervals).
  double auth_rate = 0.0;
  [[nodiscard]] bool zero_forged() const noexcept {
    return forged_accepted == 0;
  }
};

class FleetSim {
 public:
  using ChannelFactory = std::function<std::unique_ptr<sim::Channel>(
      std::uint32_t from, std::uint32_t to)>;
  using LatencyFactory = std::function<std::unique_ptr<sim::LatencyModel>(
      std::uint32_t from, std::uint32_t to)>;

  /// Validates the spec and builds the topology; media/cohorts are
  /// created by run() so factories installed after construction apply.
  explicit FleetSim(const ScenarioSpec& spec);

  /// Overrides the per-edge channel model (default: the hop spec's
  /// loss + duplication stack). Must be called before run().
  void set_channel_factory(ChannelFactory factory);
  /// Overrides the per-edge latency model (default: hop spec's fixed
  /// latency or jitter link). Must be called before run().
  void set_latency_factory(LatencyFactory factory);

  /// Attaches a snapshotter that samples the ambient registry at every
  /// drain sweep (sim-time cadence applies) plus once at rollup, turning
  /// the run's telemetry into a time series. Must precede run(); the
  /// snapshotter must outlive it. nullptr detaches.
  void set_snapshotter(obs::Snapshotter* snapshotter);

  /// Observer invoked once per RevealOutcome during every drain sweep
  /// (node-id order). Must be installed before run(); nullptr detaches.
  void set_drain_observer(std::function<void(const DrainObservation&)> fn);
  /// Participant hooked around every cohort drain. Must be installed
  /// before run(); the participant must outlive it. nullptr detaches.
  void set_drain_participant(DrainParticipant* participant);

  /// Observer called with every frame reaching node `node`'s ingress,
  /// before the crash check and the guard. A test seam: it shows which
  /// frame object each hop received. Must be installed before run();
  /// nullptr detaches.
  void set_ingress_observer(
      std::function<void(std::uint32_t node, const sim::FramePtr& frame)> fn);

  /// Broadcasts `packet` from node `v`'s medium. Only valid while run()
  /// is executing (call it from events scheduled on queue()): the media
  /// are built by run(). Forged-traffic counters are maintained from
  /// the packet's payload, so injected attack traffic shows up in the
  /// report exactly like the built-in adversaries'.
  void inject(std::uint32_t node, const wire::Packet& packet);

  /// Executes the full scenario. Single-shot by contract: a second call
  /// violates a DAP_REQUIRE precondition.
  FleetReport run();

  /// The simulation clock — exposed so tests can wire schedule-driven
  /// fault decorators (BlackoutChannel needs the queue as its clock).
  [[nodiscard]] sim::EventQueue& queue() noexcept { return queue_; }

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  /// Valid after run().
  [[nodiscard]] const NodeTraffic& node_traffic(std::uint32_t v) const;
  /// Cohort behind node v, nullptr when the node hosts none (root, or
  /// relays under cohorts_at_leaves_only). Valid after run().
  [[nodiscard]] const ReceiverCohort* cohort_at(std::uint32_t v) const;

 private:
  void build_network(const common::Bytes& commitment);
  void schedule_faults();
  void on_packet(std::uint32_t from, std::uint32_t node,
                 const sim::FramePtr& frame, sim::SimTime now);
  /// Authentic control stream? (root announce MAC or genuine reveal) —
  /// classifies budget sheds as false drops.
  [[nodiscard]] bool is_authentic_packet(const wire::Packet& packet) const;
  void drain_all();
  void rollup();
  /// Adds the counters/samples accrued since the previous flush to the
  /// ambient registry; called at every drain sweep and once at rollup so
  /// snapshots see live totals while end-of-run values stay exact.
  void flush_live_telemetry();

  ScenarioSpec spec_;
  Topology topo_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  sim::EventQueue queue_;
  common::Rng rng_;
  ChannelFactory channel_factory_;
  LatencyFactory latency_factory_;
  bool ran_ = false;

  protocol::DapConfig dap_config_;
  std::vector<std::unique_ptr<sim::Medium>> media_;       // by node
  std::vector<std::unique_ptr<ReceiverCohort>> cohorts_;  // by node
  std::vector<NodeTraffic> traffic_;                      // by node
  /// Bounded ingress guard per node: fixed-capacity dedup tag store plus
  /// optional bandwidth budget. Replaces the historical unbounded
  /// per-relay `seen_` sets — relay memory is O(guard capacity) however
  /// hard the flood pushes.
  std::vector<IngressGuard> guards_;
  /// False while both dedup and every budget are disabled — skips the
  /// per-packet hash + guard probe entirely.
  bool guard_active_ = false;
  /// Crash state: node v drops all ingress while now < down_until_[v].
  std::vector<sim::SimTime> down_until_;
  /// Healing link partitions, keyed by directed edge; consulted by the
  /// BlackoutChannel wrapper around the channel factory. Ordered map:
  /// built once pre-run, but keep lookup deterministic on principle.
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::shared_ptr<sim::FaultSchedule>>
      partition_windows_;
  /// The sender's one authentic announce per interval, indexed by
  /// interval (empty MAC until sent), with its root send time, for
  /// per-depth hop-latency accounting of the genuine control stream.
  struct RootAnnounce {
    common::Bytes mac;
    sim::SimTime sent_at = 0;
  };
  std::vector<RootAnnounce> root_announces_;
  /// The root record when `announce` is its interval's authentic
  /// announce (same interval, same MAC tag), else null.
  [[nodiscard]] const RootAnnounce* root_of(
      const wire::MacAnnounce& announce) const noexcept;
  std::vector<std::uint64_t> announces_in_by_depth_;
  /// Per-depth hop latencies of authentic announce arrivals since the
  /// last flush_live_telemetry(), which moves them into the registry.
  std::vector<std::vector<double>> hop_latency_by_depth_;

  FleetReport report_;
  std::vector<std::uint64_t> member_auth_by_depth_;
  std::vector<std::uint64_t> sentinel_auth_by_depth_;
  /// [depth][announce interval] -> sentinel auths, for the per-depth
  /// reconvergence clock after the fault horizon.
  std::vector<std::vector<std::uint64_t>> sentinel_auth_by_depth_interval_;
  std::vector<std::uint64_t> cohorts_at_depth_;

  obs::Snapshotter* snapshotter_ = nullptr;
  std::function<void(const DrainObservation&)> drain_observer_;
  std::function<void(std::uint32_t, const sim::FramePtr&)> ingress_observer_;
  DrainParticipant* drain_participant_ = nullptr;

  /// Causal tracing: each authentic announce gets one trace id at the
  /// sender; spans chain send -> relay hops -> verify across the
  /// topology. Pure sim-side metadata — no protocol bytes change.
  struct TraceCtx {
    std::uint64_t trace_id = 0;
    std::uint64_t seq = 0;  // per-trace span uid sequence
    /// Last announce-path span uid per node (0 = announce never seen).
    std::vector<std::uint64_t> span_at;
    /// First announce arrival time per node (0 = not yet).
    std::vector<sim::SimTime> announce_arrived;
    /// First authentic-reveal arrival time per node (0 = not yet).
    std::vector<sim::SimTime> reveal_arrived;
  };
  /// Ordered because output-adjacent state must be deterministic by
  /// construction: span emission consults this per packet, and exports
  /// must not be able to inherit hash-seeded ordering even accidentally.
  std::map<std::uint32_t, TraceCtx> trace_by_interval_;
  std::uint64_t trace_base_ = 0;

  /// Counters already flushed to the registry (delta bookkeeping).
  struct FlushState {
    std::uint64_t announces_sent = 0;
    std::uint64_t forged_announces_sent = 0;
    std::uint64_t forged_accepted = 0;
    std::uint64_t dedup_dropped = 0;
    std::uint64_t guard_evicted = 0;
    std::uint64_t guard_shed = 0;
    std::uint64_t guard_false_drops = 0;
    std::uint64_t relay_restarts = 0;
    std::uint64_t dropped_while_down = 0;
    std::vector<std::uint64_t> guard_evicted_by_depth;
    std::vector<std::uint64_t> guard_shed_by_depth;
    std::vector<std::uint64_t> announces_in_by_depth;
    std::vector<std::uint64_t> member_auth_by_depth;
    std::vector<std::uint64_t> sentinel_auth_by_depth;
  };
  FlushState flushed_;
};

}  // namespace dap::fleet
