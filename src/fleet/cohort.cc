#include "fleet/cohort.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/contracts.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/mac.h"

namespace dap::fleet {

namespace {

/// Uniform double in [0, 1) from one stateless 64-bit draw.
double unit_double(std::uint64_t word) noexcept {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

common::Rng sentinel_rng(std::uint64_t cohort_seed) {
  return common::Rng(common::subseed(cohort_seed, 0));
}

/// Stores `value` in the first empty slot of a reservoir that is not full.
void store_first_empty(std::uint32_t* slots, std::size_t m,
                       std::uint32_t value) noexcept {
  for (std::size_t j = 0; j < m; ++j) {
    if (slots[j] == 0) {
      slots[j] = value;
      return;
    }
  }
}

/// Strong auth against one reservoir: consumes only the first slot whose
/// announce matches, like RecordBuffer::take_matching.
bool take_match(std::uint32_t* slots, std::size_t m,
                const std::vector<std::uint8_t>& is_match) noexcept {
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t v = slots[j];
    if (v != 0 && is_match[v - 1] != 0) {
      slots[j] = 0;
      return true;
    }
  }
  return false;
}

}  // namespace

ReceiverCohort::ReceiverCohort(const CohortConfig& config,
                               common::Bytes commitment)
    : config_(config),
      stat_members_(config.members == 0 ? 0 : config.members - 1),
      auth_(crypto::PrfDomain::kChainStep, config.dap.key_size, commitment),
      sentinel_(config.dap, commitment,
                sentinel_rng(config.seed).bytes(16), config.clock,
                sentinel_rng(config.seed).fork(1)) {
  if (config_.members == 0) {
    throw std::invalid_argument("ReceiverCohort: members must be >= 1");
  }
  if (config_.dap.buffers == 0) {
    throw std::invalid_argument("ReceiverCohort: buffers must be >= 1");
  }
}

ReceiverCohort::Round& ReceiverCohort::round_for(std::uint32_t interval) {
  auto it = rounds_.find(interval);
  if (it == rounds_.end()) {
    Round round;
    round.shared.assign(config_.dap.buffers, 0);
    it = rounds_.emplace(interval, std::move(round)).first;
  }
  return it->second;
}

void ReceiverCohort::receive_announce(const wire::MacAnnounce& packet,
                                      sim::SimTime true_now) {
  DAP_REQUIRE(config_.dap.disclosure_delay > 0 && config_.dap.buffers > 0,
              "ReceiverCohort::receive_announce: cohort must be configured");
  const sim::SimTime local_now = local_time(true_now);
  ++stats_.announces_received;
  sentinel_.receive(packet, local_now);
  // Algorithm 2 line 3 for the statistical members: the loose-time
  // safety check, evaluated once for the whole cohort (shared clock).
  if (!cohort_packet_safe(packet.interval, local_now)) {
    ++stats_.announces_unsafe;
    return;
  }
  round_for(packet.interval).macs.push_back(packet.mac);
}

sim::SimTime ReceiverCohort::local_time(sim::SimTime true_now) const noexcept {
  return config_.clock.local_time(true_now) + skew_;
}

sim::SimTime ReceiverCohort::true_time_of(
    sim::SimTime local_now) const noexcept {
  const std::int64_t true_now = static_cast<std::int64_t>(local_now) -
                                static_cast<std::int64_t>(skew_) -
                                config_.clock.offset();
  return true_now > 0 ? static_cast<sim::SimTime>(true_now) : 0;
}

bool ReceiverCohort::cohort_packet_safe(std::uint32_t interval,
                                        sim::SimTime local_now) const {
  if (calibration_.has_value()) {
    return calibration_->packet_safe(interval, config_.dap.disclosure_delay,
                                     local_now, config_.dap.schedule);
  }
  return config_.clock.packet_safe(interval, config_.dap.disclosure_delay,
                                   local_now, config_.dap.schedule);
}

void ReceiverCohort::crash_restart(sim::SimTime true_now,
                                   sim::SimTime reboot_skew_us) {
  // Forward-only: the skew accumulates and is never snapped back — a
  // backward correction would void the loose-sync bound (faults.h).
  skew_ += reboot_skew_us;
  calibration_.reset();  // volatile, like the sentinel's
  rounds_.clear();
  pending_.clear();
  hints_.clear();
  last_walks_.clear();
  sentinel_.crash_restart(local_time(true_now));
  ++stats_.crash_restarts;
}

void ReceiverCohort::enable_resync(
    sim::SimTime handshake_latency_us,
    std::function<bool(sim::SimTime true_now)> transport_up) {
  common::Rng sync_rng(common::subseed(config_.seed, 0x7e55));
  const common::Bytes pairwise = sync_rng.bytes(16);
  sync_client_.emplace(pairwise, sync_rng.next_u64());
  sync_responder_.emplace(pairwise);
  sentinel_.set_resync_handler(
      [this, handshake_latency_us, up = std::move(transport_up)](
          sim::SimTime local_now) -> std::optional<tesla::SyncCalibration> {
        const sim::SimTime true_now = true_time_of(local_now);
        if (up && !up(true_now)) return std::nullopt;
        // A real handshake over a fixed-latency control path: the bound
        // it yields covers the accumulated reboot skew because the
        // responder answers with TRUE sender time while the client
        // anchors on its own (skewed) readings.
        const tesla::SyncRequest request = sync_client_->begin(local_now);
        const tesla::SyncResponse response = sync_responder_->respond(
            request, true_now + handshake_latency_us);
        const sim::SimTime arrival =
            local_time(true_now + 2 * handshake_latency_us);
        auto calibration = sync_client_->complete(
            response, std::max(arrival, local_now));
        if (calibration.has_value()) {
          // The statistical members adopt the sentinel's calibration —
          // without it their shared safety check would reject authentic
          // announces forever after a skewed reboot.
          calibration_ = *calibration;
        }
        return calibration;
      });
}

void ReceiverCohort::enqueue_reveal(const wire::MessageReveal& packet) {
  sentinel_.enqueue(packet);
  pending_.push_back(packet);
}

void ReceiverCohort::install_hints(std::vector<RevealHint> hints,
                                   double audit_fraction,
                                   std::uint64_t audit_seed) {
  if (audit_fraction < 0.0 || audit_fraction > 1.0) {
    throw std::invalid_argument(
        "ReceiverCohort::install_hints: audit_fraction must be in [0, 1]");
  }
  hints_ = std::move(hints);
  audit_fraction_ = audit_fraction;
  audit_seed_ = audit_seed;
}

void ReceiverCohort::replay_shared(Round& round) const {
  const std::size_t m = config_.dap.buffers;
  const auto offers = static_cast<std::uint32_t>(round.macs.size());
  for (; round.replayed < offers; ++round.replayed) {
    if (round.shared_count >= m) {
      // This offer needs a draw, and the members' draws differ.
      round.slots =
          std::make_unique_for_overwrite<std::uint32_t[]>(stat_members_ * m);
      round.counts =
          std::make_unique_for_overwrite<std::uint16_t[]>(stat_members_);
      round.copy_out = true;
      return;
    }
    store_first_empty(round.shared.data(), m, round.replayed + 1);
    ++round.shared_count;
  }
}

std::uint64_t ReceiverCohort::keep_threshold(std::size_t m,
                                             std::uint64_t k) noexcept {
  // fl(m/k) >= 1 keeps every 53-bit word (and 2^53 · m/k could overflow).
  if (k <= m) return std::uint64_t{1} << 53;
  const double p = static_cast<double>(m) / static_cast<double>(k);
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

void ReceiverCohort::grow_keep_table(std::size_t offers) {
  for (std::size_t k = keep_below_.size(); k <= offers; ++k) {
    keep_below_.push_back(keep_threshold(config_.dap.buffers, k));
  }
}

void ReceiverCohort::replay_member(Round& round, std::uint32_t interval,
                                   std::size_t mi) const {
  const std::size_t m = config_.dap.buffers;
  std::uint32_t* slots = round.slots.get() + mi * m;
  std::uint16_t& count = round.counts[mi];
  if (round.copy_out) {
    std::copy_n(round.shared.data(), m, slots);
    count = round.shared_count;
  }
  const auto offers = static_cast<std::uint32_t>(round.macs.size());
  // 1-based offer index ("the k-th copy"). Fill phase: while the member
  // has an empty slot it keeps every copy there and draws nothing. A
  // draw never empties a slot, so once full the member stays full.
  std::uint32_t offer = round.replayed + 1;
  for (; count < m && offer <= offers; ++offer) {
    store_first_empty(slots, m, offer);
    ++count;
  }
  if (offer > offers) return;
  // Draw phase. Stateless draw chain: (cohort seed, member, interval,
  // offer) fully determines every reservoir decision, independent of
  // when — and on which thread — the replay runs. Offer k's keep word is
  // word 2k of the round's chain and its victim word is word 2k+1, drawn
  // only for a kept copy.
  const std::uint64_t member_seed =
      common::subseed(config_.seed, 1 + static_cast<std::uint64_t>(mi));
  const std::uint64_t round_seed = common::subseed(member_seed, interval);
  const std::uint64_t* keep_below = keep_below_.data();
  for (std::uint64_t k = offer; k <= offers; ++k) {
    if (keeps_copy(common::subseed(round_seed, 2 * k), keep_below[k])) {
      slots[common::subseed(round_seed, 2 * k + 1) % m] =
          static_cast<std::uint32_t>(k);
    }
  }
}

std::uint64_t ReceiverCohort::stored_in(const Round& round) const noexcept {
  if (!round.per_member()) {
    return std::uint64_t{round.shared_count} * stat_members_;
  }
  std::uint64_t stored = 0;
  for (std::size_t mi = 0; mi < stat_members_; ++mi) stored += round.counts[mi];
  return stored;
}

std::vector<RevealOutcome> ReceiverCohort::drain(sim::SimTime true_now) {
  const sim::SimTime local_now = local_time(true_now);
  const auto sentinel_outcomes = sentinel_.drain_pending_batch(local_now);
  DAP_INVARIANT(sentinel_outcomes.size() == pending_.size(),
                "sentinel queue diverged from cohort queue");

  // Cooperative verification: a pending reveal matching an installed
  // *invalid* hint skips its chain walk (treated as a weak-auth
  // failure) unless the deterministic audit draw selects it for a local
  // re-walk. Skipping a genuinely-invalid reveal leaves authenticator
  // state identical (failed weak auth installs nothing); a poisoned
  // hint can only suppress a genuine reveal — never admit a forged one.
  std::vector<std::uint8_t> skip_walk(pending_.size(), 0);
  std::vector<const RevealHint*> hint_of(pending_.size(), nullptr);
  if (!hints_.empty()) {
    for (std::size_t p = 0; p < pending_.size(); ++p) {
      for (const RevealHint& hint : hints_) {
        if (hint.interval == pending_[p].interval &&
            common::constant_time_equal(hint.key, pending_[p].key)) {
          hint_of[p] = &hint;
          break;
        }
      }
      if (hint_of[p] == nullptr) continue;
      if (unit_double(common::subseed(audit_seed_, p)) < audit_fraction_) {
        ++stats_.hint_audits;  // audit: walk it anyway, compare verdicts
      } else {
        skip_walk[p] = 1;
        ++stats_.walks_skipped;
      }
    }
  }

  // Weak auth for the walked subset, one accept() per reveal in queue
  // order. Same-interval reveals carry independent key bytes, so each
  // candidate is judged on its own.
  std::vector<bool> weak_verdicts(pending_.size(), false);
  last_walks_.clear();
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    if (skip_walk[p] != 0) continue;
    const bool ok = auth_.accept(pending_[p].interval, pending_[p].key);
    weak_verdicts[p] = ok;
    last_walks_.push_back(
        WalkResult{pending_[p].interval, pending_[p].key, ok});
    if (hint_of[p] != nullptr && ok) {
      // The hint claimed invalid; the audit walk says valid: poisoned.
      ++stats_.poisoned_hints;
      poisoned_sources_.push_back(hint_of[p]->source);
    }
  }
  hints_.clear();

  // Serial pre-pass: one MAC-key derivation per interval per drain (held
  // as precomputed HMAC state, so every per-reveal MAC costs two
  // compressions), and the per-reveal match table over the round's
  // announce arrivals.
  struct Plan {
    std::uint32_t interval = 0;
    bool valid = false;
    Round* round = nullptr;
    std::vector<std::uint8_t> is_match;
  };
  std::map<std::uint32_t, crypto::HmacKey> drain_mac_keys;
  std::vector<Plan> plans(pending_.size());
  for (std::size_t p = 0; p < pending_.size(); ++p) {
    const wire::MessageReveal& packet = pending_[p];
    Plan& plan = plans[p];
    plan.interval = packet.interval;
    ++stats_.reveals_received;
    if (!weak_verdicts[p]) {
      ++stats_.weak_auth_failures;
      continue;
    }
    auto key_it = drain_mac_keys.find(packet.interval);
    if (key_it == drain_mac_keys.end()) {
      auto mac_key = auth_.mac_key(packet.interval);
      if (!mac_key) continue;  // pruned below the chain floor
      ++stats_.mac_key_derivations;
      key_it = drain_mac_keys
                   .try_emplace(packet.interval, crypto::HmacKey(*mac_key))
                   .first;
    }
    plan.valid = true;
    const common::Bytes expected_mac = crypto::compute_mac(
        key_it->second, packet.message, config_.dap.mac_size);
    const auto round_it = rounds_.find(packet.interval);
    if (round_it == rounds_.end()) continue;
    plan.round = &round_it->second;
    plan.is_match.resize(plan.round->macs.size(), 0);
    for (std::size_t a = 0; a < plan.round->macs.size(); ++a) {
      plan.is_match[a] =
          common::constant_time_equal(plan.round->macs[a], expected_mac) ? 1
                                                                         : 0;
    }
  }

  // Reservoir replay. Shared rounds replay once, here; a round whose
  // shared reservoir overflows splits into per-member state.
  std::vector<std::pair<std::uint32_t, Round*>> split_rounds;
  for (auto& [interval, round] : rounds_) {
    if (!round.per_member()) replay_shared(round);
    if (round.per_member()) {
      split_rounds.emplace_back(interval, &round);
      grow_keep_table(round.macs.size());
    }
  }

  // A valid reveal on a shared round matches once, for every member.
  const std::size_t m = config_.dap.buffers;
  std::vector<std::uint64_t> matched(plans.size(), 0);
  std::vector<std::size_t> member_plans;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    Plan& plan = plans[p];
    if (!plan.valid || plan.round == nullptr) continue;
    if (plan.round->per_member()) {
      member_plans.push_back(p);
    } else if (take_match(plan.round->shared.data(), m, plan.is_match)) {
      --plan.round->shared_count;
      matched[p] = stat_members_;
    }
  }

  // Parallel phase over blocks of statistical members: seed split rounds
  // from their shared reservoir, replay them, then match each of their
  // valid plans in queue order. All writes are index-addressed per member
  // or per block, and every random decision comes from the stateless draw
  // chain, so the result is bitwise identical at any thread count.
  if (!split_rounds.empty()) {
    const std::size_t blocks =
        (stat_members_ + kMemberBlock - 1) / kMemberBlock;
    std::vector<std::uint64_t> block_matched(member_plans.size() * blocks, 0);
    common::parallel_for(blocks, [&](std::size_t b) {
      const std::size_t begin = b * kMemberBlock;
      const std::size_t end = std::min(begin + kMemberBlock, stat_members_);
      for (auto& [interval, round] : split_rounds) {
        for (std::size_t mi = begin; mi < end; ++mi) {
          replay_member(*round, interval, mi);
        }
      }
      for (std::size_t q = 0; q < member_plans.size(); ++q) {
        const Plan& plan = plans[member_plans[q]];
        Round& round = *plan.round;
        std::uint64_t hits = 0;
        for (std::size_t mi = begin; mi < end; ++mi) {
          if (take_match(round.slots.get() + mi * m, m, plan.is_match)) {
            --round.counts[mi];
            ++hits;
          }
        }
        block_matched[q * blocks + b] = hits;
      }
    });
    for (auto& [interval, round] : split_rounds) {
      (void)interval;
      round->replayed = static_cast<std::uint32_t>(round->macs.size());
      round->copy_out = false;
    }
    for (std::size_t q = 0; q < member_plans.size(); ++q) {
      for (std::size_t b = 0; b < blocks; ++b) {
        matched[member_plans[q]] += block_matched[q * blocks + b];
      }
    }
  }

  // Serial aggregation in queue order.
  const auto& sentinel_verdicts = sentinel_.last_drain_verdicts();
  DAP_INVARIANT(sentinel_verdicts.size() == pending_.size(),
                "sentinel verdicts diverged from cohort queue");
  std::vector<RevealOutcome> outcomes(plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    RevealOutcome& outcome = outcomes[p];
    outcome.interval = plans[p].interval;
    outcome.message = pending_[p].message;
    outcome.sentinel_authenticated = sentinel_outcomes[p].has_value();
    outcome.verdict = sentinel_verdicts[p];
    if (outcome.sentinel_authenticated) ++stats_.sentinel_auths;
    if (!plans[p].valid) continue;
    outcome.members_authenticated = matched[p];
    stats_.member_auths += matched[p];
    stats_.member_auth_misses += stat_members_ - matched[p];
  }
  pending_.clear();

  std::uint64_t stored = 0;
  for (const auto& [interval, round] : rounds_) {
    (void)interval;
    stored += stored_in(round);
  }
  stats_.stored_records = stored;
  stats_.stored_records_peak = std::max(stats_.stored_records_peak, stored);

  prune_rounds(config_.dap.schedule.interval_at(local_now));
  return outcomes;
}

void ReceiverCohort::prune_rounds(std::uint32_t current_interval) {
  while (!rounds_.empty() &&
         rounds_.begin()->first + config_.dap.disclosure_delay <
             current_interval) {
    rounds_.erase(rounds_.begin());
  }
}

std::uint64_t ReceiverCohort::stored_for_interval(std::uint32_t i) const {
  const auto it = rounds_.find(i);
  return it == rounds_.end() ? 0 : stored_in(it->second);
}

}  // namespace dap::fleet
