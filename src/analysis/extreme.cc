#include "analysis/extreme.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "game/bandwidth.h"
#include "sim/adversary.h"

namespace dap::analysis {

bool simulate_lossy_dap_round(double loss, double p, std::size_t m,
                              std::size_t announce_copies,
                              std::size_t reveal_copies, common::Rng& rng) {
  protocol::DapConfig config;
  config.buffers = m;
  config.chain_length = 2;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);

  protocol::DapSender sender(config, rng.bytes(16));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 rng.bytes(16), sim::LooseClock(0, 0),
                                 rng.fork(1));
  sim::FloodingForger forger(config.sender_id, config.mac_size, rng.fork(2));

  const wire::MacAnnounce authentic =
      sender.announce(1, common::bytes_of("report"));

  // Delivered authentic copies after channel loss.
  std::size_t delivered_authentic = 0;
  for (std::size_t c = 0; c < announce_copies; ++c) {
    if (!rng.bernoulli(loss)) ++delivered_authentic;
  }
  // The attacker floods relative to what actually reaches the receiver
  // (it pushes enough volume that its own losses do not matter).
  const std::size_t forged = sim::FloodingForger::copies_for_fraction(
      std::max<std::size_t>(delivered_authentic, 1), p);

  std::vector<wire::MacAnnounce> arriving;
  arriving.reserve(delivered_authentic + forged);
  for (std::size_t c = 0; c < delivered_authentic; ++c) {
    arriving.push_back(authentic);
  }
  for (std::size_t f = 0; f < forged; ++f) {
    arriving.push_back(forger.forge(1));
  }
  for (std::size_t i = arriving.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, i - 1));
    std::swap(arriving[i - 1], arriving[j]);
  }
  const sim::SimTime mid = sim::kSecond / 2;
  for (const auto& packet : arriving) receiver.receive(packet, mid);

  // Reveal phase: each repeated reveal is independently lossy.
  const auto reveal = sender.reveal(1);
  for (std::size_t r = 0; r < reveal_copies; ++r) {
    if (rng.bernoulli(loss)) continue;
    if (receiver.receive(reveal, sim::kSecond + mid)) return true;
    // A delivered reveal consumes the round whether or not it matched.
    return false;
  }
  return false;  // every reveal copy lost
}

std::vector<ExtremeCell> extreme_conditions_grid(
    const ExtremeGridConfig& config) {
  // Flatten the (loss, p, trial) nest: the per-trial RNGs are forked
  // serially in the legacy (cell-major, trial-minor) order, then every
  // trial fans out into its own slot.
  struct Trial {
    std::size_t cell = 0;
    double loss = 0.0;
    double p = 0.0;
    common::Rng rng{0};
  };
  common::Rng master(config.seed);
  const std::size_t cell_count = config.losses.size() * config.ps.size();
  std::vector<Trial> trials;
  trials.reserve(cell_count * config.trials);
  std::size_t cell_index = 0;
  for (double loss : config.losses) {
    for (double p : config.ps) {
      for (std::size_t t = 0; t < config.trials; ++t) {
        Trial trial;
        trial.cell = cell_index;
        trial.loss = loss;
        trial.p = p;
        trial.rng = master.fork((cell_index << 32) ^
                                static_cast<std::uint64_t>(t));
        trials.push_back(trial);
      }
      ++cell_index;
    }
  }

  const std::vector<char> won = common::parallel_map<char>(
      trials.size(), [&config, &trials](std::size_t i) {
        return static_cast<char>(simulate_lossy_dap_round(
            trials[i].loss, trials[i].p, config.m, config.announce_copies,
            config.reveal_copies, trials[i].rng));
      });

  std::vector<std::size_t> successes(cell_count, 0);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (won[i] != 0) ++successes[trials[i].cell];
  }

  std::vector<ExtremeCell> grid;
  grid.reserve(cell_count);
  cell_index = 0;
  for (double loss : config.losses) {
    for (double p : config.ps) {
      ExtremeCell cell;
      cell.loss = loss;
      cell.p = p;
      cell.measured_success = static_cast<double>(successes[cell_index]) /
                              static_cast<double>(config.trials);
      cell.analytic =
          (1.0 - std::pow(loss, static_cast<double>(config.announce_copies))) *
          game::defense_success(p, config.m) *
          (1.0 - std::pow(loss, static_cast<double>(config.reveal_copies)));
      grid.push_back(cell);
      ++cell_index;
    }
  }
  return grid;
}

}  // namespace dap::analysis
