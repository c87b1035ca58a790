// Cross-module integration tests: full protocol stacks driven through
// the event-driven broadcast medium with loss, latency, clock skew and
// live attackers — the closest thing to the paper's deployment scenario.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/adaptive_defender.h"
#include "dap/dap.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/medium.h"
#include "tesla/multilevel.h"
#include "tesla/teslapp.h"
#include "tesla/timesync.h"

namespace dap {
namespace {

using common::Bytes;
using common::bytes_of;
using common::Rng;

// ------------------------------------------ TESLA++ over a lossy medium

TEST(Integration, TeslaOverLossyMediumWithSkewedClocks) {
  sim::EventQueue queue;
  Rng rng(1);
  sim::Medium medium(queue, rng);

  tesla::TeslaPpConfig config;
  config.chain_length = 64;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  tesla::TeslaPpSender sender(config, bytes_of("campaign-seed"));

  // The commitment is distributed out-of-band to every receiver.
  constexpr int kReceivers = 5;
  std::vector<tesla::TeslaPpReceiver> receivers;
  std::vector<std::size_t> authenticated(kReceivers, 0);
  // Intervals whose announce (bit 0) and reveal (bit 1) a receiver heard.
  std::vector<std::map<std::uint32_t, int>> heard(kReceivers);
  receivers.reserve(kReceivers);
  for (int r = 0; r < kReceivers; ++r) {
    const auto clock =
        sim::LooseClock::random(rng, 50 * sim::kMillisecond);
    receivers.emplace_back(config, sender.chain().commitment(),
                           rng.fork(static_cast<std::uint64_t>(r)).bytes(16),
                           clock);
  }
  for (int r = 0; r < kReceivers; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    medium.attach(
        [&, ri](const sim::FramePtr& frame, sim::SimTime now) {
          const wire::Packet& packet = frame->packet();
          if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
            heard[ri][a->interval] |= 1;
            receivers[ri].receive(*a, now);
          } else if (const auto* m =
                         std::get_if<wire::MessageReveal>(&packet)) {
            heard[ri][m->interval] |= 2;
            authenticated[ri] += receivers[ri].receive(*m, now).size();
          }
        },
        std::make_unique<sim::BernoulliChannel>(0.2),
        5 * sim::kMillisecond);
  }

  for (std::uint32_t i = 1; i <= 40; ++i) {
    queue.schedule_at(config.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("r"))});
    });
    queue.schedule_at(config.schedule.interval_start(i + 1) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.reveal(i)});
    });
  }
  queue.run();

  for (std::size_t r = 0; r < kReceivers; ++r) {
    // 20% loss per frame: a receiver hears both halves of ~26 of 40
    // rounds. Clock skew within the bound costs none of them: every
    // round whose announce and reveal both arrive authenticates, and a
    // lost reveal never stops a later key from verifying.
    std::size_t both = 0;
    for (const auto& [interval, bits] : heard[r]) both += bits == 3 ? 1 : 0;
    EXPECT_EQ(authenticated[r], both) << "r=" << r;
    EXPECT_GT(authenticated[r], 16u) << "r=" << r;
    EXPECT_EQ(receivers[r].stats().announces_unsafe, 0u);
    EXPECT_EQ(receivers[r].stats().keys_rejected, 0u);
  }
}

// ---------------------------------- multi-level μTESLA under burst loss

TEST(Integration, MuTeslaSurvivesGilbertElliottBursts) {
  sim::EventQueue queue;
  Rng rng(2);
  sim::Medium medium(queue, rng);

  tesla::MultiLevelConfig config;
  config.high_length = 6;
  config.low_length = 10;
  config.low_disclosure_delay = 1;
  config.high_schedule = sim::IntervalSchedule(0, 10 * sim::kSecond);
  tesla::MultiLevelSender sender(config, bytes_of("seed"));

  tesla::MultiLevelReceiver receiver(config, sender.bootstrap(),
                                     sim::LooseClock(0, 0), rng.fork(1));
  std::size_t authenticated = 0;
  medium.attach(
      [&](const sim::FramePtr& frame, sim::SimTime now) {
        const wire::Packet& packet = frame->packet();
        if (const auto* p = std::get_if<wire::TeslaPacket>(&packet)) {
          authenticated += receiver.receive(*p, now).messages.size();
        } else if (const auto* c = std::get_if<wire::CdmPacket>(&packet)) {
          authenticated += receiver.receive(*c, now).messages.size();
        }
      },
      std::make_unique<sim::GilbertElliottChannel>(0.05, 0.3, 0.02, 0.9));

  // Every low interval carries one data packet and one repeat of the
  // current high interval's CDM.
  const sim::SimTime low = config.low_schedule().duration();
  std::uint32_t sent = 0;
  for (std::uint32_t i = 1; i <= config.high_length; ++i) {
    for (std::uint32_t j = 1; j <= config.low_length; ++j) {
      const sim::SimTime at =
          config.high_schedule.interval_start(i) + (j - 1) * low + 100;
      queue.schedule_at(at, [&, i, j] {
        medium.broadcast(wire::Packet{sender.cdm(i)});
        medium.broadcast(
            wire::Packet{sender.make_data_packet(i, j, bytes_of("m"))});
      });
      ++sent;
    }
  }
  queue.run();
  // Bursty loss wipes out stretches of data and disclosures, but both
  // chains re-anchor on the next authentic key; a solid majority still
  // authenticates and nothing forged slips in.
  EXPECT_GT(authenticated, sent / 2);
  EXPECT_EQ(receiver.stats().data_rejected, 0u);
  EXPECT_EQ(receiver.stats().cdm_forged_dropped, 0u);
}

// --------------------------------------------- DAP under live flooding DoS

TEST(Integration, DapUnderFloodingAttackOverMedium) {
  sim::EventQueue queue;
  Rng rng(3);
  sim::Medium medium(queue, rng);

  protocol::DapConfig config;
  config.chain_length = 64;
  config.buffers = 6;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 rng.fork(1));
  sim::FloodingForger forger(config.sender_id, config.mac_size, rng.fork(2));

  std::size_t authenticated = 0;
  medium.attach(
      [&](const sim::FramePtr& frame, sim::SimTime now) {
        const wire::Packet& packet = frame->packet();
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          receiver.receive(*a, now);
        } else if (const auto* m =
                       std::get_if<wire::MessageReveal>(&packet)) {
          if (receiver.receive(*m, now)) ++authenticated;
        }
      },
      std::make_unique<sim::PerfectChannel>());

  const std::uint32_t kIntervals = 30;
  // Attacker floods p = 0.75 (3 forged per authentic copy).
  for (std::uint32_t i = 1; i <= kIntervals; ++i) {
    queue.schedule_at(config.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("data"))});
      for (int f = 0; f < 3; ++f) {
        medium.broadcast(wire::Packet{forger.forge(i)});
      }
    });
    queue.schedule_at(config.schedule.interval_start(i + 1) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.reveal(i)});
    });
  }
  queue.run();
  // p^m = 0.75^6 ~ 0.18: expect the vast majority authenticated.
  EXPECT_GT(authenticated, kIntervals * 6 / 10);
  // Forged announcements occupied buffer slots but never authenticated.
  EXPECT_EQ(receiver.stats().strong_auth_success, authenticated);
  // Memory never exceeded m records per open round.
  EXPECT_LE(receiver.stored_record_bits(),
            config.buffers * 56 * 2);  // at most two open rounds
}

// ------------------------------------- adaptive stack end-to-end under DoS

TEST(Integration, AdaptiveDefenderEndToEndOverMedium) {
  sim::EventQueue queue;
  Rng rng(4);
  sim::Medium medium(queue, rng);

  core::AdaptiveConfig config;
  config.dap.chain_length = 128;
  config.dap.buffers = 1;
  config.dap.schedule = sim::IntervalSchedule(0, sim::kSecond);
  config.retune_period = 4;
  config.estimator_smoothing = 0.5;
  protocol::DapSender sender(config.dap, bytes_of("seed"));
  core::AdaptiveDefender defender(config, sender.chain().commitment(),
                                  bytes_of("local"), sim::LooseClock(0, 0),
                                  rng.fork(1));
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             rng.fork(2));

  std::map<std::uint32_t, std::size_t> announce_counts;
  medium.attach(
      [&](const sim::FramePtr& frame, sim::SimTime now) {
        const wire::Packet& packet = frame->packet();
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          defender.receive(*a, now);
          ++announce_counts[a->interval];
        } else if (const auto* m =
                       std::get_if<wire::MessageReveal>(&packet)) {
          (void)defender.receive(*m, now);
        }
      },
      std::make_unique<sim::PerfectChannel>());

  const std::uint32_t kIntervals = 40;
  for (std::uint32_t i = 1; i <= kIntervals; ++i) {
    queue.schedule_at(config.dap.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("m"))});
      for (int f = 0; f < 9; ++f) {  // p = 0.9
        medium.broadcast(wire::Packet{forger.forge(i)});
      }
    });
    queue.schedule_at(config.dap.schedule.interval_start(i + 1) + 100,
                      [&, i] {
                        medium.broadcast(wire::Packet{sender.reveal(i)});
                      });
    // Close the interval bookkeeping right after its reveal.
    queue.schedule_at(config.dap.schedule.interval_start(i + 1) + 200,
                      [&, i] {
                        defender.close_interval(announce_counts[i]);
                      });
  }
  queue.run();

  // The estimator locked on to p ~ 0.9 and the optimiser raised m.
  EXPECT_NEAR(defender.estimated_p(), 0.9, 0.03);
  EXPECT_GT(defender.current_buffers(), 20u);
  // After the ramp-up the defender defeats most attacks.
  EXPECT_GT(defender.stats().attacks_defeated,
            defender.stats().attacks_succeeded);
}

// --------------------------------------------- replay attack across stack

TEST(Integration, ReplayedAnnouncementsAreHarmless) {
  sim::EventQueue queue;
  Rng rng(5);
  sim::Medium medium(queue, rng);

  protocol::DapConfig config;
  config.chain_length = 32;
  config.buffers = 4;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 rng.fork(1));
  // The attacker records every authentic announcement it overhears.
  std::vector<wire::MacAnnounce> recorded;

  std::size_t authenticated = 0;
  medium.attach(
      [&](const sim::FramePtr& frame, sim::SimTime now) {
        const wire::Packet& packet = frame->packet();
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          receiver.receive(*a, now);
          recorded.push_back(*a);
        } else if (const auto* m =
                       std::get_if<wire::MessageReveal>(&packet)) {
          if (receiver.receive(*m, now)) ++authenticated;
        }
      },
      std::make_unique<sim::PerfectChannel>());

  for (std::uint32_t i = 1; i <= 5; ++i) {
    queue.schedule_at(config.schedule.interval_start(i) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.announce(i, bytes_of("m"))});
    });
    queue.schedule_at(config.schedule.interval_start(i + 1) + 100, [&, i] {
      medium.broadcast(wire::Packet{sender.reveal(i)});
    });
  }
  // Interval 8: rebroadcast the five recorded announcements verbatim
  // (their keys are long public). The safety check must discard every
  // one.
  queue.schedule_at(config.schedule.interval_start(8), [&] {
    EXPECT_EQ(recorded.size(), 5u);
    for (const wire::MacAnnounce& a : recorded) {
      medium.broadcast(wire::Packet{a});
    }
  });
  queue.run();

  EXPECT_EQ(authenticated, 5u);
  EXPECT_EQ(receiver.stats().announces_unsafe, 5u);  // the replays
}

// ------------------------------------------- a crowd of senders, one flooded

TEST(Integration, MultiSenderCrowdOverMedium) {
  sim::EventQueue queue;
  Rng rng(41);
  sim::Medium medium(queue, rng);

  // Three mobile senders; one node tracking all of them, 6 buffers per
  // sender (18 records in all); a flooding attacker targets sender 2 only.
  std::vector<protocol::DapSender> senders;
  std::vector<protocol::DapReceiver> receivers;
  protocol::DapConfig base;
  base.chain_length = 32;
  base.buffers = 6;
  base.schedule = sim::IntervalSchedule(0, sim::kSecond);
  for (wire::NodeId id = 1; id <= 3; ++id) {
    auto config = base;
    config.sender_id = id;
    senders.emplace_back(config, rng.fork(id).bytes(16));
  }
  for (wire::NodeId id = 1; id <= 3; ++id) {
    receivers.emplace_back(senders[id - 1].config(),
                           senders[id - 1].chain().commitment(),
                           bytes_of("local"), sim::LooseClock(0, 0),
                           rng.fork(99 + id));
  }
  // The node routes each packet to the receiver of its sender id.
  std::size_t unknown_sender_packets = 0;
  const auto route = [&](wire::NodeId id) -> protocol::DapReceiver* {
    if (id < 1 || id > receivers.size()) return nullptr;
    return &receivers[id - 1];
  };
  std::map<wire::NodeId, std::size_t> authenticated;
  medium.attach(
      [&](const sim::FramePtr& frame, sim::SimTime now) {
        const wire::Packet& packet = frame->packet();
        if (const auto* a = std::get_if<wire::MacAnnounce>(&packet)) {
          if (auto* receiver = route(a->sender)) {
            receiver->receive(*a, now);
          } else {
            ++unknown_sender_packets;
          }
        } else if (const auto* r = std::get_if<wire::MessageReveal>(&packet)) {
          if (auto* receiver = route(r->sender)) {
            if (receiver->receive(*r, now)) ++authenticated[r->sender];
          } else {
            ++unknown_sender_packets;
          }
        }
      },
      std::make_unique<sim::BernoulliChannel>(0.05));

  sim::FloodingForger forger(2, 10, rng.fork(7));
  const std::uint32_t kIntervals = 25;
  for (std::uint32_t i = 1; i <= kIntervals; ++i) {
    queue.schedule_at(base.schedule.interval_start(i) + 500, [&, i] {
      for (auto& sender : senders) {
        medium.broadcast(wire::Packet{sender.announce(i, bytes_of("m"))});
      }
      forger.flood(medium, i, 12);  // p = 12/13 against sender 2 only
    });
    queue.schedule_at(base.schedule.interval_start(i + 1) + 500, [&, i] {
      for (auto& sender : senders) {
        medium.broadcast(wire::Packet{sender.reveal(i)});
      }
    });
  }
  queue.run();

  // Unflooded senders authenticate nearly everything (only channel loss
  // interferes); the flooded one keeps ~6/13 of its rounds with 6
  // buffers against 12 forgeries each.
  EXPECT_GT(authenticated[1], kIntervals * 8 / 10);
  EXPECT_GT(authenticated[3], kIntervals * 8 / 10);
  EXPECT_GT(authenticated[2], kIntervals / 5);
  EXPECT_LT(authenticated[2], authenticated[1]);
  EXPECT_EQ(unknown_sender_packets, 0u);
  // The forgeries reach sender 2's state only.
  EXPECT_LE(receivers[0].stats().announces_received, kIntervals);
  EXPECT_LE(receivers[2].stats().announces_received, kIntervals);
  EXPECT_GT(receivers[1].stats().announces_received, 2 * kIntervals);
}

}  // namespace
}  // namespace dap

// ------------------------------------- time sync bootstrapping the stack

namespace dap {
namespace {

TEST(Integration, TimeSyncCalibrationDrivesTeslaSafetyCheck) {
  // A receiver with an unknown clock offset first syncs, then uses the
  // calibration's upper bound as its safety check for DAP rounds.
  tesla::TimeSyncClient client(bytes_of("pairwise"), 1);
  tesla::TimeSyncResponder responder(bytes_of("pairwise"));

  // Sender clock runs 250 ms ahead of the receiver; RTT 30 ms.
  const std::int64_t true_offset = 250 * sim::kMillisecond;
  const sim::SimTime t0 = 100 * sim::kMillisecond;
  const auto request = client.begin(t0);
  const auto response = responder.respond(
      request,
      t0 + 15 * sim::kMillisecond + static_cast<sim::SimTime>(true_offset));
  const auto calibration =
      client.complete(response, t0 + 30 * sim::kMillisecond);
  ASSERT_TRUE(calibration.has_value());

  protocol::DapConfig config;
  config.chain_length = 16;
  config.schedule = sim::IntervalSchedule(0, sim::kSecond);
  protocol::DapSender sender(config, bytes_of("seed"));
  protocol::DapReceiver receiver(config, sender.chain().commitment(),
                                 bytes_of("local"), sim::LooseClock(0, 0),
                                 common::Rng(1));

  // The sender announces in its interval 1; by receiver-local 600 ms the
  // calibration still proves the key undisclosed (bound ~895 ms < 1 s),
  // so the packet is accepted into the buffers.
  const auto announce = sender.announce(1, bytes_of("m"));
  const sim::SimTime receive_time = 600 * sim::kMillisecond;
  ASSERT_TRUE(calibration->packet_safe(1, config.disclosure_delay,
                                       receive_time, config.schedule));
  receiver.receive(announce, receive_time);
  EXPECT_TRUE(
      receiver.receive(sender.reveal(1), 2 * sim::kSecond).has_value());

  // A packet arriving at local 800 ms could already be forged (bound
  // 1095 ms >= 1000 ms): the calibration rejects it even though the
  // receiver's own naive clock would have accepted it.
  EXPECT_FALSE(calibration->packet_safe(1, config.disclosure_delay,
                                        800 * sim::kMillisecond,
                                        config.schedule));
  EXPECT_TRUE(sim::LooseClock(0, 0).packet_safe(
      1, config.disclosure_delay, 800 * sim::kMillisecond, config.schedule));
}

}  // namespace
}  // namespace dap
