// Tests for the real-socket backend.  Multicast over loopback may be
// unavailable in sandboxes; every test that needs it skips cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "posix/real_cluster.hpp"
#include "posix/socket.hpp"

namespace mcmpi::posix {
namespace {

bool multicast_ok() {
  static const bool available = RealUdpSocket::loopback_multicast_available();
  return available;
}

#define SKIP_WITHOUT_MULTICAST()                                         \
  do {                                                                   \
    if (!multicast_ok()) {                                               \
      GTEST_SKIP() << "loopback multicast unavailable in this sandbox";  \
    }                                                                    \
  } while (false)

TEST(RealSocket, UnicastLoopbackRoundTrip) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  const Buffer payload = pattern_payload(1, 100);
  tx.send_to(0, rx.port(), payload);
  const auto got = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(check_pattern(1, got->data));
  EXPECT_EQ(got->src_port, tx.port());
}

TEST(RealSocket, RecvTimesOutWithoutTraffic) {
  RealUdpSocket rx(0);
  const auto got = rx.recv(std::chrono::milliseconds(50));
  EXPECT_FALSE(got.has_value());
}

// Batched receive: several datagrams queued on the socket come back from
// ONE recv_batch call (recvmmsg drains the burst in a single syscall),
// in order, with payloads and source ports intact.
TEST(RealSocket, RecvBatchDrainsQueuedBurst) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  constexpr int kBurst = 5;
  for (int i = 0; i < kBurst; ++i) {
    const Buffer payload = pattern_payload(static_cast<std::uint64_t>(i),
                                           64 + static_cast<std::size_t>(i));
    tx.send_to(0, rx.port(), payload);
  }
  // Loopback delivery is synchronous by the time a blocking call runs, but
  // give the kernel a moment so the whole burst is queued before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<ReceivedDatagram> got;
  int calls = 0;
  while (got.size() < kBurst && calls < kBurst) {
    ++calls;
    auto batch = rx.recv_batch(std::chrono::milliseconds(1000));
    for (auto& d : batch) {
      got.push_back(std::move(d));
    }
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBurst));
  EXPECT_LT(calls, kBurst) << "burst was never batched";
  for (int i = 0; i < kBurst; ++i) {
    const auto& d = got[static_cast<std::size_t>(i)];
    EXPECT_EQ(d.data.size(), 64u + static_cast<std::size_t>(i));
    EXPECT_TRUE(check_pattern(static_cast<std::uint64_t>(i), d.data));
    EXPECT_EQ(d.src_port, tx.port());
  }
}

TEST(RealSocket, RecvBatchTimesOutEmpty) {
  RealUdpSocket rx(0);
  EXPECT_TRUE(rx.recv_batch(std::chrono::milliseconds(50)).empty());
}

TEST(RealSocket, RecvBatchRespectsMaxBatch) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  for (int i = 0; i < 4; ++i) {
    const std::uint8_t byte[] = {static_cast<std::uint8_t>(i)};
    tx.send_to(0, rx.port(), byte);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto first = rx.recv_batch(std::chrono::milliseconds(1000), 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].data[0], 0);
  EXPECT_EQ(first[1].data[0], 1);
  const auto rest = rx.recv_batch(std::chrono::milliseconds(1000), 8);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].data[0], 2);
  EXPECT_EQ(rest[1].data[0], 3);
}

// A zero timeout is a non-blocking poll.  (SO_RCVTIMEO = {0, 0} would
// mean "block forever" to Linux; the call must not hang on an idle socket.)
TEST(RealSocket, ZeroTimeoutPollsWithoutBlocking) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(rx.recv_batch(std::chrono::milliseconds(0)).empty());
  EXPECT_FALSE(rx.recv(std::chrono::milliseconds(0)).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));

  const Buffer payload = pattern_payload(5, 40);
  tx.send_to(0, rx.port(), payload);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto got = rx.recv_batch(std::chrono::milliseconds(0));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data, payload);
  EXPECT_EQ(got[0].src_port, tx.port());

  // A blocking receive after the poll still waits for its datagram.
  tx.send_to(0, rx.port(), payload);
  const auto blocking = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(blocking.has_value());
  EXPECT_EQ(blocking->data, payload);
}

TEST(RealSocket, NegativeTimeoutIsRejected) {
  RealUdpSocket rx(0);
  EXPECT_THROW((void)rx.recv(std::chrono::milliseconds(-1)),
               ContractViolation);
  EXPECT_THROW((void)rx.recv_batch(std::chrono::milliseconds(-5)),
               ContractViolation);
}

// The landing slots are reused without being cleared: a short datagram
// landing where a long one was must come back at its own length with its
// own bytes, through both receive calls.
TEST(RealSocket, ShortDatagramAfterLongOneInSameSlot) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  const std::uint8_t tiny[] = {0xa1, 0xb2, 0xc3};
  tx.send_to(0, rx.port(), pattern_payload(60, 60000));
  const auto long_one = rx.recv_batch(std::chrono::milliseconds(1000));
  ASSERT_EQ(long_one.size(), 1u);
  EXPECT_EQ(long_one[0].data.size(), 60000u);
  EXPECT_TRUE(check_pattern(60, long_one[0].data));

  tx.send_to(0, rx.port(), tiny);
  const auto short_one = rx.recv_batch(std::chrono::milliseconds(1000));
  ASSERT_EQ(short_one.size(), 1u);
  EXPECT_EQ(short_one[0].data, Buffer(std::begin(tiny), std::end(tiny)));

  tx.send_to(0, rx.port(), pattern_payload(61, 60000));
  ASSERT_TRUE(rx.recv(std::chrono::milliseconds(1000)).has_value());
  tx.send_to(0, rx.port(), tiny);
  const auto via_recv = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(via_recv.has_value());
  EXPECT_EQ(via_recv->data, Buffer(std::begin(tiny), std::end(tiny)));
}

// A burst larger than the slot count drains over two calls, and the
// datagrams copied out of the first call survive the second one reusing
// the same slots.
TEST(RealSocket, BurstLongerThanSlotsDrainsOverTwoCalls) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  constexpr std::size_t kBurst = RealUdpSocket::kMaxBatch + 4;
  const auto size_of = [](std::size_t i) { return 1 + 97 * i; };
  for (std::size_t i = 0; i < kBurst; ++i) {
    tx.send_to(0, rx.port(), pattern_payload(100 + i, size_of(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto got = rx.recv_batch(std::chrono::milliseconds(1000),
                           RealUdpSocket::kMaxBatch);
  ASSERT_EQ(got.size(), RealUdpSocket::kMaxBatch);
  for (auto& d : rx.recv_batch(std::chrono::milliseconds(1000),
                               RealUdpSocket::kMaxBatch)) {
    got.push_back(std::move(d));
  }
  ASSERT_EQ(got.size(), kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(got[i].data.size(), size_of(i)) << "datagram " << i;
    EXPECT_TRUE(check_pattern(100 + i, got[i].data)) << "datagram " << i;
  }
}

// Views see the datagrams in place, each at its own length.
TEST(RealSocket, RecvViewsSeeBurstInPlace) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  for (std::size_t i = 0; i < 3; ++i) {
    tx.send_to(0, rx.port(), pattern_payload(200 + i, 500 * (i + 1)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto views = rx.recv_views(std::chrono::milliseconds(1000),
                                   RealUdpSocket::kMaxBatch);
  ASSERT_EQ(views.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(views[i].data.size(), 500 * (i + 1));
    EXPECT_TRUE(check_pattern(200 + i, views[i].data));
    EXPECT_EQ(views[i].src_port, tx.port());
  }
}

TEST(RealSocket, LargestUdpDatagramRoundTrips) {
  constexpr std::size_t kMaxUdpPayload = 65507;
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  tx.send_to(0, rx.port(), pattern_payload(9, kMaxUdpPayload));
  const auto got = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data.size(), kMaxUdpPayload);
  EXPECT_TRUE(check_pattern(9, got->data));
}

// Unicast endpoints get ports of their own.  (Were they all SO_REUSEADDR,
// Linux could hand one ephemeral port to two of them, and unicast to that
// port would reach only one: a RealCluster scout went missing that way.)
TEST(RealSocket, EphemeralUnicastPortsAreDistinct) {
  constexpr std::size_t kSockets = 400;
  RealUdpSocket shared_a(0, true);
  RealUdpSocket shared_b(shared_a.port(), true);
  EXPECT_EQ(shared_b.port(), shared_a.port());
  std::vector<RealUdpSocket> sockets;
  sockets.reserve(kSockets);
  std::set<std::uint16_t> ports{shared_a.port()};
  for (std::size_t i = 0; i < kSockets; ++i) {
    sockets.emplace_back(0);
    EXPECT_TRUE(ports.insert(sockets.back().port()).second)
        << "port " << sockets.back().port() << " handed out twice";
  }
}

// Kernel gather-send: header and payload handed to sendmsg as separate
// iovec parts must arrive as ONE datagram with the concatenated bytes.
TEST(RealSocket, SendPartsGathersOneDatagram) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  const Buffer whole = pattern_payload(7, 300);
  const std::span<const std::uint8_t> view(whole);
  const std::span<const std::uint8_t> parts[] = {
      view.subspan(0, 10), view.subspan(10, 90), view.subspan(100)};
  tx.send_parts(0, rx.port(), parts);
  const auto got = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data.size(), 300u);
  EXPECT_TRUE(check_pattern(7, got->data));
}

// Zero-length parts (a scout with no payload) still produce a datagram.
TEST(RealSocket, SendPartsEmptyPayloadStillArrives) {
  RealUdpSocket rx(0);
  RealUdpSocket tx(0);
  const Buffer header = pattern_payload(8, 12);
  const std::span<const std::uint8_t> parts[] = {
      header, std::span<const std::uint8_t>{}};
  tx.send_parts(0, rx.port(), parts);
  const auto got = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data.size(), 12u);
  EXPECT_TRUE(check_pattern(8, got->data));
}

TEST(RealSocket, MulticastReachesJoinedSocket) {
  SKIP_WITHOUT_MULTICAST();
  constexpr std::uint32_t kGroup = 0xEF0101F0u;  // 239.1.1.240
  RealUdpSocket rx(0);
  rx.join_multicast(kGroup);
  RealUdpSocket tx(0);
  tx.join_multicast(kGroup);
  tx.send_to(kGroup, rx.port(), pattern_payload(2, 64));
  const auto got = rx.recv(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(check_pattern(2, got->data));
}

TEST(RealCluster, P2pMessagesQueuePerSource) {
  RealClusterConfig config;
  config.num_ranks = 3;
  RealCluster cluster(config);
  std::vector<int> ok(3, 1);
  cluster.run([&](RealRank& r) {
    if (r.rank() == 0) {
      // Both peers send; receive in the opposite order of arrival risk.
      const auto from2 = r.recv_p2p(2);
      const auto from1 = r.recv_p2p(1);
      ok[0] = check_pattern(22, from2) && check_pattern(11, from1);
    } else if (r.rank() == 1) {
      r.send_p2p(0, pattern_payload(11, 50));
    } else {
      r.send_p2p(0, pattern_payload(22, 50));
    }
  });
  EXPECT_TRUE(ok[0]);
}

TEST(RealCluster, BinaryBcastDeliversOnRealSockets) {
  SKIP_WITHOUT_MULTICAST();
  RealClusterConfig config;
  config.num_ranks = 4;
  config.mcast_group = 0xEF0101F1u;
  RealCluster cluster(config);
  std::vector<int> ok(4, 0);
  cluster.run([&](RealRank& r) {
    std::vector<std::uint8_t> data;
    if (r.rank() == 0) {
      data = pattern_payload(3, 2000);
    }
    r.bcast_binary(data, 0);
    ok[static_cast<std::size_t>(r.rank())] = check_pattern(3, data);
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(i)]) << "rank " << i;
  }
}

TEST(RealCluster, LinearBcastDeliversOnRealSockets) {
  SKIP_WITHOUT_MULTICAST();
  RealClusterConfig config;
  config.num_ranks = 5;
  config.mcast_group = 0xEF0101F2u;
  RealCluster cluster(config);
  std::vector<int> ok(5, 0);
  cluster.run([&](RealRank& r) {
    std::vector<std::uint8_t> data;
    if (r.rank() == 2) {
      data = pattern_payload(4, 1000);
    }
    r.bcast_linear(data, 2);
    ok[static_cast<std::size_t>(r.rank())] = check_pattern(4, data);
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(i)]) << "rank " << i;
  }
}

TEST(RealCluster, BackToBackBroadcastsStayOrdered) {
  SKIP_WITHOUT_MULTICAST();
  RealClusterConfig config;
  config.num_ranks = 3;
  config.mcast_group = 0xEF0101F3u;
  RealCluster cluster(config);
  std::vector<int> ok(3, 1);
  cluster.run([&](RealRank& r) {
    for (int i = 0; i < 5; ++i) {
      std::vector<std::uint8_t> data;
      if (r.rank() == 0) {
        data = pattern_payload(static_cast<std::uint64_t>(i), 256);
      }
      r.bcast_binary(data, 0);
      if (!check_pattern(static_cast<std::uint64_t>(i), data)) {
        ok[static_cast<std::size_t>(r.rank())] = 0;
      }
    }
  });
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(i)]) << "rank " << i;
  }
}

TEST(RealCluster, BarrierSynchronizesThreads) {
  SKIP_WITHOUT_MULTICAST();
  RealClusterConfig config;
  config.num_ranks = 4;
  config.mcast_group = 0xEF0101F4u;
  RealCluster cluster(config);
  std::atomic<int> entered{0};
  std::vector<int> seen_at_exit(4, 0);
  cluster.run([&](RealRank& r) {
    // Rank 3 arrives visibly late.
    if (r.rank() == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ++entered;
    r.barrier();
    seen_at_exit[static_cast<std::size_t>(r.rank())] = entered.load();
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(seen_at_exit[static_cast<std::size_t>(i)], 4)
        << "rank " << i << " left the barrier before everyone entered";
  }
}

// The loopback benchmark's shape: a barrier, then a binary scout bcast of
// 0-20 000 B from a rotating root, every rank checking every byte.
TEST(RealCluster, ManyBroadcastsOfMixedSizesDeliverEveryByte) {
  SKIP_WITHOUT_MULTICAST();
  constexpr int kRanks = 4;
  constexpr std::size_t kBcasts = 200;
  constexpr std::size_t kMaxBytes = 20000;
  RealClusterConfig config;
  config.num_ranks = kRanks;
  config.mcast_group = 0xEF0101F5u;
  RealCluster cluster(config);
  std::vector<int> bad(kRanks, 0);
  cluster.run([&](RealRank& r) {
    for (std::size_t i = 0; i < kBcasts; ++i) {
      const std::size_t bytes =
          i + 1 == kBcasts ? kMaxBytes : (i * 9973) % (kMaxBytes + 1);
      const int root = static_cast<int>(i % kRanks);
      r.barrier();
      std::vector<std::uint8_t> data;
      if (r.rank() == root) {
        data = pattern_payload(i, bytes);
      }
      r.bcast_binary(data, root);
      if (data.size() != bytes || !check_pattern(i, data)) {
        ++bad[static_cast<std::size_t>(r.rank())];
      }
    }
  });
  for (int i = 0; i < kRanks; ++i) {
    EXPECT_EQ(bad[static_cast<std::size_t>(i)], 0) << "rank " << i;
  }
}

// A root that keeps rooting never calls mcast_recv, so only its sends can
// drain its own looped-back copies: 64 root-0 barrier + bcast rounds of
// 20 000 B must not fill rank 0's multicast socket buffer, or root 1's
// final bcast is dropped there and rank 0 times out.
TEST(RealCluster, LongRunOfOneRootDoesNotBacklogItsOwnLoopback) {
  SKIP_WITHOUT_MULTICAST();
  constexpr int kRanks = 4;
  constexpr std::size_t kRounds = 64;
  constexpr std::size_t kBytes = 20000;
  RealClusterConfig config;
  config.num_ranks = kRanks;
  config.mcast_group = 0xEF0101F6u;
  RealCluster cluster(config);
  std::vector<int> bad(kRanks, 0);
  cluster.run([&](RealRank& r) {
    const auto bcast_checked = [&](std::uint64_t tag, int root) {
      std::vector<std::uint8_t> data;
      if (r.rank() == root) {
        data = pattern_payload(tag, kBytes);
      }
      r.bcast_binary(data, root);
      if (data.size() != kBytes || !check_pattern(tag, data)) {
        ++bad[static_cast<std::size_t>(r.rank())];
      }
    };
    for (std::size_t i = 0; i < kRounds; ++i) {
      r.barrier();
      bcast_checked(i, 0);
    }
    bcast_checked(kRounds, 1);
  });
  for (int i = 0; i < kRanks; ++i) {
    EXPECT_EQ(bad[static_cast<std::size_t>(i)], 0) << "rank " << i;
  }
}

}  // namespace
}  // namespace mcmpi::posix
