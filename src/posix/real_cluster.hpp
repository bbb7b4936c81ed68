#pragma once
/// \file real_cluster.hpp
/// The paper's mechanism on real sockets: N ranks as threads, point-to-point
/// UDP unicast on per-rank loopback ports, broadcast via genuine IP
/// multicast to a class-D group — with the binary/linear scout
/// synchronization protocols implemented verbatim.
///
/// This backend exists to demonstrate that the algorithms are plain
/// Berkeley-socket code (the repro hint: "same socket APIs; easy
/// reimplementation"); the measured figures come from the simulator, where
/// hub/switch topology is controllable.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "posix/socket.hpp"

namespace mcmpi::posix {

struct RealClusterConfig {
  int num_ranks = 4;
  /// Class-D group for the collective channel (host byte order).
  std::uint32_t mcast_group = 0xEF0101FEu;  // 239.1.1.254
  std::uint16_t mcast_port = 0;             // 0 = pick ephemeral on rank 0
  std::chrono::milliseconds timeout{2000};
};

class RealCluster;

/// Handle passed to each rank thread.
class RealRank {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Point-to-point (unicast UDP on loopback).
  void send_p2p(int dst, std::span<const std::uint8_t> data);
  /// Receives the next message from `src`; throws std::runtime_error on
  /// timeout.
  std::vector<std::uint8_t> recv_p2p(int src);

  /// Raw multicast to the whole cluster (sender included via loopback; the
  /// sender's receive path filters its own frames out).
  void mcast_send(std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> mcast_recv();

  // --- the paper's collective operations ---
  /// Binary-tree scout sync, then one multicast (paper Fig. 3).
  void bcast_binary(std::vector<std::uint8_t>& data, int root);
  /// Linear scout sync, then one multicast (paper Fig. 4).
  void bcast_linear(std::vector<std::uint8_t>& data, int root);
  /// Scout reduction to rank 0 + multicast release (paper §3.2).
  void barrier();

 private:
  friend class RealCluster;
  RealRank(RealCluster& cluster, int rank);
  /// Opens the multicast socket on the cluster's port and joins the group.
  void join_group();
  void scout_gather_binary(int root);
  void scout_gather_linear(int root);
  /// Pops the next datagram for `socket`, refilling `batch` with one
  /// batched recvmmsg when it runs dry (the hot receive loops drain bursts
  /// one syscall at a time instead of one datagram at a time).  The views
  /// point into the socket's landing slots; they stay valid because the
  /// socket is read again only once its batch is drained.
  std::optional<DatagramView> next_datagram(
      RealUdpSocket& socket, std::span<const DatagramView>& batch);
  /// True for a multicast mcast_recv must return: another rank's, and not
  /// older than this rank's expected sequence.
  bool deliverable(const DatagramView& datagram) const;

  RealCluster& cluster_;
  int rank_;
  std::unique_ptr<RealUdpSocket> p2p_;
  std::unique_ptr<RealUdpSocket> mcast_;
  std::map<int, std::deque<std::vector<std::uint8_t>>> p2p_queues_;
  std::span<const DatagramView> p2p_batch_;    // received, not yet demuxed
  std::span<const DatagramView> mcast_batch_;  // received, not yet consumed
  std::uint64_t mcast_seq_ = 0;  // per-rank expected collective sequence
};

/// Runs an SPMD function on `num_ranks` OS threads sharing a loopback
/// "network".  If rank threads throw, run() rethrows the exception thrown
/// first.
class RealCluster {
 public:
  explicit RealCluster(RealClusterConfig config);

  const RealClusterConfig& config() const { return config_; }
  std::uint16_t p2p_port(int rank) const;
  std::uint16_t mcast_port() const { return mcast_port_; }

  void run(const std::function<void(RealRank&)>& rank_main);

 private:
  friend class RealRank;
  RealClusterConfig config_;
  std::vector<std::uint16_t> p2p_ports_;
  std::uint16_t mcast_port_ = 0;
};

}  // namespace mcmpi::posix
