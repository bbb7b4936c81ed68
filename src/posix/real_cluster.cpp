#include "posix/real_cluster.hpp"

#include <array>
#include <exception>
#include <mutex>
#include <thread>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace mcmpi::posix {

namespace {
// p2p frame: u32 src rank, payload.
// multicast frame: u32 sender rank, u64 sequence, payload.
//
// Headers are built in stack arrays and handed to the kernel TOGETHER with
// the user payload via RealUdpSocket::send_parts (sendmsg + iovec): the
// datagram is gathered in kernel space, so the send path never copies the
// payload into an assembly buffer — the real-backend mirror of the
// simulated stack's zero-copy gather-send.

/// Stores `v` little-endian at `out` (ByteWriter's wire order).
template <typename T>
void put_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::array<std::uint8_t, 4> p2p_header(int src) {
  std::array<std::uint8_t, 4> header;
  put_le(header.data(), static_cast<std::uint32_t>(src));
  return header;
}

constexpr std::size_t kMcastHeaderBytes = 12;

std::array<std::uint8_t, kMcastHeaderBytes> mcast_header(int sender,
                                                         std::uint64_t seq) {
  std::array<std::uint8_t, kMcastHeaderBytes> header;
  put_le(header.data(), static_cast<std::uint32_t>(sender));
  put_le(header.data() + 4, seq);
  return header;
}
}  // namespace

RealCluster::RealCluster(RealClusterConfig config)
    : config_(std::move(config)) {
  MC_EXPECTS(config_.num_ranks >= 1);
}

std::uint16_t RealCluster::p2p_port(int rank) const {
  return p2p_ports_.at(static_cast<std::size_t>(rank));
}

RealRank::RealRank(RealCluster& cluster, int rank)
    : cluster_(cluster),
      rank_(rank),
      p2p_(std::make_unique<RealUdpSocket>(0)) {}

void RealRank::join_group() {
  mcast_ = std::make_unique<RealUdpSocket>(cluster_.mcast_port(), true);
  mcast_->join_multicast(cluster_.config().mcast_group);
}

int RealRank::size() const { return cluster_.config().num_ranks; }

std::optional<DatagramView> RealRank::next_datagram(
    RealUdpSocket& socket, std::span<const DatagramView>& batch) {
  if (batch.empty()) {
    batch = socket.recv_views(cluster_.config().timeout,
                              RealUdpSocket::kMaxBatch);
  }
  if (batch.empty()) {
    return std::nullopt;
  }
  const DatagramView next = batch.front();
  batch = batch.subspan(1);
  return next;
}

void RealRank::send_p2p(int dst, std::span<const std::uint8_t> data) {
  MC_EXPECTS(dst >= 0 && dst < size());
  const auto header = p2p_header(rank_);
  const std::span<const std::uint8_t> parts[] = {header, data};
  p2p_->send_parts(0, cluster_.p2p_port(dst), parts);
}

std::vector<std::uint8_t> RealRank::recv_p2p(int src) {
  MC_EXPECTS(src >= 0 && src < size());
  auto& queue = p2p_queues_[src];
  if (!queue.empty()) {
    std::vector<std::uint8_t> data = std::move(queue.front());
    queue.pop_front();
    return data;
  }
  for (;;) {
    const auto datagram = next_datagram(*p2p_, p2p_batch_);
    if (!datagram.has_value()) {
      throw std::runtime_error("rank " + std::to_string(rank_) +
                               ": timeout waiting for p2p message from rank " +
                               std::to_string(src));
    }
    // The payload's one copy: landing slot -> the message handed out or
    // parked for a later recv_p2p.
    ByteReader r(datagram->data);
    const int from = static_cast<int>(r.u32());
    const auto rest = r.rest();
    if (from == src) {
      return {rest.begin(), rest.end()};
    }
    p2p_queues_[from].emplace_back(rest.begin(), rest.end());
  }
}

void RealRank::mcast_send(std::span<const std::uint8_t> data) {
  const auto header = mcast_header(rank_, mcast_seq_);
  const std::span<const std::uint8_t> parts[] = {header, data};
  mcast_->send_parts(cluster_.config().mcast_group, cluster_.mcast_port(),
                     parts);
  ++mcast_seq_;
  // A rank that keeps rooting bcasts and barrier releases never calls
  // mcast_recv, so its own looped-back copies would pile up in the socket
  // buffer until a foreign datagram no longer fits.  Poll without blocking
  // and drop own and stale copies; the first datagram that mcast_recv must
  // see stops the drain and stays batched for it.
  if (mcast_batch_.empty()) {
    mcast_batch_ = mcast_->recv_views(std::chrono::milliseconds(0),
                                      RealUdpSocket::kMaxBatch);
  }
  while (!mcast_batch_.empty() && !deliverable(mcast_batch_.front())) {
    mcast_batch_ = mcast_batch_.subspan(1);
  }
}

bool RealRank::deliverable(const DatagramView& datagram) const {
  ByteReader r(datagram.data);
  const int sender = static_cast<int>(r.u32());
  const std::uint64_t seq = r.u64();
  // Not our own loopback copy (IP_MULTICAST_LOOP), and not stale.
  return sender != rank_ && seq >= mcast_seq_;
}

std::vector<std::uint8_t> RealRank::mcast_recv() {
  for (;;) {
    const auto datagram = next_datagram(*mcast_, mcast_batch_);
    if (!datagram.has_value()) {
      throw std::runtime_error("rank " + std::to_string(rank_) +
                               ": timeout waiting for multicast");
    }
    if (!deliverable(*datagram)) {
      continue;
    }
    ++mcast_seq_;
    const auto rest = datagram->data.subspan(kMcastHeaderBytes);
    return {rest.begin(), rest.end()};  // the payload's one copy
  }
}

void RealRank::scout_gather_binary(int root) {
  const int size = this->size();
  const int rel = (rank_ - root + size) % size;
  int mask = 1;
  while (mask < size) {
    if (rel & mask) {
      send_p2p(((rel - mask) + root) % size, {});
      return;
    }
    if (rel + mask < size) {
      (void)recv_p2p(((rel + mask) + root) % size);
    }
    mask <<= 1;
  }
}

void RealRank::scout_gather_linear(int root) {
  if (rank_ != root) {
    send_p2p(root, {});
    return;
  }
  // Scouts can arrive in any order; recv_p2p queues per source, so simply
  // collect one from each peer.
  for (int r = 0; r < size(); ++r) {
    if (r != root) {
      (void)recv_p2p(r);
    }
  }
}

void RealRank::bcast_binary(std::vector<std::uint8_t>& data, int root) {
  if (size() == 1) {
    return;
  }
  scout_gather_binary(root);
  if (rank_ == root) {
    mcast_send(data);
  } else {
    data = mcast_recv();
  }
}

void RealRank::bcast_linear(std::vector<std::uint8_t>& data, int root) {
  if (size() == 1) {
    return;
  }
  scout_gather_linear(root);
  if (rank_ == root) {
    mcast_send(data);
  } else {
    data = mcast_recv();
  }
}

void RealRank::barrier() {
  if (size() == 1) {
    return;
  }
  scout_gather_binary(0);
  if (rank_ == 0) {
    mcast_send({});
  } else {
    const auto release = mcast_recv();
    MC_ASSERT(release.empty());
  }
}

void RealCluster::run(const std::function<void(RealRank&)>& rank_main) {
  // Build all rank endpoints on this thread so every port is known before
  // any rank code runs (the cluster's "hostfile").  The p2p sockets bind
  // first and exclusively, each to a port of its own.  The multicast port
  // is one that no socket held when the probe bound it; the ranks' shared
  // multicast sockets bind it right after.
  std::vector<std::unique_ptr<RealRank>> ranks;
  p2p_ports_.clear();
  for (int r = 0; r < config_.num_ranks; ++r) {
    ranks.push_back(std::unique_ptr<RealRank>(new RealRank(*this, r)));
    p2p_ports_.push_back(ranks.back()->p2p_->port());
  }
  if (config_.mcast_port != 0) {
    mcast_port_ = config_.mcast_port;
  } else {
    RealUdpSocket probe(0);
    mcast_port_ = probe.port();
  }
  for (const auto& rank : ranks) {
    rank->join_group();
  }

  // The first rank to fail usually holds the cause; the others then time
  // out waiting for it, so the earliest exception is the one rethrown.
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  for (const auto& rank : ranks) {
    threads.emplace_back([&rank_main, &error_mutex, &first_error,
                          r = rank.get()] {
      try {
        rank_main(*r);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace mcmpi::posix
