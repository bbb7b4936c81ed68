#include "coll/ack_mcast.hpp"

#include <sstream>

#include "coll/mcast.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {
struct AckState {
  AckMcastParams params;
  AckMcastStats stats;
};
}  // namespace

void set_ack_mcast_params(Proc& p, const Comm& comm,
                          const AckMcastParams& params) {
  validate(params.retry, "ack-mcast");
  p.coll_state<AckState>(comm).params = params;
}

const AckMcastParams& ack_mcast_params(Proc& p, const Comm& comm) {
  return p.coll_state<AckState>(comm).params;
}

void bcast_ack_mcast(Proc& p, const Comm& comm, Buffer& buffer, int root) {
  bcast_ack_mcast(p, comm, buffer, root,
                  p.coll_state<AckState>(comm).params);
}

void bcast_ack_mcast(Proc& p, const Comm& comm, Buffer& buffer, int root,
                     const AckMcastParams& params) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  mpi::McastChannel& ch = p.mcast_channel(comm);
  AckState& state = p.coll_state<AckState>(comm);

  if (comm.rank() != root) {
    // Receive (first transmission or a retransmission — framed receive
    // drops stale duplicates), then acknowledge over the raw path.
    const std::uint64_t seq = ch.expected_seq();
    buffer = mcast_recv_framed(p, comm, root);
    send_seqs(p, comm, root, mpi::kTagAckMcast, SeqFormat::kSingle, {&seq, 1});
    return;
  }

  // Root: blast first, ask questions later.
  const std::uint64_t seq = ch.expected_seq();
  mcast_send_framed(p, comm, buffer, root, net::FrameKind::kData);

  int pending = comm.size() - 1;
  RetryTimer timer(params.retry);
  auto request = p.irecv(comm, mpi::kAnySource, mpi::kTagAckMcast);
  SimTime deadline = p.self().now() + timer.timeout();
  while (pending > 0) {
    const auto ack =
        p.wait_until(request, deadline, nullptr, mpi::CostTier::kRaw);
    if (ack.has_value()) {
      ByteReader r(*ack);
      MC_ASSERT_MSG(r.u64() == seq, "ACK for a different broadcast");
      --pending;
      if (pending > 0) {
        request = p.irecv(comm, mpi::kAnySource, mpi::kTagAckMcast);
      }
      continue;
    }
    // Timeout: somebody was not ready — re-multicast the whole payload.
    timer.step([&] {
      std::ostringstream os;
      os << "ack-mcast: root rank " << root << " gave up on seq " << seq
         << " after " << timer.retries() << " retransmissions (" << pending
         << " of " << comm.size() - 1
         << " ACKs still outstanding) — loss rate exceeds what the ACK "
            "protocol can absorb; raise max_retries or pick nack-mcast / "
            "mcast-segmented";
      return os.str();
    });
    ++state.stats.retransmissions;
    ++p.self().shard().counters().retransmits;
    // The channel sequence already advanced: re-send under the original.
    send_framed(p, ch, {comm.context(), comm.world_rank_of(root), seq}, buffer,
                net::FrameKind::kData);
    deadline = p.self().now() + timer.timeout();
  }
}

const AckMcastStats& ack_mcast_stats(Proc& p, const Comm& comm) {
  return p.coll_state<AckState>(comm).stats;
}

}  // namespace mcmpi::coll
