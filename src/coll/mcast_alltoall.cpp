#include "coll/mcast_alltoall.hpp"

#include "coll/mcast.hpp"
#include "coll/mcast_scatter.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

std::vector<Buffer> alltoall_mcast_rr(Proc& p, const Comm& comm,
                                      const std::vector<Buffer>& to_each) {
  const int size = comm.size();
  const int me = comm.rank();
  MC_EXPECTS_MSG(static_cast<int>(to_each.size()) == size,
                 "alltoall needs one buffer per rank");
  std::vector<Buffer> out(static_cast<std::size_t>(size));
  if (size == 1) {
    out[0] = to_each[0];
    return out;
  }
  // Channel first, then one barrier: after it every rank is inside the
  // collective with its multicast socket live, so the lockstep rounds can
  // never outrun a receiver (the allgather_mcast readiness argument).
  (void)p.mcast_channel(comm);
  barrier_mcast(p, comm);

  for (int round = 0; round < size; ++round) {
    if (round == me) {
      mcast_send_framed(p, comm, pack_block_table(to_each), round,
                        net::FrameKind::kData);
      out[static_cast<std::size_t>(me)] =
          to_each[static_cast<std::size_t>(me)];
    } else {
      const Buffer payload = mcast_recv_framed(p, comm, round);
      const auto view = table_block(payload, size, me);
      out[static_cast<std::size_t>(round)].assign(view.begin(), view.end());
    }
  }
  return out;
}

}  // namespace mcmpi::coll
