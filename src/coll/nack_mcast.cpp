#include "coll/nack_mcast.hpp"

#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

struct NackState {
  NackMcastParams params;
  // Root side: retransmission history, served by a sink per (context, tag)
  // installed by the first broadcast this rank roots.
  RetainedHistory history{params.history_frames, params.aggregation_window};
  EarlyFrames early;  // receiver side
  NackStats stats;
};

}  // namespace

void set_nack_mcast_params(Proc& p, const Comm& comm,
                           const NackMcastParams& params) {
  validate(params.retry, "nack-mcast");
  NackState& state = p.coll_state<NackState>(comm);
  state.history.set_limits(params.history_frames, params.aggregation_window,
                           "nack-mcast");
  state.params = params;
}

const NackMcastParams& nack_mcast_params(Proc& p, const Comm& comm) {
  return p.coll_state<NackState>(comm).params;
}

void bcast_nack_mcast(Proc& p, const Comm& comm, Buffer& buffer, int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  NackState& state = p.coll_state<NackState>(comm);

  if (comm.rank() == root) {
    state.history.serve_nacks(p, comm, mpi::kTagNackMcast,
                              SeqFormat::kSingle, state.stats);
    state.history.multicast(p, comm, root, buffer);
    // No waiting: the sink serves any recovery from here on.
    return;
  }

  buffer = recv_in_order(p, comm, state.early, state.params.retry, root,
                         mpi::kTagNackMcast, state.stats, "nack-mcast", root);
}

const NackStats& nack_mcast_stats(Proc& p, const Comm& comm) {
  return p.coll_state<NackState>(comm).stats;
}

}  // namespace mcmpi::coll
