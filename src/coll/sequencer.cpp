#include "coll/sequencer.hpp"

#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

constexpr int kSequencerRank = 0;

struct SeqState {
  // Sequencer side: retransmission history (no aggregation window — every
  // NACK is answered); the bound is the calling broadcast's.
  RetainedHistory history{SequencerParams{}.history_frames, kTimeZero};
  EarlyFrames early;  // receiver side
  NackStats stats;
};

}  // namespace

void bcast_sequencer(Proc& p, const Comm& comm, Buffer& buffer, int root,
                     const SequencerParams& params) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  const RetryPolicy policy{.timeout = params.nack_timeout,
                           .backoff = 1.0,
                           .cap = params.nack_timeout,
                           .max_retries = kSequencerMaxNacks};
  validate(policy, "sequencer");
  if (comm.size() == 1) {
    return;
  }
  (void)p.mcast_channel(comm);  // joined before the handoff below
  SeqState& state = p.coll_state<SeqState>(comm);
  state.history.set_limits(params.history_frames, kTimeZero, "sequencer");
  const int rank = comm.rank();
  const auto recv_sequenced = [&] {
    return recv_in_order(p, comm, state.early, policy, kSequencerRank,
                         mpi::kTagSeqNack, state.stats, "sequencer", root);
  };

  if (rank == kSequencerRank) {
    state.history.serve_nacks(p, comm, mpi::kTagSeqNack, SeqFormat::kSingle,
                              state.stats);
    if (root != kSequencerRank) {
      // The sequencer learns the data from the handoff.
      buffer =
          p.recv(comm, root, mpi::kTagSequencer, nullptr, mpi::CostTier::kRaw);
    }
    state.history.multicast(p, comm, root, buffer);
    return;
  }

  if (rank == root) {
    // Hand off to the sequencer, then consume our own sequenced broadcast
    // (the Orca "commit": the order is only fixed once it comes back).
    p.send(comm, kSequencerRank, mpi::kTagSequencer, buffer,
           net::FrameKind::kData, mpi::CostTier::kRaw);
    const Buffer echoed = recv_sequenced();
    MC_ASSERT_MSG(echoed.size() == buffer.size(),
                  "sequencer echoed a different payload");
    return;
  }

  buffer = recv_sequenced();
}

const NackStats& sequencer_stats(Proc& p, const Comm& comm) {
  return p.coll_state<SeqState>(comm).stats;
}

}  // namespace mcmpi::coll
