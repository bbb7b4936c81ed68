#pragma once
/// \file mcast.hpp
/// Scout-synchronized multicast collectives — the paper's contribution.
///
/// IP multicast only reaches receivers that are ready (socket created,
/// group joined, buffer space available).  Both algorithms make readiness
/// explicit with zero-data *scout* messages flowing to the broadcast root:
///
///   Binary (Fig. 3): scouts ascend a binomial tree rooted at the root —
///   N-1 scouts in ceil(log2 N) pipelined steps; then one multicast.
///
///   Linear (Fig. 4): every receiver scouts directly to the root, which
///   consumes them one at a time (N-1 sequential receives); then one
///   multicast.
///
/// Either way the total is (N-1) + (floor(M/T)+1) frames versus MPICH's
/// (floor(M/T)+1)*(N-1) — the multicast payload crosses the network once.
///
/// A receiver's scout is sent only after its multicast channel exists, so
/// the root's multicast can never beat readiness: this is the ordering
/// argument of the paper's §4 (receive posted before send ⇒ no loss, and
/// back-to-back broadcasts on one group deliver in program order, checked
/// here with per-channel sequence numbers).

#include <functional>

#include "coll/recovery.hpp"
#include "common/bytes.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Aggregate charged collection, the shared wake protocol of the scout
/// gather and the data-scout collectives (mcast_reduce.hpp): parks until
/// `complete()` with at most ONE wake-up, pricing `chain_end()` — the end
/// of the sequential receive chain, recomputed in the notifier's context —
/// into the final wake.  When everything pre-arrived, the whole chain is
/// slept here as one (usually coalesced) delay.
void wait_priced_chain(mpi::Proc& p, sim::WaitQueue& done,
                       const std::function<bool()>& complete,
                       const std::function<SimTime()>& chain_end);

/// Binomial-tree scout gather to `root` (used by Fig. 3 broadcast and the
/// multicast barrier).  Every non-root rank sends exactly one zero-data
/// scout; the root returns once all N-1 scouts are accounted for.
void scout_gather_binary(mpi::Proc& p, const mpi::Comm& comm, int root);

/// Linear scout gather: all non-root ranks scout straight to the root.
void scout_gather_linear(mpi::Proc& p, const mpi::Comm& comm, int root);

/// Multicasts `payload` on the communicator's channel with the (context,
/// root, sequence) framing; charges the sender software overhead for
/// `tier` and advances the channel sequence.  Data broadcasts use
/// CostTier::kMcastData; the barrier's bare release uses kRaw.
void mcast_send_framed(mpi::Proc& p, const mpi::Comm& comm,
                       std::span<const std::uint8_t> payload, int root,
                       net::FrameKind kind,
                       mpi::CostTier tier = mpi::CostTier::kMcastData);

/// Receives the next in-sequence framed multicast for `comm`, skipping
/// stale duplicates; asserts the §4 ordering property (sequence and root
/// must match the program order); charges the receiver software overhead
/// for `tier` and advances the channel sequence.
Buffer mcast_recv_framed(mpi::Proc& p, const mpi::Comm& comm, int root,
                         mpi::CostTier tier = mpi::CostTier::kMcastData);

/// Fig. 3: binary scout synchronization, then one IP multicast.
void bcast_mcast_binary(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                        int root);

/// Fig. 4: linear scout synchronization, then one IP multicast.
void bcast_mcast_linear(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                        int root);

/// §3.2: binomial scout reduction to rank 0, then one zero-data multicast
/// releases every rank.  (N-1) point-to-point messages + 1 multicast,
/// versus MPICH's 2(N-K) + K·log2 K.
void barrier_mcast(mpi::Proc& p, const mpi::Comm& comm);

}  // namespace mcmpi::coll
