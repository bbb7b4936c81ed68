#pragma once
/// \file mcast_alltoall.hpp
/// Personalized all-to-all over IP multicast — round-robin lockstep.
///
/// The pairwise-shift alltoall (mpich.hpp) exchanges N-1 point-to-point
/// message pairs per rank: every rank pays N-1 send and N-1 receive
/// software overheads, and N(N-1) separate datagrams hit the wire.  On a
/// multicast-capable network each rank can instead transmit its WHOLE
/// personalized vector once: in rank order (the lockstep discipline of
/// allgather_mcast, which guarantees receiver readiness by construction),
/// rank r multicasts [block table || block_0 .. block_{N-1}] through the
/// zero-copy gather-send, and every receiver slices out the one block
/// addressed to it.  N multicast sends replace N(N-1) unicasts — the same
/// per-message-overhead saving the paper's broadcast exploits, applied to
/// the fully personalized pattern.  The price is receive bandwidth: every
/// rank hears every byte (N*b per round instead of b), so the win lives
/// where per-message cost, not wire bytes, dominates — and the whole
/// concatenated vector must fit one multicast datagram (registry
/// predicate: the coll::kMaxMcastDatagram fragment-offset ceiling of
/// coll/limits.hpp and the receiver socket buffer).

#include <vector>

#include "coll/limits.hpp"
#include "common/bytes.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Round-robin multicast alltoall: `to_each[i]` goes to comm rank i;
/// returns what every rank sent to this one.
std::vector<Buffer> alltoall_mcast_rr(mpi::Proc& p, const mpi::Comm& comm,
                                      const std::vector<Buffer>& to_each);

}  // namespace mcmpi::coll
