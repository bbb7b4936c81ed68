#pragma once
/// \file mcast_scatter.hpp
/// Single-transmission multicast scatter — the bandwidth-saving trick of
/// Zhou et al. applied to MPI_Scatter.
///
/// The point-to-point scatter sends N-1 separate chunk messages from the
/// root.  On a multicast-capable network the root can instead transmit the
/// concatenated payload ONCE: scout synchronization makes every receiver
/// ready (§4), the root multicasts [chunk table || chunk bytes] through the
/// zero-copy gather-send path, and each rank slices its own chunk out of
/// the delivered datagram.  The root pays one send overhead instead of N-1
/// and the payload crosses the shared medium once.
///
/// The whole concatenated payload must fit one simulated UDP datagram:
/// the IP fragment offset field (16 bits of 8-byte units) caps datagrams
/// near 512 KiB (coll::kMaxMcastDatagram, coll/limits.hpp), which the
/// registry predicate enforces.

#include <vector>

#include "coll/limits.hpp"
#include "common/bytes.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Wire overhead of the block table for N ranks (u32 count + one u64
/// length per block) — budget it when sizing the datagram.
inline constexpr std::size_t block_table_bytes(int ranks) {
  return 4 + 8 * static_cast<std::size_t>(ranks);
}

/// [u32 count][u64 length x count][blocks...]: the one datagram of the
/// multicast scatter and of each multicast alltoall round.
Buffer pack_block_table(const std::vector<Buffer>& blocks);

/// Block `index` of a packed block table; asserts the table holds `count`
/// blocks and fits the datagram.
std::span<const std::uint8_t> table_block(std::span<const std::uint8_t> table,
                                          int count, int index);

/// Scatter `chunks` (root only; comm.size() entries) with one multicast;
/// returns this rank's chunk.
Buffer scatter_mcast_slice(mpi::Proc& p, const mpi::Comm& comm,
                           const std::vector<Buffer>& chunks, int root);

}  // namespace mcmpi::coll
