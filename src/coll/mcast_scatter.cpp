#include "coll/mcast_scatter.hpp"

#include <numeric>

#include "coll/mcast.hpp"
#include "common/assert.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

Buffer scatter_mcast_slice(Proc& p, const Comm& comm,
                           const std::vector<Buffer>& chunks, int root) {
  const int size = comm.size();
  const int rank = comm.rank();
  MC_EXPECTS(root >= 0 && root < size);
  if (size == 1) {
    MC_EXPECTS_MSG(chunks.size() == 1, "scatter needs one chunk per rank");
    return chunks[0];
  }

  // Channel creation precedes the scout: readiness before the single
  // transmission, the §4 ordering argument.
  (void)p.mcast_channel(comm);
  scout_gather_binary(p, comm, root);

  if (rank == root) {
    MC_EXPECTS_MSG(static_cast<int>(chunks.size()) == size,
                   "scatter needs one chunk per rank");
    const std::size_t total = std::accumulate(
        chunks.begin(), chunks.end(), block_table_bytes(size),
        [](std::size_t sum, const Buffer& c) { return sum + c.size(); });
    // The registry predicate checks the facade's chunk_bytes HINT, which an
    // explicitly named algorithm may pass as 0 — so the real payload must be
    // re-checked here, or an oversized datagram silently never enqueues and
    // every receiver hangs.
    MC_EXPECTS_MSG(total + kMcastFrameHeaderBytes <= kMaxMcastDatagram,
                   "concatenated scatter payload exceeds the multicast "
                   "datagram ceiling (use the point-to-point algorithm)");
    MC_EXPECTS_MSG(total + kMcastFrameHeaderBytes <= p.mcast_recv_buffer(),
                   "concatenated scatter payload exceeds the receivers' "
                   "multicast socket buffer (use the point-to-point "
                   "algorithm)");
    mcast_send_framed(p, comm, pack_block_table(chunks), root,
                      net::FrameKind::kData);
    return chunks[static_cast<std::size_t>(root)];
  }

  const Buffer wire = mcast_recv_framed(p, comm, root);
  const auto mine = table_block(wire, size, rank);
  return Buffer(mine.begin(), mine.end());
}

Buffer pack_block_table(const std::vector<Buffer>& blocks) {
  Buffer table;
  table.reserve(std::accumulate(
      blocks.begin(), blocks.end(),
      block_table_bytes(static_cast<int>(blocks.size())),
      [](std::size_t sum, const Buffer& b) { return sum + b.size(); }));
  ByteWriter w(table);
  w.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const Buffer& block : blocks) {
    w.u64(block.size());
  }
  for (const Buffer& block : blocks) {
    w.bytes(block);
  }
  return table;
}

std::span<const std::uint8_t> table_block(std::span<const std::uint8_t> table,
                                          int count, int index) {
  ByteReader r(table);
  MC_ASSERT_MSG(r.u32() == static_cast<std::uint32_t>(count),
                "block table does not match the communicator");
  std::size_t offset = 0;
  std::size_t len = 0;
  for (int i = 0; i < count; ++i) {
    const auto bytes = static_cast<std::size_t>(r.u64());
    if (i < index) {
      offset += bytes;
    } else if (i == index) {
      len = bytes;
    }
  }
  const auto blocks = r.rest();
  MC_ASSERT_MSG(offset + len <= blocks.size(),
                "block table overruns the datagram");
  return blocks.subspan(offset, len);
}

}  // namespace mcmpi::coll
