#pragma once
/// \file segmented.hpp
/// Jumbo-message multicast: segmented, pipelined, multi-lane striping.
///
/// Every single-shot multicast collective in this repo shares a hard
/// ceiling: the whole payload must fit one simulated UDP datagram
/// (coll::kMaxMcastDatagram ≈ 512 KiB, from the 16-bit IP fragment-offset
/// field) AND the receivers' socket buffers.  This engine removes the
/// ceiling by doing what a real large-message protocol does:
///
///   * SEGMENT — the payload is cut into chunks small enough for the
///     datagram ceiling and a window's share of the receive buffer; each
///     chunk is multicast with a 32 B sub-header (index, count, offset,
///     length, total) appended to the usual 16 B (context, root, seq)
///     framing, so any chunk is self-describing.
///
///   * PIPELINE — a sliding window keeps up to `window` chunks in flight
///     per lane: the multicast of chunk k overlaps the ack collection
///     (and any timeout-driven recovery) of chunk k-1, instead of the
///     lockstep send → all-ack → send cadence (window = 1).
///
///   * STRIPE — `lanes` > 1 spreads chunks round-robin over several
///     multicast groups of the SAME communicator (CommInfo::mcast_port(l)
///     gives each lane its own port; lane 0 is the classic identity).
///     Each lane carries its own sequence numbers and its own receive
///     buffer, so striping multiplies both the in-flight budget and the
///     receiver-side buffering.
///
/// Reliability is the ORNL ack discipline of ack_mcast.cpp, per chunk:
/// every receiver acks every chunk over the raw path; the root retires a
/// chunk at N-1 acks and re-multicasts the oldest unretired chunk (with
/// its ORIGINAL lane sequence number, so consumers that already have it
/// skip a stale duplicate) when acks stop arriving.  Readiness is the
/// paper's scout synchronization: every rank creates ALL lane channels
/// before its scout, so no chunk can beat a receiver's join.
///
/// The hot path is zero-copy end to end: chunks are sub-spans of the user
/// buffer gather-framed straight into the wire datagram (the pipeline's
/// single kernel copy), and the receive side copies each delivered chunk
/// once, into its final place in the output buffer (PayloadRef::copy_to,
/// counted like every delivery copy).

#include <functional>
#include <vector>

#include "coll/recovery.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Wire size of the per-chunk sub-header (u32 index, u32 count, u64
/// offset, u64 length, u64 total) that follows the 16 B multicast framing
/// header on every segmented datagram.
inline constexpr std::size_t kSegHeaderBytes = 32;

/// Knobs of the segmented pipeline, kept per communicator
/// (set_segmented_config) so benches and tests sweep them without new
/// collective entry points.  The configuration must be identical on every
/// rank of the communicator — it is protocol geometry, like a datatype.
struct SegmentedConfig {
  /// Requested chunk payload bytes; the effective size is clamped to the
  /// datagram ceiling and the per-lane receive buffer's window share
  /// (segmented_effective_chunk).
  std::size_t chunk_bytes = 64 * 1024;
  /// Chunks in flight per lane before the root must retire one (1 =
  /// lockstep send-then-ack; >1 pipelines transmission over recovery).
  int window = 4;
  /// Multicast groups striped round-robin (1..CommInfo::kMaxMcastLanes).
  int lanes = 1;
  /// Root retransmission timer: the ack deadline before the oldest
  /// unretired chunk is re-multicast (50 ms; it must exceed a chunk's wire
  /// + delivery time, or steady state retransmits spuriously), reset by any
  /// ack.  max_retries counts CONSECUTIVE ack-less timeouts.  The default
  /// fixed timer (backoff 1) that retries forever (max_retries 0) is the
  /// historical behavior, which livelocks under sustained loss; exceeding a
  /// finite limit throws, since the stream cannot make progress.
  RetryPolicy retry{.timeout = milliseconds(50),
                    .backoff = 1.0,
                    .cap = milliseconds(800),
                    .max_retries = 0};
  /// FEC recovery mode (coll/fec.hpp's erasure coder applied per window):
  /// after every generation of `window` data chunks on a lane, the root
  /// multicasts r = max(1, ceil(window * fec_overhead)) Reed–Solomon
  /// parity frames for that generation.  A receiver holding any
  /// generation-size subset of data + parity reconstructs the missing
  /// chunks IN-WINDOW — and acks them — instead of waiting out the root's
  /// retransmit timeout; losses beyond r still fall back to the ack/
  /// timeout machinery.  Parity frames are fire-and-forget (never acked,
  /// never retransmitted) and consume lane sequence numbers, so 0 keeps
  /// the wire format byte-identical to the pre-FEC protocol.  Requires
  /// window <= 128 when nonzero (generation + parity must fit GF(256)).
  double fec_overhead = 0.0;
};

/// Parity frames per generation for `config` (0 when FEC is off).
int segmented_fec_parity(const SegmentedConfig& config);

/// Installs `config` for all segmented collectives on `comm` (per-rank
/// call; keep it communicator-uniform).
void set_segmented_config(mpi::Proc& p, const mpi::Comm& comm,
                          const SegmentedConfig& config);
/// The communicator's current configuration (defaults until set).
const SegmentedConfig& segmented_config(mpi::Proc& p, const mpi::Comm& comm);

/// The chunk payload size actually used: `chunk_bytes` clamped so that
/// [framing + chunk] fits the datagram ceiling and `window` in-flight
/// chunks fit one lane's receive buffer (`rcvbuf_bytes`).
std::size_t segmented_effective_chunk(const SegmentedConfig& config,
                                      std::size_t rcvbuf_bytes);

/// Segmented broadcast: any payload size, any topology with multicast.
void bcast_mcast_segmented(mpi::Proc& p, const mpi::Comm& comm,
                           Buffer& buffer, int root);

/// Segmented allgather: N sequential segmented streams in rank order
/// (block r crosses the wire once, whatever its size).
std::vector<Buffer> allgather_mcast_segmented(
    mpi::Proc& p, const mpi::Comm& comm, std::span<const std::uint8_t> data);

/// Segmented scatter: the [chunk table ‖ concatenated blocks] stream of
/// mcast_scatter.hpp, freed from the single-datagram ceiling.  Receivers
/// keep only the table and their own range.
Buffer scatter_mcast_segmented(mpi::Proc& p, const mpi::Comm& comm,
                               const std::vector<Buffer>& chunks, int root);

}  // namespace mcmpi::coll
