#pragma once
/// \file nack_mcast.hpp
/// Receiver-driven NACK-based reliable multicast (SRM-style).
///
/// The dual of ack_mcast.hpp: instead of the sender collecting a positive
/// ACK from every receiver (N-1 control messages per broadcast, and a
/// whole-payload retransmission whenever ANY of them is late), the sender
/// blasts the payload once and returns.  Receivers detect gaps from the
/// multicast channel's sequence numbers and request exactly the missing
/// frame with a unicast NACK; the root serves NACKs from a retained
/// history through an engine sink, so retransmission works even after the
/// root has moved on to other work.
///
/// Two classic SRM refinements keep the recovery traffic implosion-free:
///
///   * NACK AGGREGATION at the root — one retransmission within an
///     aggregation window serves every receiver that missed the same frame
///     (the retransmission is multicast); further NACKs for the same
///     sequence inside the window are suppressed.
///
///   * EXPONENTIAL BACKOFF at the receivers — each unanswered NACK widens
///     the next timeout (capped), so a persistently lossy path does not
///     degenerate into a NACK storm.  A retry cap turns unreachability
///     into a hard, diagnosable error instead of a silent hang.
///
/// On a clean wire this is the cheapest reliable multicast in the
/// registry: one payload transit and zero control traffic.  Under loss it
/// pays one NACK round trip per gap — the bench_loss_crossover sweep
/// measures where it overtakes the ACK protocol as loss rises.

#include "coll/recovery.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

struct NackMcastParams {
  /// Receiver NACK timer: 2 ms silence before the first NACK for a gap,
  /// doubling per unanswered NACK up to 50 ms; 30 NACKs per gap before the
  /// receiver throws.
  RetryPolicy retry{.timeout = milliseconds(2),
                    .backoff = 2.0,
                    .cap = milliseconds(50),
                    .max_retries = 30};
  /// Root-side suppression window: NACKs for a sequence already re-sent
  /// within this window are dropped (the multicast retransmission is on
  /// the wire and serves them all).
  SimTime aggregation_window = microseconds(500);
  /// Framed broadcasts retained for retransmission.
  std::size_t history_frames = 64;
};

/// Sets the protocol parameters for `comm` (per-communicator, like
/// set_segmented_config; keep it communicator-uniform).  Throws
/// std::invalid_argument on out-of-range values.
void set_nack_mcast_params(mpi::Proc& p, const mpi::Comm& comm,
                           const NackMcastParams& params);
const NackMcastParams& nack_mcast_params(mpi::Proc& p, const mpi::Comm& comm);

/// Broadcast with receiver-driven reliability.  `buffer` is input at root,
/// output elsewhere.  Throws std::runtime_error when a receiver exhausts
/// the retry limit — the root is unreachable or loss exceeds what NACK
/// recovery can absorb.
void bcast_nack_mcast(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                      int root);

/// Cumulative protocol statistics on this rank.
const NackStats& nack_mcast_stats(mpi::Proc& p, const mpi::Comm& comm);

}  // namespace mcmpi::coll
