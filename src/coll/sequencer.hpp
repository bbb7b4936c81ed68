#pragma once
/// \file sequencer.hpp
/// Sequencer-ordered reliable multicast (Orca-style) — related-work
/// extension.
///
/// Paper §2 cites the Orca project's approach: a special sequencer node
/// gives broadcasts a total order.  We pair it with receiver-initiated
/// recovery (NACKs, cf. the paper's reference [10], Towsley et al.): the
/// broadcaster hands its payload to the sequencer (comm rank 0); the
/// sequencer stamps the next sequence number, multicasts, and keeps the
/// frame in a bounded history; a receiver that notices a gap — by timeout
/// or by receiving a later sequence number — NACKs the sequencer, which
/// re-multicasts from history.  NACK service runs as an engine sink, i.e.
/// at "kernel level", so the sequencer rank serves retransmissions even
/// while blocked in unrelated application code.
///
/// Steady-state cost per broadcast: one point-to-point handoff plus one
/// multicast, with *no* readiness handshake at all — cheaper than scouts
/// when broadcasts are frequent (see abl_ack_mcast), at the price of
/// unbounded receiver lag being detected only by timeout.

#include "coll/recovery.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

struct SequencerParams {
  /// Receiver gap-detection timeout before NACKing (a fixed timer, no
  /// backoff).  A receiver that sends kSequencerMaxNacks NACKs for one
  /// frame — one the sequencer's history no longer holds — throws.
  SimTime nack_timeout = milliseconds(3);
  /// Frames retained for retransmission.
  std::size_t history_frames = 128;
};

/// NACKs per frame before a sequencer receiver gives up: 3 s of silence
/// at the default timer.
inline constexpr int kSequencerMaxNacks = 1000;

/// Broadcast via the sequencer.  `buffer` is input at root, output
/// elsewhere.  Comm rank 0 acts as the sequencer.  Throws
/// std::invalid_argument on a nonpositive nack_timeout or an empty history,
/// and std::runtime_error when a receiver exhausts kSequencerMaxNacks.
void bcast_sequencer(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                     int root, const SequencerParams& params = {});

const NackStats& sequencer_stats(mpi::Proc& p, const mpi::Comm& comm);

}  // namespace mcmpi::coll
