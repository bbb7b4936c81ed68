#pragma once
/// \file ack_mcast.hpp
/// Sender-initiated reliable multicast (ORNL PVM style) — the cited
/// negative baseline.
///
/// Paper §2: "In research done at Oak Ridge National Laboratory, parallel
/// collective operations in PVM were implemented over IP multicast.  In
/// that work, reliability was ensured by the sender repeatedly sending the
/// same message until ack's were received from all receivers.  This
/// approach did not produce improvement in performance."
///
/// The root multicasts the payload immediately (no readiness handshake),
/// then blocks until every receiver has acknowledged, re-multicasting the
/// full payload whenever the ACK timer expires.  Receivers that were not
/// ready for the first transmission pick up a retransmission.  The ablation
/// bench (abl_ack_mcast) shows why this loses to scouts: ACK collection is
/// as serial as linear scouts, and any slow receiver costs whole-payload
/// retransmissions instead of a cheap wait.

#include "coll/recovery.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

struct AckMcastParams {
  /// Root retransmission timer: how long the root waits for outstanding
  /// ACKs before re-multicasting (5 ms).  The default fixed timer
  /// (backoff 1) that retries forever (max_retries 0) is the historical
  /// behavior; under sustained loss a fixed timer livelocks, as
  /// retransmissions collide with the ACKs they provoked, so lossy runs set
  /// a backoff and a finite limit — exceeding it throws.
  RetryPolicy retry{.timeout = milliseconds(5),
                    .backoff = 1.0,
                    .cap = milliseconds(200),
                    .max_retries = 0};
};

struct AckMcastStats {
  std::uint64_t retransmissions = 0;
};

/// Sets the ACK protocol parameters used by the parameterless overload on
/// `comm` (per-communicator, like set_segmented_config).  Throws
/// std::invalid_argument on an out-of-range retry policy.
void set_ack_mcast_params(mpi::Proc& p, const mpi::Comm& comm,
                          const AckMcastParams& params);
const AckMcastParams& ack_mcast_params(mpi::Proc& p, const mpi::Comm& comm);

/// Broadcast with sender-initiated reliability.  `buffer` is input at root,
/// output elsewhere.  The two-argument form uses the communicator's
/// configured params; the explicit form overrides them for this call.
void bcast_ack_mcast(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                     int root);
void bcast_ack_mcast(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                     int root, const AckMcastParams& params);

/// Cumulative retransmission count on this rank (root-side statistic).
const AckMcastStats& ack_mcast_stats(mpi::Proc& p, const mpi::Comm& comm);

}  // namespace mcmpi::coll
