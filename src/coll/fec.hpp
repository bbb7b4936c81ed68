#pragma once
/// \file fec.hpp
/// FEC-coded reliable multicast: erasure-coded broadcast with adaptive
/// parity and loss-aware degradation.
///
/// The third classic reliable-multicast design, next to the sender-driven
/// ACK protocol (ack_mcast.hpp) and the receiver-driven NACK protocol
/// (nack_mcast.hpp): the root splits the payload into windows of k data
/// chunks, appends r Reed–Solomon parity chunks per window (gf256.hpp),
/// and multicasts everything once.  ANY k of a window's k+r frames
/// reconstruct the window, so a receiver recovers from up to r losses with
/// ZERO recovery round trips — on a high-loss, high-latency trunk that
/// round trip is exactly what dominates the NACK protocol's tail.  The
/// price is deterministic: r/k extra bandwidth whether or not anything was
/// lost, which is why the protocol LOSES at zero loss by its parity
/// bandwidth (bench_loss_crossover measures the three-way crossover).
///
/// Loss-aware degradation, in two stages:
///
///   * ADAPTIVE PARITY (root side, FecConfig::adaptive): the root reads
///     the fault plane's frames_dropped counter on its shard before each
///     broadcast and ratchets the working overhead — doubling it (up to
///     max_overhead) when the previous operations saw drops, halving it
///     back toward the configured floor after calm_ops consecutive clean
///     operations.  The hysteresis keeps one reordered burst from
///     whipsawing the rate.  Receivers need no agreement: every frame
///     header carries its window's k and r.
///
///   * NACK FALLBACK (receiver side): when a window loses MORE than r
///     frames, the receiver requests the missing data frames from the
///     root's bounded retransmission history (kTagFecNack) with
///     exponential backoff and a retry cap — counted (fec_fallbacks), and
///     a hard, diagnosable error past the cap rather than a silent hang.
///
/// Decode is a pure function of the delivered-chunk set (gf256.hpp), so
/// results are bit-identical across shard counts, drivers, and backends —
/// the same contract as the fault plane.

#include "coll/recovery.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

struct FecConfig {
  /// Data chunks per FEC window (1..255; k + parity <= 256).
  int k = 8;
  /// Parity ratio: a window of kw data chunks carries
  /// r = max(1, ceil(kw * overhead)) parity chunks.
  double overhead = 0.125;
  /// Ratchet the working overhead from observed shard loss counters
  /// (doubling on drops up to max_overhead, halving back after calm_ops
  /// clean operations).  Root-side only; frame headers carry the result.
  bool adaptive = false;
  /// Adaptive ceiling for the working overhead.
  double max_overhead = 0.5;
  /// frames_dropped delta (since the previous broadcast on this
  /// communicator) that triggers a raise.
  std::uint64_t raise_threshold = 1;
  /// Consecutive drop-free broadcasts before the overhead steps back down.
  int calm_ops = 8;
  /// Receiver NACK-fallback timer: 2 ms of silence before the first
  /// fallback round, doubling per unanswered round up to 50 ms; 30 rounds
  /// per window before the receiver throws.
  RetryPolicy retry{.timeout = milliseconds(2),
                    .backoff = 2.0,
                    .cap = milliseconds(50),
                    .max_retries = 30};
  /// Root-side suppression window for retransmissions of one frame.
  SimTime aggregation_window = microseconds(500);
  /// Framed chunks (data + parity) retained for the NACK fallback.
  std::size_t history_frames = 256;
};

struct FecStats : SinkStats {
  std::uint64_t windows_sent = 0;     // root: FEC windows encoded
  std::uint64_t parity_sent = 0;      // root: parity frames multicast
  std::uint64_t parity_used = 0;      // receiver: parity rows consumed
  std::uint64_t decodes = 0;          // receiver: windows reconstructed
  std::uint64_t fallbacks = 0;        // receiver: NACK fallback rounds
  std::uint64_t overhead_raises = 0;  // root: adaptive ratchet up-steps
};

/// Frame geometry for a `total`-byte broadcast under `config` — exposed so
/// the registry predicate and the tests agree with the engine about what
/// fits.  wire_bytes is the worst-case bytes a receiver's socket buffer
/// must absorb if it consumes nothing mid-blast: every data + parity frame
/// (at max_overhead when adaptive) including all framing headers.
struct FecPlan {
  std::size_t chunk_bytes = 0;  ///< nominal full chunk length
  int n_data = 0;               ///< data chunks in the stream
  int windows = 0;              ///< FEC windows
  std::size_t wire_bytes = 0;   ///< worst-case on-the-wire total
};
FecPlan fec_plan(std::size_t total, const FecConfig& config);

/// Sets the protocol configuration for `comm` (per-communicator, like
/// set_segmented_config; keep it communicator-uniform).  Throws
/// std::invalid_argument on out-of-range values.
void set_fec_config(mpi::Proc& p, const mpi::Comm& comm,
                    const FecConfig& config);
const FecConfig& fec_config(mpi::Proc& p, const mpi::Comm& comm);

/// Broadcast with FEC-coded reliability.  `buffer` is input at root,
/// output elsewhere.  Throws std::runtime_error when a receiver exhausts
/// its retry limit on a window.
void bcast_fec_mcast(mpi::Proc& p, const mpi::Comm& comm, Buffer& buffer,
                     int root);

/// Cumulative protocol statistics on this rank.
const FecStats& fec_stats(mpi::Proc& p, const mpi::Comm& comm);

/// The root-side working overhead the NEXT broadcast on `comm` will encode
/// with (config.overhead until adaptive ratcheting moves it).
double fec_working_overhead(mpi::Proc& p, const mpi::Comm& comm);

}  // namespace mcmpi::coll
