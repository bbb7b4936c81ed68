#pragma once
/// \file recovery.hpp
/// The recovery core under the reliable-multicast engines (ack-mcast,
/// nack-mcast, sequencer, fec-mcast, mcast-segmented).
///
/// Each engine keeps its own protocol steps — ACK collection, the sequencer
/// handoff, FEC windows, the segmented pipeline — and shares the machinery
/// below: the 16 B frame header, the root's retained history and NACK
/// sink, the receiver's in-order gap recovery, the retry policy of every
/// recovery timer, and the GF(256) decode of a window's lost rows.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::sim {
class Shard;
struct SchedCounters;
}  // namespace mcmpi::sim

namespace mcmpi::coll {

// ------------------------------------------------------------- framing

/// Wire size of the (context, root, sequence) framing header every framed
/// multicast carries — budget it when sizing a datagram against the
/// fragment-offset ceiling or a socket buffer.
inline constexpr std::size_t kMcastFrameHeaderBytes = 16;

struct FrameHeader {
  std::uint32_t context = 0;
  std::int32_t root_world = 0;
  std::uint64_t seq = 0;
};

void write_frame_header(ByteWriter& w, const FrameHeader& h);
FrameHeader read_frame_header(ByteReader& r);

/// Charges the send overhead of `payload`, then multicasts it on `ch`
/// behind header `h` as one gather-send (the data is never re-buffered).
void send_framed(mpi::Proc& p, mpi::McastChannel& ch, const FrameHeader& h,
                 std::span<const std::uint8_t> payload, net::FrameKind kind,
                 mpi::CostTier tier = mpi::CostTier::kMcastData);

/// Host software overhead of sending / receiving `bytes` of framed payload
/// (the bytes after the frame header): the cost, and sleeping it.
SimTime mcast_recv_cost(mpi::Proc& p, std::size_t bytes,
                        mpi::CostTier tier = mpi::CostTier::kMcastData);
void charge_mcast_recv(mpi::Proc& p, std::size_t bytes,
                       mpi::CostTier tier = mpi::CostTier::kMcastData);
void charge_mcast_send(mpi::Proc& p, std::size_t bytes,
                       mpi::CostTier tier = mpi::CostTier::kMcastData);

/// The charge of a charged receive on `ch` (UdpSocket::recv_charged): the
/// frame the channel expects next prices its receive overhead into the
/// wake, so the rank resumes once, at arrival + overhead; duplicates and
/// early frames wake uncharged.
std::function<SimTime(const inet::UdpDatagram&)> expected_frame_charge(
    mpi::Proc& p, mpi::McastChannel& ch,
    mpi::CostTier tier = mpi::CostTier::kMcastData);

// --------------------------------------------------------- retry policy

/// The timer of one recovery loop (a root's retransmission timer or a
/// receiver's NACK timer): `timeout` of silence before the first action,
/// multiplied by `backoff` after every unanswered one up to `cap`, and
/// `max_retries` actions before the engine throws (0 = retry forever).
struct RetryPolicy {
  SimTime timeout{};
  double backoff = 1.0;
  SimTime cap{};
  int max_retries = 0;
};

/// Throws std::invalid_argument, naming `engine`, unless timeout > 0,
/// backoff >= 1, cap >= timeout and max_retries >= 0.
void validate(const RetryPolicy& policy, std::string_view engine);

/// A recovery loop's running state under a RetryPolicy.
class RetryTimer {
 public:
  explicit RetryTimer(const RetryPolicy& policy)
      : policy_(policy), timeout_(policy.timeout) {}

  SimTime timeout() const { return timeout_; }
  int retries() const { return retries_; }

  /// One recovery action is due: throws std::runtime_error with
  /// `diagnose()` when the retry limit is spent, else counts the action
  /// and widens the timer by the backoff, up to the cap.
  void step(const std::function<std::string()>& diagnose);

  /// Progress: the timer restarts at the base timeout.
  void reset_timeout() { timeout_ = policy_.timeout; }
  /// Progress that also forgives the retries spent so far.
  void reset() {
    reset_timeout();
    retries_ = 0;
  }

 private:
  RetryPolicy policy_;
  SimTime timeout_;
  int retries_ = 0;
};

// ----------------------------------------------------- retained history

/// Root-sink counters, shared by every NACK-served engine's stats.
struct SinkStats {
  std::uint64_t nacks_served = 0;      // root sink: frames re-multicast
  std::uint64_t nacks_suppressed = 0;  // root sink: inside the window
  std::uint64_t nacks_unserved = 0;    // root sink: history miss
};

/// Stats of the single-frame NACK engines (nack-mcast, sequencer).
struct NackStats : SinkStats {
  std::uint64_t nacks_sent = 0;  // receiver side
};

/// Layouts of a sequence-list control payload (a NACK or an ACK): one u64
/// sequence, or a u32 count of them.
enum class SeqFormat { kSingle, kCounted };

/// Sends `seqs` to `dst` as one control message over the raw path.
void send_seqs(mpi::Proc& p, const mpi::Comm& comm, int dst, mpi::Tag tag,
               SeqFormat format, std::span<const std::uint64_t> seqs);

/// Root-side retransmission service: keeps the newest `frames` framed
/// multicasts, and an engine sink re-multicasts a NACKed one unless the
/// same sequence was re-sent less than `aggregation_window` ago (that
/// multicast already serves every receiver that missed it).  The sink runs
/// at kernel level, uncharged, for the communicator's lifetime — it serves
/// receivers after the root rank has left the collective, which is what
/// lets a root return without waiting.
class RetainedHistory {
 public:
  RetainedHistory(std::size_t frames, SimTime aggregation_window)
      : frames_(frames), aggregation_window_(aggregation_window) {}
  RetainedHistory(const RetainedHistory&) = delete;  // the sink holds `this`
  RetainedHistory& operator=(const RetainedHistory&) = delete;

  /// Throws std::invalid_argument, naming `engine`, unless frames >= 1 and
  /// aggregation_window >= 0; applies them otherwise.
  void set_limits(std::size_t frames, SimTime aggregation_window,
                  std::string_view engine);

  /// Installs the sink for (comm, tag) on first call; later calls are
  /// no-ops.  Counts into `stats` and this rank's shard counters.  The
  /// owner must outlive the communicator (Proc::coll_state does).
  void serve_nacks(mpi::Proc& p, const mpi::Comm& comm, mpi::Tag tag,
                   SeqFormat format, SinkStats& stats);

  /// Retains `framed` under the channel's next sequence (evicting the
  /// oldest beyond the bound), charges the send overhead for the bytes
  /// after its frame header, multicasts it and advances the sequence.
  void multicast(mpi::Proc& p, mpi::McastChannel& ch, PayloadRef framed);
  /// The same for `payload` as the next framed multicast from `root` on
  /// `comm`, header and payload in one pooled allocation.
  void multicast(mpi::Proc& p, const mpi::Comm& comm, int root,
                 std::span<const std::uint8_t> payload);

 private:
  void serve(std::uint64_t seq);

  std::size_t frames_;
  SimTime aggregation_window_;
  mpi::McastChannel* channel_ = nullptr;  // set once the sink is installed
  sim::Shard* shard_ = nullptr;
  SinkStats* stats_ = nullptr;
  std::map<std::uint64_t, PayloadRef> history_;
  // seq -> last re-multicast instant, for aggregation/suppression.
  std::map<std::uint64_t, SimTime> last_resend_;
};

// --------------------------------------------------------- gap receiver

/// Receiver side: early frames (seq > expected), views of their datagrams.
using EarlyFrames = std::map<std::uint64_t, PayloadRef>;

/// Delivers the next in-order framed multicast on `comm`'s channel: serves
/// it from `early` when a retransmission or reordered original already
/// landed there, else waits with a charged receive (the expected frame
/// prices its receive overhead into the wake; duplicates and early frames
/// wake uncharged).  On `policy` silence it NACKs `nack_to` for the
/// expected sequence; throws std::runtime_error naming `engine` and `root`
/// once the policy's retry limit is spent.
Buffer recv_in_order(mpi::Proc& p, const mpi::Comm& comm, EarlyFrames& early,
                     const RetryPolicy& policy, int nack_to, mpi::Tag tag,
                     NackStats& stats, std::string_view engine, int root);

// -------------------------------------------------------- window decode

/// The top bit of a coded frame's index field marks a parity frame; the
/// low bits are its parity row.
inline constexpr std::uint32_t kParityIndexBit = 0x80000000u;

/// (row, bytes) parity frames received for one FEC window.
using ParityRows = std::vector<std::pair<int, PayloadRef>>;

bool has_row(const ParityRows& parity, int row);

/// GF(256) reconstruction of a window's `missing` data rows into `outs`
/// from the present rows in `data` and the first missing.size() parity
/// rows.  Sorts `parity` by row first, so the result is a pure function of
/// the delivered set, not of arrival order.  Counts the decode and the
/// parity rows used on `counters`.
void decode_window(std::span<const std::span<const std::uint8_t>> data,
                   ParityRows& parity, std::span<const int> missing,
                   std::span<const std::span<std::uint8_t>> outs,
                   sim::SchedCounters& counters);

}  // namespace mcmpi::coll
