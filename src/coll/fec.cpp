#include "coll/fec.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/gf256.hpp"
#include "coll/limits.hpp"
#include "coll/mcast.hpp"
#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

/// FEC sub-header, after the common 16 B (context, root, seq) framing:
///   u32 index   — data: stream chunk index; parity: 0x80000000 | row
///   u32 window  — FEC window index within the operation
///   u32 kw      — data chunks in this window
///   u32 rw      — parity chunks in this window
///   u32 chunk   — nominal full chunk length (geometry is derivable from
///                 any single frame: no setup handshake, adaptive r needs
///                 no agreement round)
///   u64 total   — operation payload bytes
///   u64 op_base — channel sequence of the operation's first frame (frames
///                 self-identify their operation, so a receiver still
///                 draining operation n classifies early frames of n+1
///                 without guessing at sequence ranges)
constexpr std::size_t kFecHeaderBytes = 36;
constexpr std::size_t kFecCombinedHeaderBytes =
    kMcastFrameHeaderBytes + kFecHeaderBytes;

struct FecHeader {
  std::uint32_t index = 0;
  std::uint32_t window = 0;
  std::uint32_t kw = 0;
  std::uint32_t rw = 0;
  std::uint32_t chunk = 0;
  std::uint64_t total = 0;
  std::uint64_t op_base = 0;

  bool parity() const { return (index & kParityIndexBit) != 0; }
  int parity_row() const {
    return static_cast<int>(index & ~kParityIndexBit);
  }
};

FecHeader parse_fec_header(ByteReader& r) {
  FecHeader h;
  h.index = r.u32();
  h.window = r.u32();
  h.kw = r.u32();
  h.rw = r.u32();
  h.chunk = r.u32();
  h.total = r.u64();
  h.op_base = r.u64();
  return h;
}

struct Stashed {
  FecHeader h;
  PayloadRef body;
};

struct FecState {
  FecConfig config;
  // Root side: NACK-fallback service (counted NACK payloads).
  RetainedHistory history{config.history_frames, config.aggregation_window};
  // Receiver side: frames ahead of the current window / operation.
  std::map<std::uint64_t, Stashed> stash;
  FecStats stats;
  // Adaptive ratchet (root side).
  bool primed = false;
  std::uint64_t last_dropped = 0;
  int calm = 0;
  double working = -1.0;  // < 0: not yet initialized from config
};

int parity_rows(int kw, double overhead) {
  const int want = static_cast<int>(
      std::ceil(static_cast<double>(kw) * std::max(overhead, 0.0)));
  return std::clamp(want, 1, gf256::max_parity(kw));
}

/// The working overhead for the NEXT root-side encode, applying the
/// adaptive ratchet against the shard's frames_dropped counter.  The shard
/// is this rank's — one logical shard per segment, so the reading is a
/// pure function of the simulation, never of worker-thread timing.
double update_working_overhead(Proc& p, FecState& state) {
  const FecConfig& cfg = state.config;
  if (state.working < 0.0) {
    state.working = cfg.overhead;
  }
  if (!cfg.adaptive) {
    state.working = cfg.overhead;
    return state.working;
  }
  const std::uint64_t dropped = p.self().shard().counters().frames_dropped;
  if (!state.primed) {
    state.primed = true;
    state.last_dropped = dropped;
    return state.working;
  }
  const std::uint64_t delta = dropped - state.last_dropped;
  state.last_dropped = dropped;
  if (delta >= cfg.raise_threshold) {
    const double raised = std::min(state.working * 2.0, cfg.max_overhead);
    if (raised > state.working) {
      ++state.stats.overhead_raises;
    }
    state.working = raised;
    state.calm = 0;
  } else if (++state.calm >= cfg.calm_ops) {
    state.working = std::max(state.working / 2.0, cfg.overhead);
    state.calm = 0;
  }
  return state.working;
}

void send_root(Proc& p, const Comm& comm, FecState& state, Buffer& buffer,
               int root) {
  const FecConfig& cfg = state.config;
  mpi::McastChannel& ch = p.mcast_channel(comm);
  state.history.serve_nacks(p, comm, mpi::kTagFecNack, SeqFormat::kCounted,
                            state.stats);
  const double overhead = update_working_overhead(p, state);

  const std::size_t total = buffer.size();
  const FecPlan plan = fec_plan(total, cfg);
  const std::size_t chunk = plan.chunk_bytes;
  const int n_data = plan.n_data;
  const std::uint32_t context = comm.context();
  const std::int32_t root_world = comm.world_rank_of(root);
  const std::uint64_t op_base = ch.expected_seq();
  sim::Shard& shard = p.self().shard();

  for (int w = 0; w < plan.windows; ++w) {
    const int chunks_before = w * cfg.k;
    const int kw = std::min(cfg.k, n_data - chunks_before);
    const int rw = parity_rows(kw, overhead);
    FecHeader h;
    h.window = static_cast<std::uint32_t>(w);
    h.kw = static_cast<std::uint32_t>(kw);
    h.rw = static_cast<std::uint32_t>(rw);
    h.chunk = static_cast<std::uint32_t>(chunk);
    h.total = total;
    h.op_base = op_base;
    // Each frame is one pooled allocation, shared between the outgoing
    // multicast and the retransmission history: both headers, then `len`
    // bytes the caller appends.
    const auto framed = [&](std::uint64_t seq, std::size_t len) {
      PooledBuffer out = acquire_payload_buffer(kFecCombinedHeaderBytes + len);
      ByteWriter fw(out.bytes);
      write_frame_header(fw, {context, root_world, seq});
      for (const std::uint32_t v : {h.index, h.window, h.kw, h.rw, h.chunk}) {
        fw.u32(v);
      }
      fw.u64(h.total);
      fw.u64(h.op_base);
      return out;
    };

    std::vector<std::span<const std::uint8_t>> dspans;
    dspans.reserve(static_cast<std::size_t>(kw));
    for (int jj = 0; jj < kw; ++jj) {
      const int j = chunks_before + jj;
      const std::size_t off = static_cast<std::size_t>(j) * chunk;
      const std::size_t len = std::min(chunk, total - std::min(off, total));
      const std::span<const std::uint8_t> span{buffer.data() + off, len};
      dspans.push_back(span);
      h.index = static_cast<std::uint32_t>(j);
      PooledBuffer out = framed(ch.expected_seq(), len);
      ByteWriter(out.bytes).bytes(span);
      state.history.multicast(p, ch, PayloadRef::adopt(std::move(out)));
    }

    // Parity frames: encoded straight into their framed wire buffers (the
    // parity scratch is the payload pool's).
    const std::size_t plen = dspans.front().size();
    std::vector<PooledBuffer> pbufs;
    std::vector<std::span<std::uint8_t>> pspans;
    pbufs.reserve(static_cast<std::size_t>(rw));
    pspans.reserve(static_cast<std::size_t>(rw));
    const std::uint64_t parity_base = ch.expected_seq();
    for (int i = 0; i < rw; ++i) {
      h.index = kParityIndexBit | static_cast<std::uint32_t>(i);
      pbufs.push_back(framed(parity_base + static_cast<std::uint64_t>(i), plen));
      pbufs.back().bytes.resize(kFecCombinedHeaderBytes + plen, 0);
      pspans.emplace_back(pbufs.back().bytes.data() + kFecCombinedHeaderBytes,
                          plen);
    }
    gf256::encode_parity(dspans, pspans);
    for (PooledBuffer& out : pbufs) {
      state.history.multicast(p, ch, PayloadRef::adopt(std::move(out)));
      ++state.stats.parity_sent;
      ++shard.counters().parity_sent;
    }
    ++state.stats.windows_sent;
  }
  // No waiting: parity absorbs up to rw losses per window in-window, and
  // the sink serves anything beyond that from here on.
}

/// Per-window receive state.
struct WindowState {
  bool known = false;  // geometry (kw/rw) learned from some frame
  int kw = 0;
  int rw = 0;
  std::vector<PayloadRef> data;                     // by window-local row
  ParityRows parity;
  int data_have = 0;

  void learn(const FecHeader& h) {
    if (known) {
      return;
    }
    known = true;
    kw = static_cast<int>(h.kw);
    rw = static_cast<int>(h.rw);
    data.assign(static_cast<std::size_t>(kw), PayloadRef{});
  }
  bool complete() const {
    return known && data_have + static_cast<int>(parity.size()) >= kw;
  }
};

Buffer recv_fec(Proc& p, const Comm& comm, FecState& state, int root) {
  const FecConfig& cfg = state.config;
  mpi::McastChannel& ch = p.mcast_channel(comm);
  const std::uint64_t op_base = ch.expected_seq();
  sim::Shard& shard = p.self().shard();

  bool geom = false;
  std::size_t total = 0;
  std::size_t chunk = 1;
  int n_data = 0;
  Buffer out;

  int cur_window = 0;
  int chunks_before = 0;
  std::uint64_t win_base = op_base;
  WindowState win;

  const SimTime start = p.self().now();
  RetryTimer timer(cfg.retry);

  const auto learn_geometry = [&](const FecHeader& h) {
    if (geom) {
      return;
    }
    geom = true;
    total = h.total;
    chunk = std::max<std::size_t>(h.chunk, 1);
    n_data = static_cast<int>(
        total == 0 ? 1 : (total + chunk - 1) / chunk);
    out.assign(total, 0);
  };
  const auto chunk_len = [&](int j) {
    const std::size_t off = static_cast<std::size_t>(j) * chunk;
    return std::min(chunk, total - std::min(off, total));
  };
  // Where a frame stands against the current window: < 0 stale (an earlier
  // operation or a finished window), 0 current, > 0 early.
  const auto place = [&](const FecHeader& h) {
    if (h.op_base != op_base) {
      return h.op_base < op_base ? -1 : 1;
    }
    const auto w = static_cast<std::uint32_t>(cur_window);
    return h.window < w ? -1 : (h.window > w ? 1 : 0);
  };
  // Does a current-window frame add a row the window lacks?  Only those
  // are charged a receive overhead.
  const auto fresh = [&](const FecHeader& h) {
    if (h.parity()) {
      return !has_row(win.parity, h.parity_row());
    }
    const int jj = static_cast<int>(h.index) - chunks_before;
    return !win.known || jj < 0 || jj >= win.kw ||
           win.data[static_cast<std::size_t>(jj)].empty();
  };
  // The current window's data rows still missing.
  const auto missing_rows = [&] {
    std::vector<int> missing;
    for (int jj = 0; jj < win.kw; ++jj) {
      if (win.data[static_cast<std::size_t>(jj)].empty() &&
          chunk_len(chunks_before + jj) > 0) {
        missing.push_back(jj);
      }
    }
    return missing;
  };
  // Absorb a frame of the CURRENT window; pays the receive overhead when
  // the socket wake did not already charge it (stashed/early frames).
  const auto absorb = [&](const FecHeader& h, PayloadRef body, bool charged) {
    learn_geometry(h);
    win.learn(h);
    if (!fresh(h)) {
      return;
    }
    if (!charged) {
      charge_mcast_recv(p, kFecHeaderBytes + body.size());
    }
    if (h.parity()) {
      win.parity.emplace_back(h.parity_row(), std::move(body));
      return;
    }
    const int jj = static_cast<int>(h.index) - chunks_before;
    MC_EXPECTS(jj >= 0 && jj < win.kw);
    // A zero-length chunk (empty broadcast) stores nothing, but its row is
    // accounted for.
    if (chunk_len(static_cast<int>(h.index)) > 0) {
      win.data[static_cast<std::size_t>(jj)] = std::move(body);
    }
    ++win.data_have;
  };

  for (;;) {
    // Serve the current window from the persistent stash first: NACK
    // retransmissions and frames that arrived while a previous window was
    // being decoded land there.
    for (auto it = state.stash.begin(); it != state.stash.end();) {
      const int at = place(it->second.h);
      if (at == 0) {
        absorb(it->second.h, std::move(it->second.body), /*charged=*/false);
      }
      // Stale (an earlier operation or a finished window) or absorbed.
      it = at > 0 ? std::next(it) : state.stash.erase(it);
    }

    if (win.complete()) {
      // Reconstruct the missing rows from the parity (pure function of the
      // delivered-chunk set: parity rows are consumed in ascending row
      // order, gf256::decode is deterministic).
      const std::vector<int> missing = missing_rows();
      if (!missing.empty()) {
        std::vector<std::span<const std::uint8_t>> dspans(
            static_cast<std::size_t>(win.kw));
        for (int jj = 0; jj < win.kw; ++jj) {
          dspans[static_cast<std::size_t>(jj)] =
              win.data[static_cast<std::size_t>(jj)].view();
        }
        std::vector<std::span<std::uint8_t>> outs;
        outs.reserve(missing.size());
        for (const int jj : missing) {
          const int j = chunks_before + jj;
          outs.emplace_back(out.data() + static_cast<std::size_t>(j) * chunk,
                            chunk_len(j));
        }
        decode_window(dspans, win.parity, missing, outs, shard.counters());
        ++state.stats.decodes;
        state.stats.parity_used += missing.size();
      }
      for (int jj = 0; jj < win.kw; ++jj) {
        const int j = chunks_before + jj;
        const PayloadRef& body = win.data[static_cast<std::size_t>(jj)];
        if (!body.empty()) {
          body.copy_to({out.data() + static_cast<std::size_t>(j) * chunk,
                        chunk_len(j)});
        }
      }
      const std::uint64_t win_end =
          win_base + static_cast<std::uint64_t>(win.kw + win.rw);
      while (ch.expected_seq() < win_end) {
        ch.advance_seq();
      }
      chunks_before += win.kw;
      ++cur_window;
      win_base = win_end;
      win = WindowState{};
      timer.reset();
      if (chunks_before >= n_data) {
        return out;
      }
      continue;
    }

    auto datagram = ch.socket().recv_until_charged(
        p.self(), p.self().now() + timer.timeout(),
        [&](const inet::UdpDatagram& dg) -> SimTime {
          ByteReader peek(dg.data);
          // FEC frames route by sub-header, not by channel sequence.
          (void)read_frame_header(peek);
          if (peek.remaining() < kFecHeaderBytes) {
            return kTimeZero;
          }
          const FecHeader h = parse_fec_header(peek);
          // Stale, early, foreign or duplicate frames wake uncharged.
          if (place(h) != 0 || !fresh(h)) {
            return kTimeZero;
          }
          return mcast_recv_cost(p, dg.data.size() - kMcastFrameHeaderBytes);
        });
    if (datagram.has_value()) {
      ByteReader r(datagram->datagram.data);
      const std::uint64_t seq = read_frame_header(r).seq;
      if (r.remaining() < kFecHeaderBytes) {
        continue;  // not a FEC frame (foreign traffic on the channel)
      }
      const FecHeader h = parse_fec_header(r);
      PayloadRef body = datagram->datagram.data.slice(r.position());
      const int at = place(h);
      if (at > 0) {
        state.stash.emplace(seq, Stashed{h, std::move(body)});
      } else if (at == 0) {
        absorb(h, std::move(body), datagram->charge_absorbed);
        timer.reset_timeout();  // progress: reset the fallback clock
      }
      continue;  // a stale duplicate is dropped
    }

    // Timeout: the window lost more than its parity can absorb (or the
    // blast has not reached us).  Fall back to one NACK round for the
    // missing data frames.
    timer.step([&] {
      std::ostringstream os;
      os << "fec-mcast: rank " << comm.rank() << " gave up on window "
         << cur_window << " from root " << root << " after "
         << timer.retries() << " fallback rounds over "
         << to_microseconds(p.self().now() - start)
         << " us — the root is unreachable or loss exceeds what parity + "
            "NACK fallback can absorb; raise max_retries, history_frames, "
            "or overhead";
      return os.str();
    });
    ++state.stats.fallbacks;
    ++shard.counters().fec_fallbacks;
    ++shard.counters().nacks_sent;
    std::vector<std::uint64_t> want;
    for (const int jj : missing_rows()) {
      want.push_back(win_base + static_cast<std::uint64_t>(jj));
    }
    if (want.empty()) {
      // Geometry unknown (any frame restores it), or a degenerate gap of
      // unseen zero-length chunks: re-request the window's first frame.
      want.push_back(win_base);
    }
    send_seqs(p, comm, root, mpi::kTagFecNack, SeqFormat::kCounted, want);
  }
}

}  // namespace

FecPlan fec_plan(std::size_t total, const FecConfig& config) {
  FecPlan plan;
  const std::size_t cap = kMaxMcastDatagram - kFecCombinedHeaderBytes;
  std::size_t chunk =
      total == 0 ? 1
                 : (total + static_cast<std::size_t>(config.k) - 1) /
                       static_cast<std::size_t>(config.k);
  plan.chunk_bytes = std::clamp<std::size_t>(chunk, 1, cap);
  plan.n_data = static_cast<int>(
      total == 0 ? 1 : (total + plan.chunk_bytes - 1) / plan.chunk_bytes);
  plan.windows = (plan.n_data + config.k - 1) / config.k;
  const double worst = config.adaptive
                           ? std::max(config.overhead, config.max_overhead)
                           : config.overhead;
  plan.wire_bytes = total + static_cast<std::size_t>(plan.n_data) *
                                kFecCombinedHeaderBytes;
  for (int w = 0; w < plan.windows; ++w) {
    const int kw = std::min(config.k, plan.n_data - w * config.k);
    const int rw = parity_rows(kw, worst);
    plan.wire_bytes += static_cast<std::size_t>(rw) *
                       (plan.chunk_bytes + kFecCombinedHeaderBytes);
  }
  return plan;
}

void set_fec_config(Proc& p, const Comm& comm, const FecConfig& config) {
  if (config.k < 1 || config.k > 255) {
    throw std::invalid_argument("fec-mcast: k must be in [1, 255]");
  }
  if (!(config.overhead > 0.0) || config.overhead > 2.0) {
    throw std::invalid_argument("fec-mcast: overhead must be in (0, 2]");
  }
  if (config.max_overhead < config.overhead) {
    throw std::invalid_argument(
        "fec-mcast: max_overhead must be >= overhead");
  }
  if (config.raise_threshold < 1) {
    throw std::invalid_argument("fec-mcast: raise_threshold must be >= 1");
  }
  if (config.calm_ops < 1) {
    throw std::invalid_argument("fec-mcast: calm_ops must be >= 1");
  }
  validate(config.retry, "fec-mcast");
  FecState& state = p.coll_state<FecState>(comm);
  state.history.set_limits(config.history_frames, config.aggregation_window,
                           "fec-mcast");
  state.config = config;
  state.working = -1.0;  // re-seed the ratchet from the new floor
  state.primed = false;
  state.calm = 0;
}

const FecConfig& fec_config(Proc& p, const Comm& comm) {
  return p.coll_state<FecState>(comm).config;
}

void bcast_fec_mcast(Proc& p, const Comm& comm, Buffer& buffer, int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  FecState& state = p.coll_state<FecState>(comm);
  if (comm.rank() == root) {
    send_root(p, comm, state, buffer, root);
    return;
  }
  buffer = recv_fec(p, comm, state, root);
}

const FecStats& fec_stats(Proc& p, const Comm& comm) {
  return p.coll_state<FecState>(comm).stats;
}

double fec_working_overhead(Proc& p, const Comm& comm) {
  FecState& state = p.coll_state<FecState>(comm);
  return state.working < 0.0 ? state.config.overhead : state.working;
}

}  // namespace mcmpi::coll
