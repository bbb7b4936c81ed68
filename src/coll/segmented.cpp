#include "coll/segmented.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "coll/gf256.hpp"
#include "coll/limits.hpp"
#include "coll/mcast.hpp"
#include "coll/mcast_scatter.hpp"
#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll {

using mpi::Comm;
using mpi::Proc;

namespace {

/// Full framing of a segmented datagram: the 16 B (context, root, seq)
/// multicast header followed by the 32 B chunk sub-header.
constexpr std::size_t kCombinedHeaderBytes =
    kMcastFrameHeaderBytes + kSegHeaderBytes;

struct SegHeader : FrameHeader {  // seq: the per-lane channel sequence
  // Chunk number, 0-based.  A parity frame of the FEC recovery mode sets
  // kParityIndexBit over its parity row, and `offset` carries its
  // generation; data frames never set the bit (the u32 count caps a
  // stream far below 2^31 chunks), so FEC off keeps the wire format.
  std::uint32_t index = 0;
  std::uint32_t count = 0;    // total chunks of this stream
  std::uint64_t offset = 0;   // chunk's first byte within the stream
  std::uint64_t length = 0;   // chunk payload bytes
  std::uint64_t total = 0;    // stream bytes (receivers size output from it)
};

Buffer seg_header_bytes(const SegHeader& h) {
  Buffer out;
  out.reserve(kCombinedHeaderBytes);
  ByteWriter w(out);
  write_frame_header(w, h);
  w.u32(h.index);
  w.u32(h.count);
  w.u64(h.offset);
  w.u64(h.length);
  w.u64(h.total);
  return out;
}

SegHeader parse_seg_header(ByteReader& r) {
  SegHeader h{read_frame_header(r)};
  h.index = r.u32();
  h.count = r.u32();
  h.offset = r.u64();
  h.length = r.u64();
  h.total = r.u64();
  return h;
}

/// Appends to `out` the sub-spans of `stream` covering stream bytes
/// [offset, offset + length) — the gather-framing of one chunk, with zero
/// assembly copies regardless of how many source buffers compose it.
void collect_chunk_parts(
    std::span<const std::span<const std::uint8_t>> stream, std::size_t offset,
    std::size_t length, std::vector<std::span<const std::uint8_t>>& out) {
  std::size_t pos = 0;
  for (const auto& part : stream) {
    if (length == 0) {
      break;
    }
    const std::size_t part_end = pos + part.size();
    if (part_end > offset) {
      const std::size_t lo = offset - pos;
      const std::size_t n = std::min(part.size() - lo, length);
      out.push_back(part.subspan(lo, n));
      offset += n;
      length -= n;
    }
    pos = part_end;
  }
  MC_ASSERT_MSG(length == 0, "chunk range exceeds the stream");
}

/// Root side: segments the logical stream (a concatenation of spans) into
/// chunks, stripes them over the lanes, and keeps up to `window` chunks in
/// flight per lane while collecting per-chunk acks and retransmitting on
/// timeout.  Returns once every chunk is fully acknowledged.
void segmented_send(Proc& p, const Comm& comm, int root,
                    std::span<const std::span<const std::uint8_t>> stream,
                    const SegmentedConfig& cfg) {
  const int receivers = comm.size() - 1;
  MC_EXPECTS(receivers > 0);
  std::size_t total = 0;
  for (const auto& part : stream) {
    total += part.size();
  }
  const std::size_t chunk_bytes =
      segmented_effective_chunk(cfg, p.mcast_recv_buffer());
  const std::uint32_t n_chunks =
      total == 0 ? 1
                 : static_cast<std::uint32_t>((total + chunk_bytes - 1) /
                                              chunk_bytes);
  sim::SchedCounters& counters = p.self().shard().counters();

  struct ChunkState {
    std::size_t offset = 0;
    std::size_t length = 0;
    std::uint64_t seq = 0;  // lane sequence of the FIRST transmission
    int lane = 0;
    int acks = 0;
    bool retired = false;
  };
  std::vector<ChunkState> chunks(n_chunks);
  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    chunks[i].offset = static_cast<std::size_t>(i) * chunk_bytes;
    chunks[i].length = std::min(chunk_bytes, total - chunks[i].offset);
    chunks[i].lane = static_cast<int>(i % static_cast<std::uint32_t>(cfg.lanes));
  }

  std::vector<int> in_flight(static_cast<std::size_t>(cfg.lanes), 0);
  std::uint32_t sent = 0;
  std::uint32_t retired_count = 0;
  std::uint64_t live = 0;  // sent, not yet retired — across all lanes
  const std::uint64_t total_acks =
      static_cast<std::uint64_t>(n_chunks) * static_cast<std::uint64_t>(receivers);
  std::uint64_t acks_consumed = 0;
  std::shared_ptr<mpi::RecvRequest> request;

  // Gather-send of one chunk or parity frame: `h`'s framing into the
  // header slot parts[0], then the payload parts after it.
  std::vector<std::span<const std::uint8_t>> parts;
  const auto send_parts = [&](mpi::McastChannel& ch, const SegHeader& h) {
    const Buffer header = seg_header_bytes(h);
    charge_mcast_send(p, h.length);
    parts.front() = header;
    ch.send_parts(parts, net::FrameKind::kData);
  };
  const auto transmit = [&](std::uint32_t i, bool first) {
    ChunkState& c = chunks[i];
    mpi::McastChannel& ch = p.mcast_channel(comm, c.lane);
    if (first) {
      c.seq = ch.expected_seq();
    }
    // A retransmission reuses the original lane sequence, so receivers
    // that already consumed the chunk skip it as a stale duplicate.
    const SegHeader h{{comm.context(), comm.world_rank_of(root), c.seq},
                      i, n_chunks, c.offset, c.length, total};
    parts.assign(1, {});
    collect_chunk_parts(stream, c.offset, c.length, parts);
    send_parts(ch, h);
    if (first) {
      ch.advance_seq();
      ++counters.chunk_sent;
      ++in_flight[static_cast<std::size_t>(c.lane)];
      ++live;
      counters.chunk_peak_window = std::max(counters.chunk_peak_window, live);
    } else {
      ++counters.chunk_retried;
      ++counters.retransmits;
    }
  };

  // FEC recovery mode: after the last FIRST transmission of a per-lane
  // generation (`window` data chunks, or the lane's partial tail), multicast
  // r parity frames over that generation.  Parity is fire-and-forget — it
  // consumes lane sequence numbers (so receivers can account for the slots)
  // but is never acked, tracked, or retransmitted: a lost parity frame
  // costs nothing beyond falling back to the ack/timeout machinery.
  const int fec_r = segmented_fec_parity(cfg);
  const auto send_gen_parity = [&](std::uint32_t i) {
    const int lane = chunks[i].lane;
    const std::uint32_t j = i / static_cast<std::uint32_t>(cfg.lanes);
    const std::uint32_t g = j / static_cast<std::uint32_t>(cfg.window);
    const std::uint32_t k0 =
        g * static_cast<std::uint32_t>(cfg.window * cfg.lanes) +
        static_cast<std::uint32_t>(lane);
    const std::uint32_t gen_size =
        (i - k0) / static_cast<std::uint32_t>(cfg.lanes) + 1;
    const std::size_t plen = chunks[k0].length;  // longest row of the gen
    mpi::McastChannel& ch = p.mcast_channel(comm, lane);
    for (int pr = 0; pr < fec_r; ++pr) {
      // Parity scratch from the payload pool — one allocation per frame,
      // recycled across generations like every other wire buffer.
      PooledBuffer scratch = acquire_payload_buffer(plen);
      scratch.bytes.assign(plen, 0);
      for (std::uint32_t q = 0; q < gen_size; ++q) {
        const std::uint8_t coef = gf256::parity_coef(
            pr, static_cast<int>(q), static_cast<int>(gen_size));
        const ChunkState& c =
            chunks[k0 + q * static_cast<std::uint32_t>(cfg.lanes)];
        parts.clear();
        collect_chunk_parts(stream, c.offset, c.length, parts);
        std::size_t pos = 0;
        for (const auto& part : parts) {
          gf256::mul_acc(std::span(scratch.bytes).subspan(pos, part.size()),
                         part, coef);
          pos += part.size();
        }
      }
      const SegHeader h{{comm.context(), comm.world_rank_of(root),
                         ch.expected_seq()},
                        kParityIndexBit | static_cast<std::uint32_t>(pr),
                        n_chunks,
                        g,
                        plen,
                        total};
      parts.assign({{}, scratch.bytes});
      send_parts(ch, h);
      ch.advance_seq();
      ++counters.parity_sent;
    }
  };

  RetryTimer timer(cfg.retry);  // retries: consecutive ack-less deadlines
  const auto consume_one_ack = [&] {
    for (;;) {
      const auto ack = p.wait_until(request, p.self().now() + timer.timeout(),
                                    nullptr, mpi::CostTier::kRaw);
      if (ack.has_value()) {
        timer.reset();
        ByteReader r(*ack);
        const std::uint32_t index = r.u32();
        MC_ASSERT_MSG(index < n_chunks, "ack for an unknown chunk");
        ChunkState& c = chunks[index];
        MC_ASSERT_MSG(!c.retired, "ack for an already-retired chunk");
        ++counters.chunk_acked;
        ++acks_consumed;
        if (++c.acks == receivers) {
          c.retired = true;
          ++retired_count;
          --in_flight[static_cast<std::size_t>(c.lane)];
          --live;
        }
        if (acks_consumed < total_acks) {
          request = p.irecv(comm, mpi::kAnySource, mpi::kTagChunkAck);
        }
        return;
      }
      // Timeout: somebody missed a chunk (drop or slow drain) — recover the
      // oldest outstanding one and keep waiting, backing the deadline off
      // so retransmissions stop colliding with the acks they provoke.
      timer.step([&] {
        std::ostringstream os;
        os << "mcast-segmented: root rank " << root << " gave up after "
           << timer.retries() << " consecutive ack-less timeouts ("
           << retired_count << " of " << n_chunks
           << " chunks retired) — loss rate exceeds what the window can "
              "absorb; raise max_retries or the retry cap";
        return os.str();
      });
      for (std::uint32_t i = 0; i < sent; ++i) {
        if (!chunks[i].retired) {
          transmit(i, false);
          break;
        }
      }
    }
  };

  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    // Sliding window: stall only when THIS chunk's lane is saturated; acks
    // consumed here retire earlier chunks while later ones are in flight.
    while (in_flight[static_cast<std::size_t>(chunks[i].lane)] >= cfg.window) {
      consume_one_ack();
    }
    transmit(i, true);
    ++sent;
    if (fec_r > 0) {
      const std::uint32_t j = i / static_cast<std::uint32_t>(cfg.lanes);
      const bool lane_tail =
          i + static_cast<std::uint32_t>(cfg.lanes) >= n_chunks;
      if ((j + 1) % static_cast<std::uint32_t>(cfg.window) == 0 || lane_tail) {
        send_gen_parity(i);
      }
    }
    if (request == nullptr) {
      request = p.irecv(comm, mpi::kAnySource, mpi::kTagChunkAck);
    }
  }
  while (retired_count < n_chunks) {
    consume_one_ack();
  }
}

/// Receiver side: consumes chunks 0..count-1 in index order (chunk k on
/// lane k mod lanes), hands each to `sink`, and acks it to the root over
/// the raw path.  The stream geometry is learned from the first chunk.
///
/// FEC recovery mode (fec_overhead > 0): the receiver additionally keeps
/// the CURRENT generation's consumed rows and any parity frames for it;
/// the moment any generation-size subset of data + parity is on hand, the
/// missing chunks are reconstructed, delivered, and acked in-window — no
/// retransmit-timeout wait.  Parity beyond the losses is ignored, losses
/// beyond the parity fall back to the root's ack/timeout recovery, and a
/// decode is a pure function of the delivered-chunk set, so the output is
/// bit-identical however the race between parity and retransmission lands.
void segmented_recv(
    Proc& p, const Comm& comm, int root, const SegmentedConfig& cfg,
    const std::function<void(const SegHeader&, PayloadRef)>& sink) {
  std::uint32_t n_chunks = 1;  // corrected by the first header
  const std::uint32_t lanes_u = static_cast<std::uint32_t>(cfg.lanes);
  const std::uint32_t window_u = static_cast<std::uint32_t>(cfg.window);
  const int fec_r = segmented_fec_parity(cfg);
  // Receivers derive the chunk size exactly like the root (the config is
  // communicator-uniform), so a reconstructed chunk's offset and length
  // never depend on having seen its header.
  const std::size_t chunk_bytes =
      segmented_effective_chunk(cfg, p.mcast_recv_buffer());
  bool have_geometry = false;
  std::uint64_t stream_total = 0;
  sim::SchedCounters& counters = p.self().shard().counters();
  // Ahead-of-sequence chunks (reordered, or resent after a dropped
  // predecessor) are stashed per lane and consumed in lane-sequence order —
  // a dropped or late frame never crashes the stream.
  std::vector<std::map<std::uint64_t, std::pair<SegHeader, PayloadRef>>>
      stash(static_cast<std::size_t>(cfg.lanes));
  // Per-lane FEC generation state: consumed rows of the CURRENT generation
  // (decode inputs must outlive their delivery) and its parity frames.
  struct FecLane {
    std::int64_t gen = -1;
    std::vector<PayloadRef> rows;  // by generation position, consumed so far
    ParityRows parity;
  };
  std::vector<FecLane> fec(static_cast<std::size_t>(cfg.lanes));
  // Every header, parity included, carries the stream geometry.
  const auto learn_geometry = [&](const SegHeader& h) {
    n_chunks = h.count;
    stream_total = h.total;
    have_geometry = true;
  };
  const auto consume = [&](const SegHeader& h, PayloadRef body,
                           mpi::McastChannel& ch, std::uint32_t k) {
    MC_ASSERT_MSG(h.context == comm.context(), "context mismatch");
    MC_ASSERT_MSG(h.root_world == comm.world_rank_of(root),
                  "segmented stream root mismatch");
    MC_ASSERT_MSG(h.index == k, "chunk index out of stream order");
    MC_ASSERT_MSG(h.count >= 1 && h.index < h.count, "bad chunk count");
    MC_ASSERT_MSG(body.size() == h.length, "chunk length mismatch");
    learn_geometry(h);
    if (fec_r > 0) {
      FecLane& fl = fec[static_cast<std::size_t>(ch.lane())];
      fl.rows[(k / lanes_u) % window_u] = body;
    }
    sink(h, std::move(body));
    ch.advance_seq();
    // Per-chunk ack over the raw path (the ORNL discipline of
    // ack_mcast.cpp, applied per chunk instead of per broadcast).
    Buffer ack;
    ByteWriter w(ack);
    w.u32(h.index);
    p.send(comm, root, mpi::kTagChunkAck, ack, net::FrameKind::kControl,
           mpi::CostTier::kRaw);
  };
  // Erasure recovery: when the chunk the cursor waits on was lost but the
  // generation's surviving rows (consumed + stashed + parity) reach the
  // generation size, reconstruct every missing row — the cursor's chunk is
  // delivered immediately, later ones are planted in the stash under the
  // lane sequences their originals carried.
  const auto try_reconstruct =
      [&](std::uint32_t k, int lane, mpi::McastChannel& ch,
          std::map<std::uint64_t, std::pair<SegHeader, PayloadRef>>&
              lane_stash) -> bool {
    FecLane& fl = fec[static_cast<std::size_t>(lane)];
    if (!have_geometry || fl.parity.empty()) {
      return false;
    }
    const std::uint32_t j = k / lanes_u;
    const std::uint32_t g = j / window_u;
    const std::uint32_t gen_pos = j % window_u;
    const std::uint32_t lane_count =
        (n_chunks - static_cast<std::uint32_t>(lane) + lanes_u - 1) / lanes_u;
    const std::uint32_t gen_size =
        std::min(window_u, lane_count - g * window_u);
    std::vector<const PayloadRef*> present(gen_size, nullptr);
    std::uint32_t stash_rows = 0;
    for (const auto& [seq, entry] : lane_stash) {
      const std::uint32_t jj = entry.first.index / lanes_u;
      if (jj / window_u != g) {
        continue;
      }
      const std::uint32_t q = jj % window_u;
      if (present[q] == nullptr) {
        present[q] = &entry.second;
        ++stash_rows;
      }
    }
    if (gen_pos + stash_rows + fl.parity.size() < gen_size) {
      return false;  // not enough survivors yet — keep receiving
    }
    std::vector<int> missing;
    for (std::uint32_t q = gen_pos; q < gen_size; ++q) {
      if (present[q] == nullptr) {
        missing.push_back(static_cast<int>(q));
      }
    }
    if (missing.empty()) {
      return false;  // cursor chunk is stashed; the normal path consumes it
    }
    std::vector<std::span<const std::uint8_t>> dspans(gen_size);
    for (std::uint32_t q = 0; q < gen_pos; ++q) {
      dspans[q] = fl.rows[q].view();
    }
    for (std::uint32_t q = gen_pos; q < gen_size; ++q) {
      if (present[q] != nullptr) {
        dspans[q] = present[q]->view();
      }
    }
    // The rebuilt rows, framed as their originals were: the cursor's chunk
    // is consumed below, later ones are stashed under their lane sequences.
    const std::uint64_t base = ch.expected_seq();
    std::vector<SegHeader> heads;
    std::vector<Buffer> rebuilt(missing.size());
    std::vector<std::span<std::uint8_t>> outs;
    for (std::size_t t = 0; t < missing.size(); ++t) {
      const auto q = static_cast<std::uint32_t>(missing[t]);
      const std::uint32_t kk =
          (g * window_u + q) * lanes_u + static_cast<std::uint32_t>(lane);
      const std::size_t off = static_cast<std::size_t>(kk) * chunk_bytes;
      rebuilt[t].resize(std::min(
          chunk_bytes, static_cast<std::size_t>(stream_total) - off));
      outs.emplace_back(rebuilt[t]);
      heads.push_back({{comm.context(), comm.world_rank_of(root),
                        base + (q - gen_pos)},
                       kk, n_chunks, off, rebuilt[t].size(), stream_total});
    }
    decode_window(dspans, fl.parity, missing, outs, counters);
    // Parity never matches the expected data slot, so it was never charged
    // at arrival; pay for the rows the decode consumed.
    for (std::size_t t = 0; t < missing.size(); ++t) {
      charge_mcast_recv(p, kSegHeaderBytes + fl.parity[t].second.size());
    }
    const bool delivered = missing.front() == static_cast<int>(gen_pos);
    for (std::size_t t = 0; t < missing.size(); ++t) {
      PayloadRef body{std::move(rebuilt[t])};
      if (t == 0 && delivered) {
        consume(heads[t], std::move(body), ch, k);
      } else {
        lane_stash.try_emplace(heads[t].seq, heads[t], std::move(body));
      }
    }
    return delivered;
  };
  for (std::uint32_t k = 0; k < n_chunks; ++k) {
    const int lane = static_cast<int>(k % lanes_u);
    mpi::McastChannel& ch = p.mcast_channel(comm, lane);
    auto& lane_stash = stash[static_cast<std::size_t>(lane)];
    if (fec_r > 0) {
      const auto g = static_cast<std::int64_t>((k / lanes_u) / window_u);
      FecLane& fl = fec[static_cast<std::size_t>(lane)];
      if (fl.gen != g) {
        if (fl.gen >= 0) {
          // Entering a new generation: skip the previous one's parity
          // slots.  Parity is fire-and-forget, so waiting on those
          // sequences could deadlock — the frames may simply never exist.
          for (int i = 0; i < fec_r; ++i) {
            ch.advance_seq();
          }
        }
        fl.gen = g;
        fl.rows.assign(window_u, PayloadRef{});
        fl.parity.clear();
      }
    }
    for (;;) {
      const auto stashed = lane_stash.find(ch.expected_seq());
      if (stashed != lane_stash.end()) {
        auto [h, body] = std::move(stashed->second);
        lane_stash.erase(stashed);
        // The stashed delivery was never charged at arrival; pay the
        // receive overhead at consumption, like the !charged path below.
        charge_mcast_recv(p, kSegHeaderBytes + h.length);
        consume(h, std::move(body), ch, k);
        break;
      }
      if (fec_r > 0 && try_reconstruct(k, lane, ch, lane_stash)) {
        break;
      }
      // Stale duplicates (skipped) and ahead-of-sequence chunks (stashed,
      // charged at consumption) wake uncharged.
      auto [d, charged] =
          ch.socket().recv_charged(p.self(), expected_frame_charge(p, ch));
      ByteReader r(d.data);
      const SegHeader h = parse_seg_header(r);
      if (h.seq < ch.expected_seq()) {
        continue;  // stale duplicate (retransmission of a consumed chunk)
      }
      PayloadRef body = d.data.slice(r.position());
      if ((h.index & kParityIndexBit) != 0) {
        // Parity frame: even a parity-first arrival teaches the receiver
        // enough to decode.  Keep it only for the lane's current
        // generation; anything else is dropped — correctness never depends
        // on parity.
        learn_geometry(h);
        if (fec_r > 0) {
          FecLane& fl = fec[static_cast<std::size_t>(lane)];
          const int pr = static_cast<int>(h.index & ~kParityIndexBit);
          if (static_cast<std::int64_t>(h.offset) == fl.gen &&
              !has_row(fl.parity, pr)) {
            fl.parity.emplace_back(pr, std::move(body));
          }
        }
        continue;
      }
      if (h.seq > ch.expected_seq()) {
        // Learn the geometry before chunk 0 lands, so an early loss is
        // still reconstructable.
        learn_geometry(h);
        lane_stash.try_emplace(h.seq, h, std::move(body));
        continue;
      }
      if (!charged) {
        charge_mcast_recv(p, kSegHeaderBytes + h.length);
      }
      consume(h, std::move(body), ch, k);
      break;
    }
  }
  if (fec_r > 0) {
    // The k loop never crosses the final generation's parity slots; advance
    // past them so every lane's sequence matches the root for the next
    // collective on these channels.
    for (std::uint32_t lane = 0; lane < lanes_u && lane < n_chunks; ++lane) {
      mpi::McastChannel& ch = p.mcast_channel(comm, static_cast<int>(lane));
      for (int i = 0; i < fec_r; ++i) {
        ch.advance_seq();
      }
    }
  }
}

/// Receives a whole segmented stream from `root` into `out`, each chunk
/// copied once, straight into its final place (no reassembly staging).
void segmented_recv_into(Proc& p, const Comm& comm, int root,
                         const SegmentedConfig& cfg, Buffer& out) {
  bool sized = false;
  segmented_recv(p, comm, root, cfg, [&](const SegHeader& h, PayloadRef body) {
    if (!sized) {
      out.resize(h.total);
      sized = true;
    }
    body.copy_to(std::span(out).subspan(static_cast<std::size_t>(h.offset),
                                        h.length));
  });
}

/// Shared preamble of every segmented collective: every rank creates ALL
/// lane channels (readiness on every group it may hear), then announces
/// readiness with the binomial scout gather toward the stream root.
void segmented_sync(Proc& p, const Comm& comm, int root,
                    const SegmentedConfig& cfg) {
  for (int lane = 0; lane < cfg.lanes; ++lane) {
    (void)p.mcast_channel(comm, lane);
  }
  scout_gather_binary(p, comm, root);
}

}  // namespace

int segmented_fec_parity(const SegmentedConfig& config) {
  if (!(config.fec_overhead > 0.0)) {
    return 0;
  }
  const int raw = static_cast<int>(
      std::ceil(static_cast<double>(config.window) * config.fec_overhead));
  return std::clamp(raw, 1, gf256::max_parity(config.window));
}

void set_segmented_config(Proc& p, const Comm& comm,
                          const SegmentedConfig& config) {
  MC_EXPECTS_MSG(config.chunk_bytes >= 1, "chunk size must be positive");
  MC_EXPECTS_MSG(config.window >= 1, "window must be at least 1");
  MC_EXPECTS_MSG(
      config.lanes >= 1 && config.lanes <= mpi::CommInfo::kMaxMcastLanes,
      "lane count out of range");
  validate(config.retry, "mcast-segmented");
  MC_EXPECTS_MSG(config.fec_overhead >= 0.0 && config.fec_overhead <= 1.0,
                 "fec_overhead must be in [0, 1]");
  MC_EXPECTS_MSG(config.fec_overhead == 0.0 || config.window <= 128,
                 "FEC needs window <= 128 (generation + parity in GF(256))");
  p.coll_state<SegmentedConfig>(comm) = config;
}

const SegmentedConfig& segmented_config(Proc& p, const Comm& comm) {
  return p.coll_state<SegmentedConfig>(comm);
}

std::size_t segmented_effective_chunk(const SegmentedConfig& config,
                                      std::size_t rcvbuf_bytes) {
  std::size_t chunk = config.chunk_bytes;
  // Framed chunk must clear the fragment-offset datagram ceiling…
  chunk = std::min(chunk, kMaxMcastDatagram - kCombinedHeaderBytes);
  // …and a full window of framed chunks — plus the generation's parity
  // frames when FEC is on, which share the same lane buffer — must fit one
  // lane's receive buffer (the enqueue limit counts framing + payload), or
  // the pipeline would overrun the very buffer it is pacing.
  const std::size_t window_share =
      rcvbuf_bytes / static_cast<std::size_t>(config.window +
                                              segmented_fec_parity(config));
  MC_EXPECTS_MSG(window_share > kCombinedHeaderBytes,
                 "receive buffer too small for the window");
  chunk = std::min(chunk, window_share - kCombinedHeaderBytes);
  return std::max<std::size_t>(chunk, 1);
}

void bcast_mcast_segmented(Proc& p, const Comm& comm, Buffer& buffer,
                           int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  if (comm.size() == 1) {
    return;
  }
  const SegmentedConfig cfg = segmented_config(p, comm);
  segmented_sync(p, comm, root, cfg);
  if (comm.rank() == root) {
    const std::span<const std::uint8_t> stream[] = {buffer};
    segmented_send(p, comm, root, stream, cfg);
    return;
  }
  segmented_recv_into(p, comm, root, cfg, buffer);
}

std::vector<Buffer> allgather_mcast_segmented(
    Proc& p, const Comm& comm, std::span<const std::uint8_t> data) {
  const int size = comm.size();
  std::vector<Buffer> blocks(static_cast<std::size_t>(size));
  blocks[static_cast<std::size_t>(comm.rank())].assign(data.begin(),
                                                       data.end());
  if (size == 1) {
    return blocks;
  }
  const SegmentedConfig cfg = segmented_config(p, comm);
  // N rounds in rank order, each a fully acked segmented stream: round
  // r+1's scouts cannot precede round r's final acks, so rounds never
  // overrun a lagging receiver (the lockstep guarantee, kept per stream).
  for (int r = 0; r < size; ++r) {
    segmented_sync(p, comm, r, cfg);
    if (comm.rank() == r) {
      const std::span<const std::uint8_t> stream[] = {data};
      segmented_send(p, comm, r, stream, cfg);
      continue;
    }
    segmented_recv_into(p, comm, r, cfg, blocks[static_cast<std::size_t>(r)]);
  }
  return blocks;
}

Buffer scatter_mcast_segmented(Proc& p, const Comm& comm,
                               const std::vector<Buffer>& chunks, int root) {
  MC_EXPECTS(root >= 0 && root < comm.size());
  const int size = comm.size();
  if (size == 1) {
    MC_EXPECTS(chunks.size() == 1);
    return chunks[0];
  }
  const SegmentedConfig cfg = segmented_config(p, comm);
  segmented_sync(p, comm, root, cfg);
  const std::size_t table_bytes = block_table_bytes(size);

  if (comm.rank() == root) {
    MC_EXPECTS_MSG(chunks.size() == static_cast<std::size_t>(size),
                   "scatter needs comm.size() chunks at the root");
    Buffer table;
    table.reserve(table_bytes);
    ByteWriter w(table);
    w.u32(static_cast<std::uint32_t>(size));
    for (const Buffer& b : chunks) {
      w.u64(b.size());
    }
    // Receivers locate their range from the table, so it must land whole
    // in the first chunk of the stream.
    MC_EXPECTS_MSG(
        segmented_effective_chunk(cfg, p.mcast_recv_buffer()) >= table.size(),
        "chunk size below the scatter table — raise chunk_bytes");
    std::vector<std::span<const std::uint8_t>> stream;
    stream.reserve(chunks.size() + 1);
    stream.push_back(table);
    for (const Buffer& b : chunks) {
      stream.push_back(b);
    }
    segmented_send(p, comm, root, stream, cfg);
    return chunks[static_cast<std::size_t>(root)];
  }

  Buffer table(table_bytes);
  Buffer own;
  bool located = false;
  std::size_t my_begin = 0;
  std::size_t my_end = 0;
  segmented_recv(p, comm, root, cfg, [&](const SegHeader& h, PayloadRef body) {
    const std::size_t offset = static_cast<std::size_t>(h.offset);
    if (offset < table_bytes) {
      const std::size_t n =
          std::min<std::size_t>(table_bytes - offset, h.length);
      body.slice(0, n).copy_to(std::span(table).subspan(offset, n));
    }
    if (!located) {
      // The root guarantees the table fits chunk 0 (asserted above), so
      // the first delivery locates this rank's range.
      MC_ASSERT_MSG(offset + h.length >= table_bytes,
                    "first chunk did not cover the scatter table");
      ByteReader r(table);
      MC_ASSERT(r.u32() == static_cast<std::uint32_t>(size));
      std::size_t off = table_bytes;
      for (int i = 0; i < size; ++i) {
        const std::size_t len = static_cast<std::size_t>(r.u64());
        if (i == comm.rank()) {
          my_begin = off;
          my_end = off + len;
        }
        off += len;
      }
      MC_ASSERT_MSG(off == h.total, "scatter table does not match the stream");
      own.resize(my_end - my_begin);
      located = true;
    }
    // Keep only the overlap with this rank's block — everything else of
    // the shared stream is discarded without a copy.
    const std::size_t lo = std::max(offset, my_begin);
    const std::size_t hi = std::min(offset + h.length, my_end);
    if (lo < hi) {
      body.slice(lo - offset, hi - lo)
          .copy_to(std::span(own).subspan(lo - my_begin, hi - lo));
    }
  });
  return own;
}

}  // namespace mcmpi::coll
