#include "coll/recovery.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "coll/gf256.hpp"
#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace mcmpi::coll {

// ------------------------------------------------------------- framing

void write_frame_header(ByteWriter& w, const FrameHeader& h) {
  w.u32(h.context);
  w.i32(h.root_world);
  w.u64(h.seq);
}

FrameHeader read_frame_header(ByteReader& r) {
  FrameHeader h;
  h.context = r.u32();
  h.root_world = r.i32();
  h.seq = r.u64();
  return h;
}

void send_framed(mpi::Proc& p, mpi::McastChannel& ch, const FrameHeader& h,
                 std::span<const std::uint8_t> payload, net::FrameKind kind,
                 mpi::CostTier tier) {
  Buffer header;
  header.reserve(kMcastFrameHeaderBytes);
  ByteWriter w(header);
  write_frame_header(w, h);
  charge_mcast_send(p, payload.size(), tier);
  ch.send(header, payload, kind);
}

SimTime mcast_recv_cost(mpi::Proc& p, std::size_t bytes, mpi::CostTier tier) {
  return p.costs().recv_overhead(static_cast<std::int64_t>(bytes), tier);
}

void charge_mcast_recv(mpi::Proc& p, std::size_t bytes, mpi::CostTier tier) {
  p.self().delay(mcast_recv_cost(p, bytes, tier));
}

void charge_mcast_send(mpi::Proc& p, std::size_t bytes, mpi::CostTier tier) {
  p.self().delay(
      p.costs().send_overhead(static_cast<std::int64_t>(bytes), tier));
}

std::function<SimTime(const inet::UdpDatagram&)> expected_frame_charge(
    mpi::Proc& p, mpi::McastChannel& ch, mpi::CostTier tier) {
  return [&p, &ch, tier](const inet::UdpDatagram& dg) -> SimTime {
    ByteReader peek(dg.data);
    if (read_frame_header(peek).seq != ch.expected_seq()) {
      return kTimeZero;
    }
    return mcast_recv_cost(p, dg.data.size() - peek.position(), tier);
  };
}

// --------------------------------------------------------- retry policy

namespace {

[[noreturn]] void reject(std::string_view engine, const char* what) {
  throw std::invalid_argument(std::string(engine) + ": " + what);
}

}  // namespace

void validate(const RetryPolicy& policy, std::string_view engine) {
  if (policy.timeout <= kTimeZero) {
    reject(engine, "retry timeout must be > 0");
  }
  if (policy.backoff < 1.0) {
    reject(engine, "retry backoff must be >= 1");
  }
  if (policy.cap < policy.timeout) {
    reject(engine, "retry cap must be >= the retry timeout");
  }
  if (policy.max_retries < 0) {
    reject(engine, "max_retries must be >= 0");
  }
}

void RetryTimer::step(const std::function<std::string()>& diagnose) {
  if (policy_.max_retries > 0 && retries_ >= policy_.max_retries) {
    throw std::runtime_error(diagnose());
  }
  ++retries_;
  const auto scaled = static_cast<std::int64_t>(
      static_cast<double>(timeout_.count()) * policy_.backoff);
  timeout_ = std::min(SimTime{scaled}, policy_.cap);
}

// ----------------------------------------------------- retained history

void send_seqs(mpi::Proc& p, const mpi::Comm& comm, int dst, mpi::Tag tag,
               SeqFormat format, std::span<const std::uint64_t> seqs) {
  Buffer msg;
  ByteWriter w(msg);
  if (format == SeqFormat::kCounted) {
    w.u32(static_cast<std::uint32_t>(seqs.size()));
  }
  for (const std::uint64_t seq : seqs) {
    w.u64(seq);
  }
  p.send(comm, dst, tag, msg, net::FrameKind::kControl, mpi::CostTier::kRaw);
}

void RetainedHistory::set_limits(std::size_t frames,
                                 SimTime aggregation_window,
                                 std::string_view engine) {
  if (aggregation_window < kTimeZero) {
    reject(engine, "aggregation_window must be >= 0");
  }
  if (frames < 1) {
    reject(engine, "history_frames must be >= 1");
  }
  frames_ = frames;
  aggregation_window_ = aggregation_window;
}

void RetainedHistory::serve_nacks(mpi::Proc& p, const mpi::Comm& comm,
                                  mpi::Tag tag, SeqFormat format,
                                  SinkStats& stats) {
  if (channel_ != nullptr) {
    return;
  }
  channel_ = &p.mcast_channel(comm);
  // The sink always executes on the NACK's receiving rank — this rank — so
  // the shard captured here is the one whose counters it may touch.
  shard_ = &p.self().shard();
  stats_ = &stats;
  p.engine().set_sink(comm.context(), tag,
                      [this, format](mpi::Rank /*src*/, PayloadRef data) {
                        ByteReader r(data);
                        const std::uint32_t count =
                            format == SeqFormat::kCounted ? r.u32() : 1;
                        for (std::uint32_t i = 0; i < count; ++i) {
                          serve(r.u64());
                        }
                      });
}

void RetainedHistory::serve(std::uint64_t seq) {
  const auto it = history_.find(seq);
  if (it == history_.end()) {
    ++stats_->nacks_unserved;
    return;
  }
  const SimTime now = shard_->now();
  const auto last = last_resend_.find(seq);
  if (last != last_resend_.end() && now - last->second < aggregation_window_) {
    ++stats_->nacks_suppressed;
    ++shard_->counters().nacks_suppressed;
    return;
  }
  last_resend_[seq] = now;
  ++stats_->nacks_served;
  ++shard_->counters().retransmits;
  channel_->send(it->second, net::FrameKind::kData);
}

void RetainedHistory::multicast(mpi::Proc& p, mpi::McastChannel& ch,
                                PayloadRef framed) {
  history_.emplace(ch.expected_seq(), framed);
  while (history_.size() > frames_) {
    last_resend_.erase(history_.begin()->first);
    history_.erase(history_.begin());
  }
  charge_mcast_send(p, framed.size() - kMcastFrameHeaderBytes);
  ch.send(std::move(framed), net::FrameKind::kData);
  ch.advance_seq();
}

void RetainedHistory::multicast(mpi::Proc& p, const mpi::Comm& comm, int root,
                                std::span<const std::uint8_t> payload) {
  mpi::McastChannel& ch = p.mcast_channel(comm);
  PooledBuffer out =
      acquire_payload_buffer(kMcastFrameHeaderBytes + payload.size());
  ByteWriter w(out.bytes);
  write_frame_header(w, {comm.context(), comm.world_rank_of(root),
                         ch.expected_seq()});
  w.bytes(payload);
  multicast(p, ch, PayloadRef::adopt(std::move(out)));
}

// --------------------------------------------------------- gap receiver

Buffer recv_in_order(mpi::Proc& p, const mpi::Comm& comm, EarlyFrames& early,
                     const RetryPolicy& policy, int nack_to, mpi::Tag tag,
                     NackStats& stats, std::string_view engine, int root) {
  mpi::McastChannel& ch = p.mcast_channel(comm);
  const std::uint64_t expected = ch.expected_seq();
  const SimTime start = p.self().now();
  RetryTimer timer(policy);
  for (;;) {
    if (const auto it = early.find(expected); it != early.end()) {
      Buffer payload = it->second.to_buffer();
      early.erase(it);
      ch.advance_seq();
      charge_mcast_recv(p, payload.size());
      return payload;
    }
    auto datagram = ch.socket().recv_until_charged(
        p.self(), p.self().now() + timer.timeout(),
        expected_frame_charge(p, ch));
    if (!datagram.has_value()) {
      // Gap: request exactly the missing frame.
      timer.step([&] {
        std::ostringstream os;
        os << engine << ": rank " << comm.rank() << " gave up on seq "
           << expected << " from root " << root << " after "
           << timer.retries() << " NACKs to rank " << nack_to << " over "
           << to_microseconds(p.self().now() - start)
           << " us — the frame is unreachable, lost beyond what NACK "
              "recovery can absorb, or evicted from the retained history; "
              "raise max_retries, the retry cap or history_frames";
        return os.str();
      });
      ++stats.nacks_sent;
      ++p.self().shard().counters().nacks_sent;
      send_seqs(p, comm, nack_to, tag, SeqFormat::kSingle, {&expected, 1});
      continue;
    }
    ByteReader r(datagram->datagram.data);
    const std::uint64_t seq = read_frame_header(r).seq;
    if (seq < expected) {
      continue;  // duplicate
    }
    // Keep the zero-copy view; the byte copy happens only at delivery.
    PayloadRef payload = datagram->datagram.data.slice(r.position());
    if (seq > expected) {
      early.emplace(seq, std::move(payload));
      continue;  // keep hunting for the gap frame
    }
    ch.advance_seq();
    if (!datagram->charge_absorbed) {
      charge_mcast_recv(p, payload.size());
    }
    return payload.to_buffer();
  }
}

// -------------------------------------------------------- window decode

bool has_row(const ParityRows& parity, int row) {
  return std::any_of(parity.begin(), parity.end(),
                     [row](const auto& pr) { return pr.first == row; });
}

void decode_window(std::span<const std::span<const std::uint8_t>> data,
                   ParityRows& parity, std::span<const int> missing,
                   std::span<const std::span<std::uint8_t>> outs,
                   sim::SchedCounters& counters) {
  MC_EXPECTS(parity.size() >= missing.size());
  std::sort(parity.begin(), parity.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<gf256::ParityRow> prows;
  prows.reserve(missing.size());
  for (std::size_t t = 0; t < missing.size(); ++t) {
    prows.push_back({parity[t].first, parity[t].second.view()});
  }
  gf256::decode(data, prows, missing, outs);
  ++counters.fec_decodes;
  counters.parity_used += missing.size();
}

}  // namespace mcmpi::coll
