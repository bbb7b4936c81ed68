// loopback_bcast: the paper's binary scout broadcast on real UDP sockets
// over 127.0.0.1 multicast, one thread per rank.  Traffic is loopback, not
// a physical link: the figures measure the socket path and the kernel, and
// the simulated twin of the same schedule supplies the simulated metrics.

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <span>

#include "common/bytes.hpp"
#include "posix/real_cluster.hpp"
#include "posix/socket.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace mcmpi;

constexpr int kRanks = 4;
constexpr std::size_t kReps = 1000;
constexpr std::size_t kMaxBytes = 20000;
/// A block runs one slice of the schedule, so a run holds many short blocks
/// (each with its own setup) instead of a few long ones.
constexpr std::size_t kSlices = 4;
constexpr std::size_t kSliceReps = kReps / kSlices;
constexpr std::size_t kMinBlocks = 2 * kSlices + 1;
constexpr std::size_t kMaxBlocks = 1000;

std::vector<BcastItem> schedule(std::uint64_t seed) {
  Rng rng(seed * 0xd1b54a32d192ed03ull + 5);
  std::vector<BcastItem> items(kReps);
  const double top = std::log(static_cast<double>(kMaxBytes) + 1.0);
  for (BcastItem& it : items) {
    // 0 .. kMaxBytes, log-distributed so small messages stay common.
    it.bytes = std::min<std::size_t>(
        kMaxBytes,
        static_cast<std::size_t>(std::exp(top * rng.uniform())) - 1);
    it.root = static_cast<int>(rng.below(kRanks));
    it.payload = pattern_payload(rng.next(), it.bytes);
  }
  return items;
}

/// Entry stamp of a rank that does not start the timed span.
constexpr double kNoEntry = std::numeric_limits<double>::infinity();

struct Stamps {
  std::vector<double> in, out;  // [rep * kRanks + rank]
  Stamps() : in(kSliceReps * kRanks, 0.0), out(kSliceReps * kRanks, 0.0) {}
  /// Slowest rank's completion: max exit minus min entry, microseconds.
  std::vector<double> latencies_us() const {
    std::vector<double> us;
    for (std::size_t i = 0; i < kSliceReps; ++i) {
      double first = 1e300, last = 0.0;
      for (int r = 0; r < kRanks; ++r) {
        first = std::min(first, in[i * kRanks + static_cast<std::size_t>(r)]);
        last = std::max(last, out[i * kRanks + static_cast<std::size_t>(r)]);
      }
      us.push_back((last - first) * 1e6);
    }
    return us;
  }
};

struct BlockOut {
  Block host;
  bool threw = false;
};

posix::RealClusterConfig cluster_config() {
  posix::RealClusterConfig c;
  c.num_ranks = kRanks;
  c.mcast_group = 0xEF0101E7u;  // 239.1.1.231
  return c;
}

/// One block: build the cluster, warm it up, then run one slice of the
/// schedule (items `first` ..) with a barrier before each broadcast
/// (outside the timed span).
BlockOut block(std::span<const BcastItem> items, std::size_t first,
               Failures& failures, bool mcast_leg_only) {
  BlockOut out;
  const double t0 = wall_s();
  posix::RealCluster cluster(cluster_config());
  const double t1 = wall_s();
  out.host.construct_s = t1 - t0;
  Stamps s;
  try {
    cluster.run([&](posix::RealRank& r) {
      for (int root = 0; root < kRanks; ++root) {
        std::vector<std::uint8_t> d(r.rank() == root ? 1000 : 0, 1);
        r.bcast_binary(d, root);
      }
      r.barrier();
    });
    out.host.warmup_s = wall_s() - t1;
    const double ref_before = socket_reference_s();
    const double w0 = wall_s();
    const double c0 = cpu_s();
    cluster.run([&](posix::RealRank& r) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        const BcastItem& it = items[i];
        const std::size_t slot = i * kRanks + static_cast<std::size_t>(r.rank());
        r.barrier();
        std::vector<std::uint8_t> data;
        if (r.rank() == it.root) {
          data = it.payload;
        }
        if (!mcast_leg_only) {
          s.in[slot] = wall_s();
          r.bcast_binary(data, it.root);
        } else if (r.rank() == it.root) {
          // The multicast leg alone.  Each receiver first reports ready,
          // point to point and untimed: without that, the root's datagram
          // can overtake the barrier's release in a receiver's socket.
          for (int p = 0; p < kRanks; ++p) {
            if (p != it.root) {
              (void)r.recv_p2p(p);
            }
          }
          s.in[slot] = wall_s();
          r.mcast_send(data);
        } else {
          s.in[slot] = kNoEntry;  // the leg starts at the root's send
          r.send_p2p(it.root, {});
          data = r.mcast_recv();
        }
        s.out[slot] = wall_s();
        if (data != it.payload) {
          failures.add("bcast " + std::to_string(first + i) + " rank " +
                       std::to_string(r.rank()) + ": payload differs");
        }
      }
    });
    out.host.wall_s = wall_s() - w0;
    out.host.cpu_s = cpu_s() - c0;
    out.host.ref_s = 0.5 * (ref_before + socket_reference_s());
    out.host.ref_nominal_s = kSocketReferenceNominalS;
  } catch (const std::exception& e) {
    out.threw = true;
    failures.add(std::string("socket run aborted: ") + e.what());
  }
  out.host.collectives = items.size();
  const std::vector<double> us = s.latencies_us();
  out.host.p50_us = percentile(us, 50.0);
  out.host.p99_us = percentile(us, 99.0);
  return out;
}

}  // namespace

Result run_loopback_bcast(const Options& options, Tracer& tracer) {
  if (!posix::RealUdpSocket::loopback_multicast_available()) {
    throw NotRun("loopback multicast is unavailable on this host");
  }
  Result res;
  std::vector<BcastItem> items;
  {
    Span span(tracer, "schedule", "setup");
    items = schedule(options.seed);
  }
  {
    Span span(tracer, "simulated twin", "measure");
    simulate_bcast_twin(res, items, kRanks, options.seed, "mcast-binary");
  }

  // Block 0 warms the host and is not timed.  Blocks cycle through the
  // schedule's slices.  Trace runs alternate bcast_binary blocks with
  // multicast-leg-only blocks (no scout gather) on the same slice, to split
  // a broadcast into its scout and multicast legs.
  const double deadline = wall_s() + options.seconds;
  std::vector<Block> all, timed, mcast_leg;
  for (std::size_t b = 0;
       b < kMaxBlocks && (b < kMinBlocks || wall_s() < deadline); ++b) {
    const bool leg_only = options.trace && b % 2 == 1;
    const std::size_t slice = (options.trace ? b / 2 : b) % kSlices;
    const std::span<const BcastItem> slice_items(
        items.data() + slice * kSliceReps, kSliceReps);
    Failures failures;
    const double start = wall_s();
    BlockOut out = block(slice_items, slice * kSliceReps, failures, leg_only);
    out.host.schedule = slice;
    tracer.host(leg_only ? "block (multicast leg only)" : "block", "measure",
                start, wall_s());
    res.attempted += slice_items.size();
    res.failed += out.threw ? slice_items.size() : failures.count();
    for (const std::string& m : failures.messages()) {
      res.notes.push_back("block " + std::to_string(b) + ": " + m);
    }
    all.push_back(out.host);
    if (b > 0) {
      (leg_only ? mcast_leg : timed).push_back(out.host);
    }
  }

  report_host(res, timed, all);
  res.layer("trace.spans", static_cast<double>(tracer.size()), "count");
  if (!mcast_leg.empty()) {
    const auto p50 = [](const std::vector<Block>& blocks) {
      std::vector<double> v;
      for (const Block& b : blocks) {
        v.push_back(b.p50_us);
      }
      return median(std::move(v));
    };
    const double mcast_us = p50(mcast_leg);
    res.layer("posix.mcast_us_per_coll", mcast_us, "us");
    res.layer("posix.scout_us_per_coll", std::max(0.0, p50(timed) - mcast_us),
              "us");
  }
  return res;
}

}  // namespace perfbench
