// The three simulated workloads: lan_bcast (the paper's 9-rank switch),
// tenant_mix (64 ranks on 4 segments, open-loop multi-tenant mix on the
// parallel driver) and lossy_trunk (16 ranks, 2 ms trunk, 5% link loss).
//
// Every workload follows one shape.  Four schedules are generated from the
// seed; blocks 0-3 run them once and give the simulated metrics, which are
// a pure function of the seed.  Further blocks replay the schedules on a
// fresh cluster each until the time budget is spent and give the host-clock
// metrics as medians over blocks.  Each block must reproduce its schedule's
// simulated latencies exactly, and every rank checks its result bytes.

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <span>

#include "cluster/cluster.hpp"
#include "cluster/experiment.hpp"
#include "cluster/workload.hpp"
#include "coll/facade.hpp"
#include "common/bytes.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace mcmpi;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::WorkloadItem;
using cluster::WorkloadOp;

// ------------------------------------------------------- layer counters

/// Library counters read through public accessors, summed over ranks and
/// segments.  Read only while no simulation is running.
struct Counters {
  sim::SchedCounters sched;
  net::NetCounters net;
  PayloadCounters payload;
  std::uint64_t ip_fragments_sent = 0;
  std::uint64_t ip_datagrams_received = 0;
  std::uint64_t ip_zero_copy = 0;
  std::uint64_t udp_overruns = 0;
  std::uint64_t eager = 0;
  std::uint64_t rendezvous = 0;
  std::uint64_t unexpected = 0;
};

Counters read_counters(Cluster& c) {
  Counters k;
  k.sched = c.simulator().sched_counters();
  k.net = c.net_counters();
  k.payload = payload_counters();
  for (int r = 0; r < c.num_procs(); ++r) {
    const inet::IpStats& ip = c.ip(r).stats();
    k.ip_fragments_sent += ip.fragments_sent;
    k.ip_datagrams_received += ip.datagrams_received;
    k.ip_zero_copy += ip.zero_copy_reassemblies;
    k.udp_overruns += c.udp(r).stats().buffer_full_drops;
    const mpi::EngineStats& e = c.world().proc(r).engine().stats();
    k.eager += e.eager_sends;
    k.rendezvous += e.rendezvous_sends;
    k.unexpected += e.unexpected_messages;
  }
  return k;
}

/// Applies `f` fieldwise to two counter sets (difference and sum).
template <typename F>
Counters combine(const Counters& a, const Counters& b, F f) {
  Counters d;
  const sim::SchedCounters& x = a.sched;
  const sim::SchedCounters& y = b.sched;
  sim::SchedCounters& z = d.sched;
  z.events_executed = f(x.events_executed, y.events_executed);
  z.handoffs = f(x.handoffs, y.handoffs);
  z.coalesced_delays = f(x.coalesced_delays, y.coalesced_delays);
  z.batched_callbacks = f(x.batched_callbacks, y.batched_callbacks);
  z.event_pool_hits = f(x.event_pool_hits, y.event_pool_hits);
  z.event_pool_misses = f(x.event_pool_misses, y.event_pool_misses);
  z.frames_dropped = f(x.frames_dropped, y.frames_dropped);
  z.frames_duplicated = f(x.frames_duplicated, y.frames_duplicated);
  z.frames_reordered = f(x.frames_reordered, y.frames_reordered);
  z.nacks_sent = f(x.nacks_sent, y.nacks_sent);
  z.retransmits = f(x.retransmits, y.retransmits);
  z.parity_sent = f(x.parity_sent, y.parity_sent);
  z.parity_used = f(x.parity_used, y.parity_used);
  z.fec_decodes = f(x.fec_decodes, y.fec_decodes);
  z.fec_fallbacks = f(x.fec_fallbacks, y.fec_fallbacks);
  d.net.host_tx_frames = f(a.net.host_tx_frames, b.net.host_tx_frames);
  d.net.host_tx_bytes = f(a.net.host_tx_bytes, b.net.host_tx_bytes);
  d.net.deliveries = f(a.net.deliveries, b.net.deliveries);
  d.net.filtered = f(a.net.filtered, b.net.filtered);
  d.net.queue_drops = f(a.net.queue_drops, b.net.queue_drops);
  d.payload.buffer_allocs = f(a.payload.buffer_allocs, b.payload.buffer_allocs);
  d.payload.byte_copies = f(a.payload.byte_copies, b.payload.byte_copies);
  d.payload.bytes_copied = f(a.payload.bytes_copied, b.payload.bytes_copied);
  d.ip_fragments_sent = f(a.ip_fragments_sent, b.ip_fragments_sent);
  d.ip_datagrams_received =
      f(a.ip_datagrams_received, b.ip_datagrams_received);
  d.ip_zero_copy = f(a.ip_zero_copy, b.ip_zero_copy);
  d.udp_overruns = f(a.udp_overruns, b.udp_overruns);
  d.eager = f(a.eager, b.eager);
  d.rendezvous = f(a.rendezvous, b.rendezvous);
  d.unexpected = f(a.unexpected, b.unexpected);
  return d;
}

Counters since(const Counters& a, const Counters& b) {
  return combine(a, b, [](std::uint64_t x, std::uint64_t y) { return x - y; });
}

Counters plus(const Counters& a, const Counters& b) {
  return combine(a, b, [](std::uint64_t x, std::uint64_t y) { return x + y; });
}

// ------------------------------------------------------------ schedules

/// One collective of a workload's schedule, with its expected bytes.
struct Item {
  WorkloadOp op = WorkloadOp::kBcast;
  std::size_t bytes = 0;
  int root = 0;
  SimTime issue_at = kTimeZero;  // open loop only
  /// The pattern the checks key on: `bytes` bytes of a pattern_payload
  /// pool shared by the schedule, at a per-item offset (one pool instead of
  /// one buffer per item keeps the harness out of peak_rss_mb).
  std::shared_ptr<const Buffer> pool;
  std::size_t offset = 0;

  std::span<const std::uint8_t> base() const {
    return {pool->data() + offset, bytes};
  }
};

/// A pool for `max_bytes` payloads and a generator of pool offsets.
constexpr std::size_t kPoolSlack = 4096;
std::shared_ptr<const Buffer> make_pool(Rng& rng, std::size_t max_bytes) {
  return std::make_shared<const Buffer>(
      pattern_payload(rng.next(), max_bytes + kPoolSlack));
}

bool same(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Payload bytes that end up at ranks which did not hold them.
double useful_bytes(const Item& it, int n) {
  const auto b = static_cast<double>(it.bytes);
  switch (it.op) {
    case WorkloadOp::kBcast:
      return b * (n - 1);
    case WorkloadOp::kAllreduce:
      return b * n;
    case WorkloadOp::kReduce:
      return b;
    case WorkloadOp::kAllgather:
      return static_cast<double>(std::max<std::size_t>(1, it.bytes / n)) *
             n * (n - 1);
    case WorkloadOp::kBarrier:
      return 0.0;
  }
  return 0.0;
}

coll::CollOp coll_op(WorkloadOp op) {
  switch (op) {
    case WorkloadOp::kBcast:
      return coll::CollOp::kBcast;
    case WorkloadOp::kAllreduce:
      return coll::CollOp::kAllreduce;
    case WorkloadOp::kAllgather:
      return coll::CollOp::kAllgather;
    case WorkloadOp::kReduce:
      return coll::CollOp::kReduce;
    case WorkloadOp::kBarrier:
      return coll::CollOp::kBarrier;
  }
  return coll::CollOp::kBcast;
}

/// The bytes kAuto keys on for an item (allgather: one member's share).
std::size_t keyed_bytes(const Item& it, int n) {
  if (it.op == WorkloadOp::kAllgather) {
    return std::max<std::size_t>(1, it.bytes / static_cast<std::size_t>(n));
  }
  return it.op == WorkloadOp::kBarrier ? 0 : it.bytes;
}

// -------------------------------------------------- execute and verify

/// Runs one item on `coll` as comm rank `me` of `n` and checks the result
/// against a reference computed from the item's base pattern: member m
/// contributes base + m (bytewise, mod 256).  Returns an empty string on
/// success, else what was wrong.
std::string execute_checked(coll::Coll& coll, const Item& it, int me, int n) {
  const std::span<const std::uint8_t> base = it.base();
  const auto add = [](std::span<const std::uint8_t> src, std::size_t len,
                      int m) {
    Buffer out(len);
    for (std::size_t k = 0; k < len; ++k) {
      out[k] = static_cast<std::uint8_t>(src[k] + m);
    }
    return out;
  };
  // Sum over members of (base[k] + m) mod 256.
  const auto reduced_ok = [&](const Buffer& got) {
    if (got.size() != it.bytes) {
      return false;
    }
    const auto offset = static_cast<std::uint8_t>(n * (n - 1) / 2);
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (got[k] != static_cast<std::uint8_t>(n * base[k] + offset)) {
        return false;
      }
    }
    return true;
  };
  switch (it.op) {
    case WorkloadOp::kBcast: {
      // Non-root buffers are sized to the payload: kAuto keys on each
      // rank's own size, so every rank must agree on it.
      Buffer buffer =
          me == it.root ? Buffer(base.begin(), base.end()) : Buffer(it.bytes);
      coll.bcast(buffer, it.root);
      return same(buffer, base) ? "" : "bcast payload differs from the pattern";
    }
    case WorkloadOp::kAllreduce: {
      const Buffer got = coll.allreduce(add(base, it.bytes, me), mpi::Op::kSum,
                                        mpi::Datatype::kByte);
      return reduced_ok(got) ? "" : "allreduce result differs from reference";
    }
    case WorkloadOp::kReduce: {
      const Buffer got =
          coll.reduce(add(base, it.bytes, me), mpi::Op::kSum,
                      mpi::Datatype::kByte, it.root);
      if (me == it.root && !reduced_ok(got)) {
        return "reduce result differs from reference";
      }
      return "";
    }
    case WorkloadOp::kAllgather: {
      const std::size_t share = keyed_bytes(it, n);
      const std::vector<Buffer> got = coll.allgather(add(base, share, me));
      if (got.size() != static_cast<std::size_t>(n)) {
        return "allgather returned the wrong number of blocks";
      }
      for (int m = 0; m < n; ++m) {
        if (got[static_cast<std::size_t>(m)] != add(base, share, m)) {
          return "allgather block differs from reference";
        }
      }
      return "";
    }
    case WorkloadOp::kBarrier:
      coll.barrier();
      return "";
  }
  return "unknown op";
}

// -------------------------------------------------------- block results

/// Per-collective, per-rank timestamps of one block.
struct Stamps {
  int ranks = 0;
  std::vector<SimTime> sim_in, sim_out;
  std::vector<double> host_in, host_out;

  Stamps(std::size_t colls, int n)
      : ranks(n),
        sim_in(colls * static_cast<std::size_t>(n), kTimeZero),
        sim_out(colls * static_cast<std::size_t>(n), kTimeZero),
        host_in(colls * static_cast<std::size_t>(n), 0.0),
        host_out(colls * static_cast<std::size_t>(n), 0.0) {}
  std::size_t at(std::size_t coll, int rank) const {
    return coll * static_cast<std::size_t>(ranks) +
           static_cast<std::size_t>(rank);
  }
};

struct BlockOut {
  Block host;
  std::vector<double> sim_us;  // per collective, slowest rank
  std::vector<double> lag_us;  // scheduled start -> entry
  Counters delta;
  std::map<std::string, double> algo_counts;
  std::uint64_t failed = 0;
  bool threw = false;
};

/// Slowest-rank latency of collective `coll` on both clocks: the simulated
/// one from `start` to the last exit, the host one from the first entry to
/// the last exit.
void latencies(const Stamps& s, std::size_t coll, SimTime start,
               BlockOut& out, std::vector<double>& host_us) {
  SimTime last = kTimeZero;
  double first_in = 1e300;
  double last_out = 0.0;
  for (int r = 0; r < s.ranks; ++r) {
    last = std::max(last, s.sim_out[s.at(coll, r)]);
    first_in = std::min(first_in, s.host_in[s.at(coll, r)]);
    last_out = std::max(last_out, s.host_out[s.at(coll, r)]);
  }
  out.sim_us.push_back(to_microseconds(last - start));
  host_us.push_back((last_out - first_in) * 1e6);
}

void set_host_percentiles(BlockOut& out, const std::vector<double>& host_us) {
  out.host.p50_us = percentile(host_us, 50.0);
  out.host.p99_us = percentile(host_us, 99.0);
}

// ------------------------------------------------------------ block loop

enum class Mode { kTimed, kTraced, kSerial };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kTimed:
      return "block";
    case Mode::kTraced:
      return "block (traced)";
    case Mode::kSerial:
      return "block (serial driver)";
  }
  return "block";
}

/// Distinct schedules per run: block b replays schedule b % kSchedules, so
/// the simulated figures pool kSchedules times the samples of one block.
constexpr std::size_t kSchedules = 4;
constexpr std::size_t kMinBlocks = 6;
constexpr std::size_t kMaxBlocks = 400;

struct Blocks {
  std::vector<BlockOut> all;
  std::vector<Mode> modes;
  BlockOut canon;  // the first pass over the schedules, pooled
};

using BlockFn =
    std::function<BlockOut(std::size_t schedule, Mode, Tracer&, Failures&)>;

/// Runs blocks until the time budget is spent (at least kMinBlocks).  The
/// first pass over the schedules pins the simulated figures; every later
/// block must reproduce its schedule's simulated latencies exactly.
Blocks run_blocks(const Options& options, Tracer& tracer, Result& res,
                  const std::function<Mode(std::size_t)>& mode_of,
                  const BlockFn& run) {
  Blocks out;
  const double deadline = wall_s() + options.seconds;
  bool spans_written = false;
  for (std::size_t b = 0;
       b < kMaxBlocks && (b < kMinBlocks || wall_s() < deadline); ++b) {
    const Mode mode = mode_of(b);
    const std::size_t sched = b % kSchedules;
    // Only the first traced block's spans reach the trace file; later ones
    // record into a scratch tracer so every traced block pays the same.
    Tracer scratch(true);
    Tracer& sink = spans_written ? scratch : tracer;
    Failures failures;
    const double start = wall_s();
    out.all.push_back(run(sched, mode, sink, failures));
    out.all.back().host.schedule = sched;
    tracer.host(mode_name(mode), "measure", start, wall_s());
    spans_written = spans_written || mode == Mode::kTraced;
    out.modes.push_back(mode);

    const BlockOut& got = out.all.back();
    res.attempted += got.host.collectives;
    res.failed += got.threw ? got.host.collectives : got.failed;
    for (const std::string& m : failures.messages()) {
      res.notes.push_back("block " + std::to_string(b) + ": " + m);
    }
    const BlockOut& first = out.all[sched];
    if (b >= kSchedules && !got.threw && !first.threw &&
        got.sim_us != first.sim_us) {
      res.correct = false;
      res.notes.push_back("block " + std::to_string(b) +
                          ": simulated latencies differ from block " +
                          std::to_string(sched));
    }
  }
  for (std::size_t i = 0; i < kSchedules; ++i) {
    const BlockOut& b = out.all[i];
    BlockOut& c = out.canon;
    c.sim_us.insert(c.sim_us.end(), b.sim_us.begin(), b.sim_us.end());
    c.lag_us.insert(c.lag_us.end(), b.lag_us.begin(), b.lag_us.end());
    c.delta = plus(c.delta, b.delta);
    for (const auto& [name, n] : b.algo_counts) {
      c.algo_counts[name] += n;
    }
  }
  return out;
}

// ------------------------------------------------------------ reporting

void report_layers(Result& res, const Counters& d, double colls) {
  const sim::SchedCounters& s = d.sched;
  const auto per = [&](double v) { return ratio(v, colls); };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  res.layer("sim.events_per_coll", per(u(s.events_executed)), "count");
  res.layer("sim.handoffs_per_coll", per(u(s.handoffs)), "count");
  res.layer("sim.coalesced_delays_per_coll", per(u(s.coalesced_delays)),
            "count");
  res.layer("sim.batched_callbacks_per_coll", per(u(s.batched_callbacks)),
            "count");
  res.layer("sim.event_pool_miss_frac",
            ratio(u(s.event_pool_misses),
                  u(s.event_pool_hits + s.event_pool_misses)),
            "ratio");
  res.layer("net.frames_per_coll", per(u(d.net.host_tx_frames)), "count");
  res.layer("net.wire_bytes_per_coll", per(u(d.net.host_tx_bytes)), "B");
  res.layer("net.filtered_frac",
            ratio(u(d.net.filtered), u(d.net.filtered + d.net.deliveries)),
            "ratio");
  res.layer("net.queue_drops_per_coll", per(u(d.net.queue_drops)), "count");
  res.layer("net.frames_dropped_per_coll", per(u(s.frames_dropped)), "count");
  res.layer("net.frames_duplicated_per_coll", per(u(s.frames_duplicated)),
            "count");
  res.layer("net.frames_reordered_per_coll", per(u(s.frames_reordered)),
            "count");
  res.layer("inet.fragments_per_coll", per(u(d.ip_fragments_sent)), "count");
  res.layer("inet.zero_copy_reassembly_frac",
            ratio(u(d.ip_zero_copy), u(d.ip_datagrams_received)), "ratio");
  res.layer("inet.udp_overrun_drops_per_coll", per(u(d.udp_overruns)),
            "count");
  res.layer("mpi.eager_sends_per_coll", per(u(d.eager)), "count");
  res.layer("mpi.rendezvous_sends_per_coll", per(u(d.rendezvous)), "count");
  res.layer("mpi.unexpected_frac",
            ratio(u(d.unexpected), u(d.eager + d.rendezvous)), "ratio");
  res.layer("coll.nacks_per_coll", per(u(s.nacks_sent)), "count");
  res.layer("coll.retransmits_per_coll", per(u(s.retransmits)), "count");
  res.layer("coll.parity_sent_per_coll", per(u(s.parity_sent)), "count");
  res.layer("coll.parity_used_frac", ratio(u(s.parity_used), u(s.parity_sent)),
            "ratio");
  res.layer("coll.fec_decodes_per_coll", per(u(s.fec_decodes)), "count");
  res.layer("coll.fec_fallback_frac",
            ratio(u(s.fec_fallbacks), u(s.fec_decodes + s.fec_fallbacks)),
            "ratio");
  res.layer("common.payload_allocs_per_coll", per(u(d.payload.buffer_allocs)),
            "count");
  res.layer("common.payload_copies_per_coll", per(u(d.payload.byte_copies)),
            "count");
  res.layer("common.bytes_copied_per_coll", per(u(d.payload.bytes_copied)),
            "B");
}

/// The algorithm names the benchmark reports shares for; anything else
/// kAuto picks lands in coll.algo_share.other (and in a note).
const std::vector<std::string>& algo_share_names() {
  static const std::vector<std::string> names = {
      "bcast.mpich",         "bcast.mcast-binary",    "bcast.fec-mcast",
      "bcast.mcast-segmented", "bcast.hier-mcast",    "allreduce.mpich",
      "allreduce.mcast-binary", "allreduce.hier",     "allgather.ring",
      "allgather.mcast-lockstep", "allgather.hier",   "reduce.mpich",
      "reduce.mcast-scout",  "barrier.mcast",         "barrier.hier"};
  return names;
}

void report_algo_shares(Result& res, const std::map<std::string, double>& c) {
  double total = 0.0;
  for (const auto& [name, n] : c) {
    total += n;
  }
  const auto& known = algo_share_names();
  double covered = 0.0;
  for (const std::string& name : known) {
    const auto it = c.find(name);
    const double n = it == c.end() ? 0.0 : it->second;
    covered += n;
    res.layer("coll.algo_share." + name, ratio(n, total), "ratio");
  }
  res.layer("coll.algo_share.other", ratio(total - covered, total), "ratio");
  for (const auto& [name, n] : c) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      res.notes.push_back("coll.algo_share.other includes " + name);
    }
  }
}

/// Simulated end-to-end metrics and per-layer counters of a pooled run.
void report_simulated(Result& res, const BlockOut& canon, double capacity,
                      double useful_bytes) {
  res.e2e("sim_p50_us", percentile(canon.sim_us, 50.0), "us");
  res.e2e("sim_p99_us", percentile(canon.sim_us, 99.0), "us");
  res.e2e("sim_capacity_coll_per_s", capacity, "1/s");
  res.e2e("wire_bytes_per_payload_byte",
          ratio(static_cast<double>(canon.delta.net.host_tx_bytes),
                useful_bytes),
          "ratio");
  res.layer("sim.samples", static_cast<double>(canon.sim_us.size()), "count");
  res.layer("cluster.issue_lag_p99_us", percentile(canon.lag_us, 99.0), "us");
  report_layers(res, canon.delta, static_cast<double>(canon.sim_us.size()));
  report_algo_shares(res, canon.algo_counts);
}

/// A closed loop offers exactly what the system serves: one collective per
/// mean latency.
double closed_loop_capacity(const std::vector<double>& sim_us) {
  double sum = 0.0;
  for (double v : sim_us) {
    sum += v;
  }
  return ratio(1e6 * static_cast<double>(sim_us.size()), sum);
}

/// Host-clock figures of a block loop: the end-to-end host metrics from
/// the timed blocks (block 0 is cold and left out), the simulator's host
/// cost per event and the tracing overhead.
void report_blocks(Result& res, const Blocks& blocks, Tracer& tracer) {
  std::vector<Block> timed, traced, all;
  std::vector<double> ns_per_event;
  for (std::size_t i = 0; i < blocks.all.size(); ++i) {
    const BlockOut& b = blocks.all[i];
    all.push_back(b.host);
    if (i > 0 && blocks.modes[i] == Mode::kTimed) {
      timed.push_back(b.host);
      ns_per_event.push_back(ratio(
          b.host.wall_s * 1e9,
          static_cast<double>(b.delta.sched.events_executed)));
    } else if (blocks.modes[i] == Mode::kTraced) {
      traced.push_back(b.host);
    }
  }
  const double rate = report_host(res, timed, all);
  res.layer("sim.host_ns_per_event", median(ns_per_event), "ns");
  double overhead_us = 0.0;
  if (!traced.empty() && rate > 0.0) {
    overhead_us = 1e6 / host_rate(traced) - 1e6 / rate;
  }
  res.layer("trace.overhead_us_per_coll", overhead_us, "us");
  res.layer("trace.overhead_frac", ratio(overhead_us, ratio(1e6, rate)),
            "ratio");
  res.layer("trace.spans", static_cast<double>(tracer.size()), "count");
}

// ------------------------------------------------------ closed-loop bcast

struct ClosedLoopSpec {
  ClusterConfig config;
  std::size_t min_bytes = 16;
  std::size_t max_bytes = 64 * 1024;
  int collectives = 1000;
  SimTime rep_interval = milliseconds(50);
};

std::vector<Item> bcast_schedule(const ClosedLoopSpec& spec,
                                 std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
  const auto pool = make_pool(rng, spec.max_bytes);
  std::vector<Item> items(static_cast<std::size_t>(spec.collectives));
  for (Item& it : items) {
    it.bytes = rng.log_uniform(spec.min_bytes, spec.max_bytes);
    it.root = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(spec.config.num_procs)));
    it.pool = pool;
    it.offset = rng.below(kPoolSlack);
  }
  return items;
}

/// One closed-loop block: construct, warm up, then the schedule through
/// measure_collective (a common start per repetition, slowest rank's finish).
BlockOut closed_loop_block(const ClosedLoopSpec& spec,
                           const std::vector<Item>& items, bool trace_spans,
                           Tracer& tracer, Failures& failures,
                           const std::string& algo) {
  BlockOut out;
  const int n = spec.config.num_procs;
  const double t0 = wall_s();
  Cluster cluster(spec.config);
  const double t1 = wall_s();
  out.host.construct_s = t1 - t0;
  cluster.world().run([&](mpi::Proc& p) {
    coll::Coll coll = p.comm_world().coll();
    for (int root = 0; root < n; ++root) {
      for (std::size_t bytes : {std::size_t{64}, std::size_t{4096}}) {
        Buffer b(bytes, static_cast<std::uint8_t>(root));
        coll.bcast(b, root, algo);
      }
    }
    if (p.rank() == 0) {
      for (const Item& it : items) {
        out.algo_counts["bcast." +
                        coll.resolve(coll::CollOp::kBcast, it.bytes, algo)] +=
            1.0;
      }
    }
  });
  out.host.warmup_s = wall_s() - t1;

  Stamps s(items.size(), n);
  const Counters before = read_counters(cluster);
  const SimTime base = cluster.simulator().now() + spec.rep_interval;
  cluster::ExperimentConfig ec;
  ec.reps = static_cast<int>(items.size());
  ec.warmup_reps = 0;
  ec.rep_interval = spec.rep_interval;
  const auto op = [&](mpi::Proc& p, int rep) {
    const auto i = static_cast<std::size_t>(rep);
    const Item& it = items[i];
    const std::size_t slot = s.at(i, p.rank());
    s.sim_in[slot] = p.self().now();
    s.host_in[slot] = wall_s();
    coll::Coll coll = p.comm_world().coll();
    // Non-root buffers are sized to the payload: kAuto keys on each rank's
    // own size, so every rank must agree on it.
    const std::span<const std::uint8_t> base = it.base();
    Buffer buffer = p.rank() == it.root ? Buffer(base.begin(), base.end())
                                        : Buffer(it.bytes);
    coll.bcast(buffer, it.root, algo);
    if (!same(buffer, base)) {
      failures.add("bcast " + std::to_string(i) + " rank " +
                   std::to_string(p.rank()) + ": payload differs");
    }
    s.host_out[slot] = wall_s();
    s.sim_out[slot] = p.self().now();
    if (trace_spans) {
      tracer.sim(p.rank(), "bcast", to_microseconds(s.sim_in[slot]),
                 to_microseconds(s.sim_out[slot]), i);
    }
  };
  const double ref_before = reference_kernel_s();
  const double w0 = wall_s();
  const double c0 = cpu_s();
  try {
    cluster::measure_collective(cluster, ec, op);
  } catch (const std::exception& e) {
    out.threw = true;
    failures.add(std::string("simulation aborted: ") + e.what());
  }
  out.host.wall_s = wall_s() - w0;
  out.host.cpu_s = cpu_s() - c0;
  out.host.ref_s = 0.5 * (ref_before + reference_kernel_s());
  out.host.collectives = items.size();
  out.delta = since(read_counters(cluster), before);
  out.failed = failures.count();

  std::vector<double> host_us;
  SimTime prev_end = kTimeZero;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SimTime start = base + spec.rep_interval * static_cast<int>(i);
    latencies(s, i, start, out, host_us);
    // Closed-loop lag: how far the previous repetition overran this start.
    out.lag_us.push_back(std::max(0.0, to_microseconds(prev_end - start)));
    prev_end = kTimeZero;
    for (int r = 0; r < n; ++r) {
      prev_end = std::max(prev_end, s.sim_out[s.at(i, r)]);
    }
  }
  set_host_percentiles(out, host_us);
  return out;
}

Result run_closed_loop(const Options& options, Tracer& tracer,
                       const ClosedLoopSpec& spec) {
  Result res;
  std::vector<std::vector<Item>> schedules;
  double useful = 0.0;
  {
    Span span(tracer, "schedules", "setup");
    for (std::size_t k = 0; k < kSchedules; ++k) {
      schedules.push_back(bcast_schedule(spec, options.seed * kSchedules + k));
      for (const Item& it : schedules.back()) {
        useful += useful_bytes(it, spec.config.num_procs);
      }
    }
  }
  // Trace runs alternate untraced and traced blocks so the tracing
  // overhead is measured within the run.
  const Blocks blocks = run_blocks(
      options, tracer, res,
      [&](std::size_t b) {
        return options.trace && b % 2 == 1 ? Mode::kTraced : Mode::kTimed;
      },
      [&](std::size_t k, Mode mode, Tracer& sink, Failures& failures) {
        return closed_loop_block(spec, schedules[k], mode == Mode::kTraced,
                                 sink, failures, coll::kAuto);
      });
  report_simulated(res, blocks.canon,
                   closed_loop_capacity(blocks.canon.sim_us), useful);
  report_blocks(res, blocks, tracer);
  return res;
}

// -------------------------------------------------------- tenant mix

constexpr int kTenantRanks = 64;
constexpr int kTenants = 4;
constexpr int kTenantSize = kTenantRanks / kTenants;
constexpr int kTenantSegments = 4;
constexpr int kPerTenant = 300;
const SimTime kTenantGap = milliseconds(14);
const SimTime kTenantBase = milliseconds(20);  // warm-up ends before this
// Capacity search: the p99 limit, and the stream each probed rate runs.
constexpr double kP99LimitUs = 60000.0;
constexpr int kProbePerTenant = 500;

ClusterConfig tenant_config(std::uint64_t seed, sim::ShardDriver driver) {
  ClusterConfig c;
  c.num_procs = kTenantRanks;
  c.num_segments = kTenantSegments;
  c.network = cluster::NetworkType::kSwitch;
  c.hosts = cluster::make_uniform_hosts(kTenantRanks);
  c.trunk_latency = microseconds(100);
  c.sim_shards = kTenantSegments;
  c.shard_driver = driver;
  c.seed = seed;
  return c;
}

/// Per-tenant streams from tenant_schedule, with the byte patterns the
/// checks key on.
std::vector<std::vector<Item>> tenant_items(std::uint64_t seed, SimTime gap,
                                            int per_tenant) {
  cluster::WorkloadConfig wl;
  wl.tenants = kTenants;
  wl.collectives_per_tenant = per_tenant;
  wl.mean_gap = gap;
  wl.min_bytes = 16;
  wl.max_bytes = 16 * 1024;
  wl.seed = seed;
  std::vector<std::vector<Item>> out(kTenants);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  const auto pool = make_pool(rng, wl.max_bytes);
  for (int t = 0; t < kTenants; ++t) {
    for (const WorkloadItem& w : cluster::tenant_schedule(wl, t, kTenantSize)) {
      Item it;
      it.op = w.op;
      it.bytes = w.op == WorkloadOp::kBarrier ? 0 : w.bytes;
      it.root = w.root;
      it.issue_at = w.issue_at;
      it.pool = pool;
      it.offset = rng.below(kPoolSlack);
      out[static_cast<std::size_t>(t)].push_back(std::move(it));
    }
  }
  return out;
}

/// One open-loop block: construct, then one SPMD program that splits the
/// tenant communicators, warms up with a barrier, and issues every item at
/// its scheduled instant.  Counters cover the whole program; the host
/// clock splits at the simulated instant the schedule starts.
BlockOut tenant_block(const ClusterConfig& config,
                      const std::vector<std::vector<Item>>& items,
                      bool trace_spans, Tracer& tracer, Failures& failures) {
  BlockOut out;
  const double t0 = wall_s();
  Cluster cluster(config);
  const double t1 = wall_s();
  out.host.construct_s = t1 - t0;

  std::vector<Stamps> stamps;
  for (const auto& mine : items) {
    stamps.emplace_back(mine.size(), kTenantSize);
  }
  std::vector<std::map<std::string, double>> algos(kTenants);
  const std::size_t per_tenant = items.front().size();
  std::vector<double> lag(static_cast<std::size_t>(kTenantRanks) * per_tenant,
                          0.0);
  double warm_wall = 0.0;
  double warm_cpu = 0.0;
  cluster.simulator().schedule_on_shard_at(0, kTenantBase - microseconds(1),
                                           [&] {
                                             warm_wall = wall_s();
                                             warm_cpu = cpu_s();
                                           });
  const Counters before = read_counters(cluster);
  const double ref_before = reference_kernel_s();
  const double c0 = cpu_s();
  const double w0 = wall_s();
  try {
    cluster.world().run([&](mpi::Proc& p) {
      const int tenant = p.rank() % kTenants;
      mpi::Comm comm = p.split(p.comm_world(), tenant, p.rank());
      coll::Coll coll = comm.coll();
      coll.barrier();
      const auto& mine = items[static_cast<std::size_t>(tenant)];
      Stamps& s = stamps[static_cast<std::size_t>(tenant)];
      if (comm.rank() == 0) {
        auto& counts = algos[static_cast<std::size_t>(tenant)];
        for (const Item& it : mine) {
          counts[cluster::to_string(it.op) + "." +
                 coll.resolve(coll_op(it.op), keyed_bytes(it, kTenantSize))] +=
              1.0;
        }
      }
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const Item& it = mine[i];
        const SimTime due = kTenantBase + it.issue_at;
        p.self().delay_until(std::max(p.self().now(), due));
        const std::size_t slot = s.at(i, comm.rank());
        s.sim_in[slot] = p.self().now();
        s.host_in[slot] = wall_s();
        lag[static_cast<std::size_t>(p.rank()) * per_tenant + i] =
            to_microseconds(s.sim_in[slot] - due);
        const std::string error =
            execute_checked(coll, it, comm.rank(), kTenantSize);
        if (!error.empty()) {
          failures.add(cluster::to_string(it.op) + " tenant " +
                       std::to_string(tenant) + " item " + std::to_string(i) +
                       ": " + error);
        }
        s.host_out[slot] = wall_s();
        s.sim_out[slot] = p.self().now();
        if (trace_spans) {
          tracer.sim(p.rank(), cluster::to_string(it.op),
                     to_microseconds(s.sim_in[slot]),
                     to_microseconds(s.sim_out[slot]),
                     static_cast<std::uint64_t>(tenant) * per_tenant + i);
        }
      }
    });
  } catch (const std::exception& e) {
    out.threw = true;
    failures.add(std::string("simulation aborted: ") + e.what());
  }
  const double w1 = wall_s();
  const double c1 = cpu_s();
  const bool warmed = warm_wall > 0.0;
  out.host.warmup_s = warmed ? warm_wall - w0 : 0.0;
  out.host.wall_s = w1 - (warmed ? warm_wall : w0);
  out.host.cpu_s = c1 - (warmed ? warm_cpu : c0);
  out.host.ref_s = 0.5 * (ref_before + reference_kernel_s());
  out.delta = since(read_counters(cluster), before);
  out.failed = failures.count();

  std::vector<double> host_us;
  for (std::size_t t = 0; t < items.size(); ++t) {
    for (std::size_t i = 0; i < per_tenant; ++i) {
      latencies(stamps[t], i, kTenantBase + items[t][i].issue_at, out,
                host_us);
    }
    out.host.collectives += per_tenant;
    for (const auto& [name, count] : algos[t]) {
      out.algo_counts[name] += count;
    }
  }
  set_host_percentiles(out, host_us);
  out.lag_us = std::move(lag);
  return out;
}

/// Whether an offered rate is served: no aborted simulation, p99 under the
/// limit and no growing backlog (each tenant's last-quarter median latency
/// within twice its first-quarter median plus one mean gap).  A probe that
/// aborts counts as not served, like any failed request; its message is
/// kept in the notes.
struct RatePoint {
  bool ok = false;
  double p99_us = 0.0;
};

RatePoint rate_point(std::uint64_t seed, double gap_ms, Result& res,
                     int& aborts) {
  const SimTime gap = microseconds_f(gap_ms * 1000.0);
  const auto items = tenant_items(seed, gap, kProbePerTenant);
  Tracer off(false);
  Failures failures;
  const BlockOut b = tenant_block(
      tenant_config(seed, sim::ShardDriver::kParallel), items, false, off,
      failures);
  RatePoint point;
  if (b.threw || b.failed > 0) {
    ++aborts;
    for (const std::string& m : failures.messages()) {
      res.notes.push_back("capacity probe at a " + std::to_string(gap_ms) +
                          " ms gap not served: " + m);
    }
    return point;
  }
  point.p99_us = percentile(b.sim_us, 99.0);
  bool backlog = false;
  const std::size_t n = kProbePerTenant;
  const std::size_t q = n / 4;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto first = b.sim_us.begin() + static_cast<std::ptrdiff_t>(t * n);
    const double head = median(std::vector<double>(first, first + q));
    const double tail = median(std::vector<double>(
        first + static_cast<std::ptrdiff_t>(n - q), first + n));
    backlog = backlog || tail > 2.0 * head + gap_ms * 1000.0;
  }
  point.ok = point.p99_us <= kP99LimitUs && !backlog;
  return point;
}

/// Highest offered rate (collectives per simulated second, all tenants)
/// that rate_point accepts: bisection over the mean gap in log space, then
/// log-linear interpolation of p99 across the final bracket.
double tenant_capacity(std::uint64_t seed, Result& res) {
  double lo_ms = 4.0;   // assumed overloaded
  double hi_ms = 32.0;  // assumed served
  int aborts = 0;
  RatePoint hi = rate_point(seed, hi_ms, res, aborts);
  RatePoint lo;
  if (hi.ok) {
    for (int step = 0; step < 4; ++step) {
      const double mid = std::sqrt(lo_ms * hi_ms);
      const RatePoint p = rate_point(seed, mid, res, aborts);
      (p.ok ? hi : lo) = p;
      (p.ok ? hi_ms : lo_ms) = mid;
    }
  } else {
    res.notes.push_back("capacity: even a 32 ms mean gap is not served");
  }
  double gap_ms = hi_ms;
  if (hi.ok && lo.p99_us > kP99LimitUs && hi.p99_us > 0.0) {
    const double f = (std::log(kP99LimitUs) - std::log(hi.p99_us)) /
                     (std::log(lo.p99_us) - std::log(hi.p99_us));
    gap_ms = std::exp(std::log(hi_ms) + std::clamp(f, 0.0, 1.0) *
                                            (std::log(lo_ms) - std::log(hi_ms)));
  }
  res.layer("cluster.capacity_probe_aborts", aborts, "count");
  return kTenants * 1000.0 / gap_ms;
}

}  // namespace

Result run_lan_bcast(const Options& options, Tracer& tracer) {
  ClosedLoopSpec spec;
  spec.config.num_procs = 9;
  spec.config.network = cluster::NetworkType::kSwitch;
  spec.config.seed = options.seed;
  spec.min_bytes = 16;
  spec.max_bytes = 64 * 1024;
  spec.rep_interval = milliseconds(50);
  return run_closed_loop(options, tracer, spec);
}

Result run_lossy_trunk(const Options& options, Tracer& tracer) {
  ClosedLoopSpec spec;
  spec.config.num_procs = 16;
  spec.config.num_segments = 2;
  spec.config.network = cluster::NetworkType::kSwitch;
  spec.config.hosts = cluster::make_uniform_hosts(16);
  spec.config.trunk_latency = milliseconds(2);
  spec.config.faults.link.loss = 0.05;
  spec.config.seed = options.seed;
  spec.min_bytes = 2 * 1024;
  spec.max_bytes = 64 * 1024;
  // Each seed's loss pattern changes the host cost of its collectives, so a
  // run needs more distinct collectives than lan_bcast for its host figures
  // to agree across seeds.
  spec.collectives = 2000;
  spec.rep_interval = milliseconds(500);
  return run_closed_loop(options, tracer, spec);
}

void simulate_bcast_twin(Result& res, const std::vector<BcastItem>& bcasts,
                         int ranks, std::uint64_t seed,
                         const std::string& algo) {
  ClosedLoopSpec spec;
  spec.config.num_procs = ranks;
  spec.config.network = cluster::NetworkType::kSwitch;
  spec.config.seed = seed;
  std::vector<Item> items;
  double useful = 0.0;
  for (const BcastItem& b : bcasts) {
    Item it;
    it.bytes = b.bytes;
    it.root = b.root;
    it.pool = std::make_shared<const Buffer>(b.payload);
    useful += useful_bytes(it, ranks);
    items.push_back(std::move(it));
  }
  Tracer off(false);
  Failures failures;
  const BlockOut out =
      closed_loop_block(spec, items, false, off, failures, algo);
  res.attempted += items.size();
  res.failed += out.threw ? items.size() : out.failed;
  for (const std::string& m : failures.messages()) {
    res.notes.push_back("simulated twin: " + m);
  }
  report_simulated(res, out, closed_loop_capacity(out.sim_us), useful);
  res.layer("sim.host_ns_per_event",
            ratio(out.host.wall_s * 1e9,
                  static_cast<double>(out.delta.sched.events_executed)),
            "ns");
}

Result run_tenant_mix(const Options& options, Tracer& tracer) {
  Result res;
  double capacity = 0.0;
  {
    const double start = wall_s();
    capacity = tenant_capacity(options.seed, res);
    tracer.host("capacity search", "measure", start, wall_s());
  }
  std::vector<std::vector<std::vector<Item>>> schedules;
  double useful = 0.0;
  {
    Span span(tracer, "schedules", "setup");
    for (std::size_t k = 0; k < kSchedules; ++k) {
      schedules.push_back(
          tenant_items(options.seed * kSchedules + k, kTenantGap, kPerTenant));
      for (const auto& tenant : schedules.back()) {
        for (const Item& it : tenant) {
          useful += useful_bytes(it, kTenantSize);
        }
      }
    }
  }
  // Block 0 runs on the serial driver; block kSchedules replays its
  // schedule on the parallel driver and must match it exactly.  Trace runs
  // cycle serial / parallel / parallel-traced blocks for the driver
  // speedup and the tracing overhead.
  const auto mode_of = [&](std::size_t b) {
    if (b == 0 || (options.trace && b % 3 == 0)) {
      return Mode::kSerial;
    }
    return options.trace && b % 3 == 2 ? Mode::kTraced : Mode::kTimed;
  };
  const Blocks blocks = run_blocks(
      options, tracer, res, mode_of,
      [&](std::size_t k, Mode mode, Tracer& sink, Failures& failures) {
        const auto driver = mode == Mode::kSerial ? sim::ShardDriver::kSerial
                                                  : sim::ShardDriver::kParallel;
        return tenant_block(tenant_config(options.seed, driver), schedules[k],
                            mode == Mode::kTraced, sink, failures);
      });
  report_simulated(res, blocks.canon, capacity, useful);
  report_blocks(res, blocks, tracer);
  // Serial / parallel host time on the same streams; the first serial
  // block is cold and left out.
  std::vector<Block> serial, parallel;
  for (std::size_t i = 1; i < blocks.all.size(); ++i) {
    if (blocks.modes[i] == Mode::kSerial) {
      serial.push_back(blocks.all[i].host);
    } else if (blocks.modes[i] == Mode::kTimed) {
      parallel.push_back(blocks.all[i].host);
    }
  }
  if (!serial.empty()) {  // trace runs only
    res.layer("sim.driver_speedup",
              ratio(host_rate(parallel), host_rate(serial)), "ratio");
  }
  return res;
}

}  // namespace perfbench
