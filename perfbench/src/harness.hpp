#pragma once
// Shared plumbing of the benchmark binary: run options, the metric sheet,
// host clocks, the reference kernel, failure accounting and the span
// recorder that writes Chrome trace-event JSON.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace output (trace runs only)
};

// ---------------------------------------------------------------- clocks

double wall_s();  // steady clock, seconds
double cpu_s();   // process CPU time (all threads), seconds
double peak_rss_mb();

/// Reference kernels that use no library code.  One is timed next to every
/// measured block, and host figures are scaled by it, so that a machine
/// that is slower for a while (other tenants, frequency, scheduling) moves
/// them less.  Each returns its duration in seconds.
///
/// reference_kernel_s: allocation and ordered-tree churn, the memory
/// behaviour of the simulator's queues (simulated workloads).
double reference_kernel_s();
/// socket_reference_s: one-byte UDP round trips between two threads over
/// 127.0.0.1, the wake-up path of the real-socket workload.
double socket_reference_s();
/// The kernels' durations on the 4-core host the benchmark was written on;
/// normalised host figures read "as if the kernel took this long".
inline constexpr double kReferenceNominalS = 4.5e-3;
inline constexpr double kSocketReferenceNominalS = 7.5e-3;

// ------------------------------------------------------------ statistics

double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
double ratio(double num, double den);  // 0 when den == 0

/// splitmix64-driven generator: the benchmark's own schedules never touch
/// library RNGs, so they are a pure function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Log-uniform integer in [lo, hi].
  std::size_t log_uniform(std::size_t lo, std::size_t hi);

 private:
  std::uint64_t state_;
};

// --------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Host-clock figures of one measured block.
struct Block {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double ref_s = 0.0;  // reference kernel next to the block
  double ref_nominal_s = kReferenceNominalS;
  std::uint64_t collectives = 0;
  double construct_s = 0.0;  // cluster or socket construction
  double warmup_s = 0.0;     // communicators and warm-up traffic
  double p50_us = 0.0;       // per-collective host latency percentiles
  double p99_us = 0.0;
  std::size_t schedule = 0;  // which of the run's schedules the block ran
};

struct Result;

/// Reports the host-clock end-to-end metrics (normalised by the reference
/// kernel; the median over a schedule's blocks, averaged over schedules, of
/// `timed`) and their raw values per layer.  Setup figures come from `all`
/// blocks.  Returns the normalised collectives per second.
double report_host(Result& result, const std::vector<Block>& timed,
                   const std::vector<Block>& all);
/// Normalised collectives per second, summarised as in report_host.
double host_rate(const std::vector<Block>& blocks);

/// Failure accounting shared by rank threads/fibers.
class Failures {
 public:
  void add(const std::string& message);
  std::uint64_t count() const { return count_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;  // first few only
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  // diagnostics printed before the JSON
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
};

// ----------------------------------------------------------------- trace

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
/// pid 1 is the host clock (the main thread), pid 2 the simulated clock
/// (one track per rank).  Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(wall_s()) {}
  bool enabled() const { return enabled_; }

  /// Host-clock span from `start` to `end` (wall_s() readings).
  void host(const std::string& name, const std::string& cat, double start,
            double end);
  /// Simulated-clock span of one collective on one rank.
  void sim(int rank, const std::string& name, double start_us,
           double end_us, std::uint64_t coll_id);
  std::size_t size() const;
  bool write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string cat;
    int pid = 1;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::int64_t coll_id = -1;
  };
  bool enabled_;
  double origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII host span (no-op on a disabled tracer).
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string cat)
      : tracer_(tracer), name_(std::move(name)), cat_(std::move(cat)),
        start_(wall_s()) {}
  ~Span() {
    if (tracer_.enabled()) {
      tracer_.host(name_, cat_, start_, wall_s());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::string name_;
  std::string cat_;
  double start_;
};

// ------------------------------------------------------------- workloads

/// A workload that cannot run on this host (exit without a result).
struct NotRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One broadcast of a closed-loop schedule and the bytes it must deliver.
struct BcastItem {
  std::size_t bytes = 0;
  int root = 0;
  std::vector<std::uint8_t> payload;
};

/// Runs `items` once as closed-loop `algo` broadcasts on a simulated
/// `ranks`-host switch and reports the simulated end-to-end metrics
/// (sim_*, wire_bytes_per_payload_byte) and the simulator's per-layer
/// counters.  The loopback workload's simulated twin.
void simulate_bcast_twin(Result& result, const std::vector<BcastItem>& items,
                         int ranks, std::uint64_t seed,
                         const std::string& algo);

Result run_lan_bcast(const Options& options, Tracer& tracer);
Result run_tenant_mix(const Options& options, Tracer& tracer);
Result run_lossy_trunk(const Options& options, Tracer& tracer);
Result run_loopback_bcast(const Options& options, Tracer& tracer);

/// Per-layer probes that time one library layer directly: GF(256) coding
/// at lossy_trunk's window geometry, and the POSIX socket calls.
void probe_gf256(Result& result, Tracer& tracer);
void probe_posix_calls(Result& result, Tracer& tracer);

}  // namespace perfbench
