#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <map>
#include <system_error>
#include <thread>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double reference_kernel_s() {
  const double start = wall_s();
  std::map<std::uint64_t, std::uint64_t> tree;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 60000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    tree[x >> 40] = static_cast<std::uint64_t>(i);
    if (tree.size() > 2000) {
      tree.erase(tree.begin());
    }
  }
  const double elapsed = wall_s() - start;
  // Publish a result so the work cannot be optimised away.
  static std::atomic<std::size_t> sink;
  sink.store(tree.size(), std::memory_order_relaxed);
  return elapsed;
}

namespace {

/// A UDP socket bound to an ephemeral port on 127.0.0.1, with a receive
/// timeout so a lost datagram cannot hang the kernel below.
class LoopbackSocket {
 public:
  LoopbackSocket() : fd_(socket(AF_INET, SOCK_DGRAM, 0)) {
    if (fd_ < 0) {
      throw std::system_error(errno, std::generic_category(), "socket");
    }
    sockaddr_in any{};
    any.sin_family = AF_INET;
    any.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr_;
    const timeval timeout{1, 0};
    if (bind(fd_, reinterpret_cast<const sockaddr*>(&any), sizeof any) != 0 ||
        getsockname(fd_, reinterpret_cast<sockaddr*>(&addr_), &len) != 0 ||
        setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) !=
            0) {
      const int error = errno;
      close(fd_);
      throw std::system_error(error, std::generic_category(), "bind");
    }
  }
  ~LoopbackSocket() { close(fd_); }
  LoopbackSocket(const LoopbackSocket&) = delete;
  LoopbackSocket& operator=(const LoopbackSocket&) = delete;

  bool send_to(const LoopbackSocket& peer) const {
    const char byte = 1;
    return sendto(fd_, &byte, 1, 0,
                  reinterpret_cast<const sockaddr*>(&peer.addr_),
                  sizeof peer.addr_) == 1;
  }
  bool receive() const {
    char byte = 0;
    return recv(fd_, &byte, 1, 0) == 1;
  }

 private:
  int fd_;
  sockaddr_in addr_{};
};

}  // namespace

double socket_reference_s() {
  constexpr int kRoundTrips = 300;
  const LoopbackSocket a;
  const LoopbackSocket b;
  std::thread echo([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      if (!b.receive() || !b.send_to(a)) {
        return;
      }
    }
  });
  const double start = wall_s();
  bool ok = true;
  for (int i = 0; i < kRoundTrips && ok; ++i) {
    ok = a.send_to(b) && a.receive();
  }
  const double elapsed = wall_s() - start;
  echo.join();
  if (!ok) {
    throw std::runtime_error("socket reference kernel lost a datagram");
  }
  return elapsed;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks (the numpy default).
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::log_uniform(std::size_t lo, std::size_t hi) {
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi) + 1.0);
  const auto v = static_cast<std::size_t>(std::exp(a + (b - a) * uniform()));
  return std::clamp(v, lo, hi);
}

namespace {

/// Reference-kernel scale of a block: above 1 when the host was slower.
double slowdown(const Block& b) {
  return b.ref_s > 0.0 ? b.ref_s / b.ref_nominal_s : 1.0;
}

/// The median of f over each schedule's blocks, averaged over schedules.
/// Schedules differ in work, so a plain median over blocks would jump
/// between them with the block count each one happened to get.
template <typename F>
double median_of(const std::vector<Block>& blocks, F f) {
  std::map<std::size_t, std::vector<double>> by_schedule;
  for (const Block& b : blocks) {
    if (b.collectives > 0 && b.wall_s > 0.0) {
      by_schedule[b.schedule].push_back(f(b));
    }
  }
  double sum = 0.0;
  for (auto& [schedule, values] : by_schedule) {
    sum += median(std::move(values));
  }
  return ratio(sum, static_cast<double>(by_schedule.size()));
}

}  // namespace

double host_rate(const std::vector<Block>& blocks) {
  return median_of(blocks, [](const Block& b) {
    return static_cast<double>(b.collectives) / b.wall_s * slowdown(b);
  });
}

double report_host(Result& res, const std::vector<Block>& timed,
                   const std::vector<Block>& all) {
  const auto n = [](const Block& b) {
    return static_cast<double>(b.collectives);
  };
  const double rate = host_rate(timed);
  res.e2e("host_coll_per_s", rate, "1/s");
  res.e2e("host_cpu_us_per_coll", median_of(timed, [&](const Block& b) {
            return b.cpu_s / n(b) * 1e6 / slowdown(b);
          }), "us");
  res.e2e("real_p50_us", median_of(timed, [](const Block& b) {
            return b.p50_us / slowdown(b);
          }), "us");
  // The host-clock tail is reported per layer: on the real-socket path it
  // follows the host's scheduling load, not the program (see NOTES.md).
  res.layer("real_p99_us", median_of(timed, [](const Block& b) {
              return b.p99_us / slowdown(b);
            }), "us");
  res.e2e("setup_s", median_of(all, [](const Block& b) {
            return (b.construct_s + b.warmup_s) / slowdown(b);
          }), "s");
  res.layer("cluster.construct_s", median_of(all, [](const Block& b) {
              return b.construct_s / slowdown(b);
            }), "s");
  res.layer("cluster.warmup_s", median_of(all, [](const Block& b) {
              return b.warmup_s / slowdown(b);
            }), "s");

  res.layer("host.raw_coll_per_s",
            median_of(timed, [&](const Block& b) { return n(b) / b.wall_s; }),
            "1/s");
  res.layer("host.raw_cpu_us_per_coll", median_of(timed, [&](const Block& b) {
              return b.cpu_s / n(b) * 1e6;
            }), "us");
  res.layer("host.raw_real_p50_us",
            median_of(timed, [](const Block& b) { return b.p50_us; }), "us");
  res.layer("host.raw_real_p99_us",
            median_of(timed, [](const Block& b) { return b.p99_us; }), "us");
  res.layer("host.raw_setup_s", median_of(all, [](const Block& b) {
              return b.construct_s + b.warmup_s;
            }), "s");
  res.layer("host.ref_kernel_us",
            median_of(all, [](const Block& b) { return b.ref_s * 1e6; }),
            "us");
  res.layer("host.blocks", static_cast<double>(timed.size()), "count");
  res.layer("sim.cpu_per_wall",
            median_of(timed, [](const Block& b) { return b.cpu_s / b.wall_s; }),
            "ratio");
  return rate;
}

void Failures::add(const std::string& message) {
  count_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < 8) {
    messages_.push_back(message);
  }
}

std::vector<std::string> Failures::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

void Tracer::host(const std::string& name, const std::string& cat,
                  double start, double end) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, cat, 1, 0, (start - origin_) * 1e6,
                          (end - start) * 1e6, -1});
}

void Tracer::sim(int rank, const std::string& name, double start_us,
                 double end_us, std::uint64_t coll_id) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, "collective", 2, rank, start_us,
                          end_us - start_us,
                          static_cast<std::int64_t>(coll_id)});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  out << std::setprecision(12);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"host clock\"}},\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
         "\"args\":{\"name\":\"simulated clock (one track per rank)\"}}";
  for (const Event& e : events_) {
    out << ",\n{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
        << "\",\"ph\":\"X\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
        << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us;
    if (e.coll_id >= 0) {
      out << ",\"args\":{\"coll\":" << e.coll_id << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
