// Reproductions of three simulator defects the benchmark's workloads are
// NOT sized around (see perfbench/NOTES.md).  Each case uses public library
// calls only and is expected to abort until the defect is fixed.
//
//   perfbench_defects 1 [RANKS [SEED [CLUSTER_SEED]]]
//       the tenant_mix shape (4 segments, 4 tenants, 300 collectives each,
//       14 ms mean gap, parallel driver) at RANKS ranks (default 128) with
//       workload seed SEED (default 5) and cluster seed CLUSTER_SEED
//       (default 1): multicast channel sequence assertion (coll/mcast.cpp)
//   perfbench_defects 2
//       two run_workload calls (workload seeds 5 then 6, library defaults
//       otherwise) on one 16-rank 4-segment cluster, serial driver:
//       cross-shard delivery in the past (sim/simulator.cpp)
//   perfbench_defects 3
//       the same two calls on the parallel driver: std::terminate
//
// Prints "completed" and exits 0 if the case runs through.

#include <cstdlib>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/workload.hpp"

namespace {

using namespace mcmpi;

cluster::ClusterConfig four_segments(int ranks, sim::ShardDriver driver) {
  cluster::ClusterConfig c;
  c.num_procs = ranks;
  c.num_segments = 4;
  c.network = cluster::NetworkType::kSwitch;
  c.hosts = cluster::make_uniform_hosts(ranks);
  c.trunk_latency = microseconds(100);
  c.sim_shards = 4;
  c.shard_driver = driver;
  return c;
}

cluster::WorkloadConfig workload(std::uint64_t seed) {
  cluster::WorkloadConfig w;
  w.tenants = 4;
  w.seed = seed;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "";
  if (which == "1") {
    const int ranks = argc > 2 ? std::atoi(argv[2]) : 128;
    cluster::WorkloadConfig w = workload(argc > 3 ? std::stoull(argv[3]) : 5);
    w.collectives_per_tenant = 300;
    w.mean_gap = milliseconds(14);
    cluster::ClusterConfig config =
        four_segments(ranks, sim::ShardDriver::kParallel);
    config.seed = argc > 4 ? std::stoull(argv[4]) : 1;
    cluster::Cluster c(config);
    const auto r = cluster::run_workload(c, w);
    std::cout << "completed: " << r.collectives << " collectives\n";
  } else if (which == "2" || which == "3") {
    cluster::Cluster c(four_segments(
        16, which == "2" ? sim::ShardDriver::kSerial
                         : sim::ShardDriver::kParallel));
    (void)cluster::run_workload(c, workload(5));
    const auto r = cluster::run_workload(c, workload(6));
    std::cout << "completed: " << r.collectives << " collectives\n";
  } else {
    std::cerr << "usage: perfbench_defects 1 [RANKS [SEED [CLUSTER_SEED]]] | 2 | 3\n";
    return 2;
  }
  return 0;
}
