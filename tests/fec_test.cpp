// FEC-coded reliable multicast tests: GF(256) algebra (inverses, the
// all-ones XOR row, any-k-subset invertibility of the stacked generator),
// randomized encode/erase/decode round-trips with ragged tails, config
// validation, the fec-mcast conformance sweep against mpich across ranks x
// topologies x loss modes, the adaptive parity ratchet, the NACK fallback
// and its hard-error cap, lossy-gated auto-selection, and the segmented
// pipeline's FEC recovery mode (clean-wire parity accounting and jumbo
// reconstruction under loss).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "coll/facade.hpp"
#include "common/assert.hpp"
#include "coll/fec.hpp"
#include "coll/gf256.hpp"
#include "coll/registry.hpp"
#include "coll/segmented.hpp"
#include "common/bytes.hpp"
#include "net/fault.hpp"

namespace mcmpi {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkType;
using net::fault::FaultProfile;
namespace gf256 = coll::gf256;

// ----------------------------------------------------------- GF(256)

TEST(Gf256Algebra, MulHasIdentitiesAndCommutes) {
  for (int a = 0; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(ua, 0), 0);
    EXPECT_EQ(gf256::mul(0, ua), 0);
    EXPECT_EQ(gf256::mul(ua, 1), ua);
    EXPECT_EQ(gf256::mul(1, ua), ua);
    for (int b = 0; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(gf256::mul(ua, ub), gf256::mul(ub, ua));
    }
  }
}

TEST(Gf256Algebra, MulDistributesOverXor) {
  // Exhaustive over (a, b) for a sample of multipliers c — the full triple
  // product space is 16M checks for no extra coverage of the table.
  for (const int c : {1, 2, 3, 29, 91, 142, 255}) {
    const auto uc = static_cast<std::uint8_t>(c);
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(ua ^ ub), uc),
                  gf256::mul(ua, uc) ^ gf256::mul(ub, uc));
      }
    }
  }
}

TEST(Gf256Algebra, EveryNonzeroElementHasAnInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    const std::uint8_t ia = gf256::inv(ua);
    EXPECT_EQ(gf256::mul(ua, ia), 1) << "a = " << a;
    EXPECT_EQ(gf256::inv(ia), ua) << "a = " << a;
  }
}

TEST(Gf256Algebra, ParityRowZeroIsAllOnes) {
  // The column normalization pins row 0 to all-ones — the r=1 XOR fast
  // path (RAID-5 parity) on every k.
  for (const int k : {1, 2, 8, 32, 100, 255}) {
    EXPECT_EQ(gf256::max_parity(k), 256 - k);
    for (int j = 0; j < k; ++j) {
      EXPECT_EQ(gf256::parity_coef(0, j, k), 1) << "k " << k << " j " << j;
    }
  }
}

TEST(Gf256Algebra, AnyKRowsOfTheStackedGeneratorAreInvertible) {
  // MDS: every k-row subset of the (k+r) x k stacked generator [I; C] is
  // nonsingular, i.e. ANY k delivered chunks reconstruct the data.
  // Exhaustive over the subset lattice for small (k, r).
  for (const int k : {2, 4, 8}) {
    const int r = std::min(4, gf256::max_parity(k));
    const int n = k + r;
    std::vector<int> select(static_cast<std::size_t>(n), 0);
    std::fill(select.begin(), select.begin() + k, 1);
    int subsets = 0;
    do {
      std::vector<std::vector<std::uint8_t>> m;
      for (int row = 0; row < n; ++row) {
        if (select[static_cast<std::size_t>(row)] == 0) {
          continue;
        }
        std::vector<std::uint8_t> coefs(static_cast<std::size_t>(k), 0);
        for (int j = 0; j < k; ++j) {
          coefs[static_cast<std::size_t>(j)] =
              row < k ? (row == j ? 1 : 0)
                      : gf256::parity_coef(row - k, j, k);
        }
        m.push_back(std::move(coefs));
      }
      EXPECT_TRUE(gf256::invertible(std::move(m)))
          << "k " << k << ", subset " << subsets;
      ++subsets;
    } while (std::prev_permutation(select.begin(), select.end()));
    EXPECT_GT(subsets, 1);
  }
}

TEST(Gf256Algebra, MulAccXorFastPathAndRaggedTails) {
  const std::vector<std::uint8_t> data = {0x12, 0x34, 0x56, 0x78, 0x9A};
  std::vector<std::uint8_t> acc = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> before = acc;

  gf256::mul_acc(acc, data, 0);  // coef 0: no-op
  EXPECT_EQ(acc, before);

  gf256::mul_acc(acc, data, 1);  // coef 1: plain XOR, tail untouched
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::uint8_t contrib = i < data.size() ? data[i] : 0;
    EXPECT_EQ(acc[i], before[i] ^ contrib) << "i = " << i;
  }

  acc = before;
  gf256::mul_acc(acc, data, 0x5B);  // generic coef: per-byte field product
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::uint8_t contrib =
        i < data.size() ? gf256::mul(data[i], 0x5B) : 0;
    EXPECT_EQ(acc[i], before[i] ^ contrib) << "i = " << i;
  }
}

TEST(Gf256Codec, RandomizedEncodeEraseDecodeRoundTrips) {
  std::mt19937 rng(0xFEC2026);
  for (int trial = 0; trial < 150; ++trial) {
    const int k = 1 + static_cast<int>(rng() % 12);
    const int r =
        1 + static_cast<int>(rng() % static_cast<unsigned>(
                                         std::min(4, gf256::max_parity(k))));
    const std::size_t plen = 1 + rng() % 96;

    // Chunks are full-length except a ragged final one (the wire shape).
    std::vector<Buffer> original(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const std::size_t len = j == k - 1 ? 1 + rng() % plen : plen;
      Buffer& chunk = original[static_cast<std::size_t>(j)];
      chunk.resize(len);
      for (std::uint8_t& b : chunk) {
        b = static_cast<std::uint8_t>(rng());
      }
    }

    std::vector<Buffer> parity(static_cast<std::size_t>(r));
    std::vector<std::span<std::uint8_t>> pspans;
    for (Buffer& row : parity) {
      row.assign(plen, 0);
      pspans.emplace_back(row);
    }
    std::vector<std::span<const std::uint8_t>> dspans;
    for (const Buffer& chunk : original) {
      dspans.emplace_back(chunk);
    }
    gf256::encode_parity(dspans, pspans);

    // Erase up to r random data chunks, recover them from a random (sorted)
    // parity subset of matching size — MDS says any subset works.
    const int erasures =
        static_cast<int>(rng() % static_cast<unsigned>(std::min(r, k) + 1));
    std::vector<int> order(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      order[static_cast<std::size_t>(j)] = j;
    }
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<int> missing(order.begin(), order.begin() + erasures);
    std::sort(missing.begin(), missing.end());

    std::vector<int> prow_order(static_cast<std::size_t>(r));
    for (int i = 0; i < r; ++i) {
      prow_order[static_cast<std::size_t>(i)] = i;
    }
    std::shuffle(prow_order.begin(), prow_order.end(), rng);
    std::vector<int> rows(prow_order.begin(), prow_order.begin() + erasures);
    std::sort(rows.begin(), rows.end());

    std::vector<std::span<const std::uint8_t>> delivered = dspans;
    for (const int j : missing) {
      delivered[static_cast<std::size_t>(j)] = {};
    }
    std::vector<gf256::ParityRow> prows;
    for (const int i : rows) {
      prows.push_back({i, parity[static_cast<std::size_t>(i)]});
    }
    std::vector<Buffer> rebuilt(missing.size());
    std::vector<std::span<std::uint8_t>> outs;
    for (std::size_t m = 0; m < missing.size(); ++m) {
      rebuilt[m].resize(
          original[static_cast<std::size_t>(missing[m])].size());
      outs.emplace_back(rebuilt[m]);
    }
    gf256::decode(delivered, prows, missing, outs);
    for (std::size_t m = 0; m < missing.size(); ++m) {
      EXPECT_EQ(rebuilt[m], original[static_cast<std::size_t>(missing[m])])
          << "trial " << trial << " k " << k << " r " << r << " chunk "
          << missing[m];
    }
  }
}

// ------------------------------------------------------ plan and config

TEST(FecPlanGeometry, CoversEmptySmallAndJumboTotals) {
  const coll::FecConfig cfg;  // k = 8, overhead = 1/8
  const coll::FecPlan empty = coll::fec_plan(0, cfg);
  EXPECT_EQ(empty.chunk_bytes, 1u);
  EXPECT_EQ(empty.n_data, 1);
  EXPECT_EQ(empty.windows, 1);

  const coll::FecPlan one = coll::fec_plan(1, cfg);
  EXPECT_EQ(one.chunk_bytes, 1u);
  EXPECT_EQ(one.n_data, 1);
  EXPECT_EQ(one.windows, 1);
  EXPECT_GT(one.wire_bytes, 1u);  // headers + at least one parity chunk

  const coll::FecPlan mid = coll::fec_plan(100000, cfg);
  EXPECT_EQ(mid.chunk_bytes, 12500u);
  EXPECT_EQ(mid.n_data, 8);
  EXPECT_EQ(mid.windows, 1);
  EXPECT_GT(mid.wire_bytes, 100000u);

  // A total past the datagram ceiling clamps the chunk and spills into
  // multiple windows of k.
  const coll::FecPlan jumbo = coll::fec_plan(8u << 20, cfg);
  EXPECT_GE(static_cast<std::size_t>(jumbo.n_data) * jumbo.chunk_bytes,
            8u << 20);
  EXPECT_EQ(jumbo.windows, (jumbo.n_data + cfg.k - 1) / cfg.k);
  EXPECT_GT(jumbo.windows, 1);

  // Adaptive plans budget the receive buffer for the ratchet's ceiling.
  coll::FecConfig adaptive = cfg;
  adaptive.adaptive = true;
  EXPECT_GT(coll::fec_plan(100000, adaptive).wire_bytes, mid.wire_bytes);
}

ClusterConfig faulty_config(int procs, NetworkType net,
                            const FaultProfile& link,
                            std::uint64_t seed = 11) {
  ClusterConfig config;
  config.num_procs = procs;
  config.network = net;
  config.seed = seed;
  config.faults.link = link;
  return config;
}

TEST(FecMcast, RejectsOutOfRangeConfig) {
  Cluster cluster(faulty_config(2, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([](mpi::Proc& p) {
    const auto expect_bad = [&](const coll::FecConfig& bad) {
      EXPECT_THROW(coll::set_fec_config(p, p.comm_world(), bad),
                   std::invalid_argument);
    };
    coll::FecConfig bad;
    bad.k = 0;
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.k = 256;
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.overhead = 0.0;
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.overhead = 2.5;
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.max_overhead = 0.01;  // below the floor
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.raise_threshold = 0;
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.calm_ops = 0;
    expect_bad(bad);
    // The retry policy's bounds: RecoveryCore.EveryEngineRejects... in
    // fault_test.
    bad = coll::FecConfig{};
    bad.aggregation_window = microseconds(-1);
    expect_bad(bad);
    bad = coll::FecConfig{};
    bad.history_frames = 0;
    expect_bad(bad);
    // The defaults themselves round-trip.
    coll::set_fec_config(p, p.comm_world(), coll::FecConfig{});
    EXPECT_EQ(coll::fec_config(p, p.comm_world()).k, 8);
  });
}

// -------------------------------------------------- conformance sweep

TEST(FecConformance, MatchesMpichAcrossRanksTopologiesAndLoss) {
  struct Topo {
    NetworkType net;
    int segments;
    const char* name;
  };
  const std::vector<Topo> topologies = {{NetworkType::kHub, 1, "hub"},
                                        {NetworkType::kSwitch, 1, "switch"},
                                        {NetworkType::kSwitch, 2, "2-seg"}};
  struct LossMode {
    const char* name;
    FaultProfile profile;
  };
  const std::vector<LossMode> modes = {
      {"clean", FaultProfile{}},
      {"loss1", FaultProfile{.loss = 0.01}},
      {"loss5", FaultProfile{.loss = 0.05}},
      {"bursty", FaultProfile{.ge_good_to_bad = 0.02,
                              .ge_bad_to_good = 0.25,
                              .ge_loss_bad = 0.5}},
  };
  for (const int ranks : {2, 3, 9, 16}) {
    for (const Topo& topo : topologies) {
      for (const LossMode& mode : modes) {
        ClusterConfig config =
            faulty_config(ranks, topo.net, mode.profile);
        config.num_segments = topo.segments;
        if (topo.segments > 1 && mode.profile.lossy()) {
          config.faults.trunk.loss = 0.02;  // the lossy trunk
        }
        if (ranks > cluster::kMaxEagleHosts) {
          config.hosts = cluster::make_uniform_hosts(ranks);
        }
        const std::string what = std::to_string(ranks) + " ranks, " +
                                 topo.name + ", " + mode.name;
        Cluster cluster(config);
        std::vector<int> ok(static_cast<std::size_t>(ranks), 1);
        cluster.world().run([&](mpi::Proc& p) {
          for (const std::size_t bytes :
               {std::size_t{1}, std::size_t{1024}, std::size_t{65536}}) {
            Buffer fec;
            Buffer ref;
            if (p.rank() == 0) {
              fec = pattern_payload(bytes + 7, bytes);
              ref = pattern_payload(bytes + 7, bytes);
            }
            p.comm_world().coll().bcast(fec, 0, "fec-mcast");
            p.comm_world().coll().bcast(ref, 0, "mpich");
            if (fec.size() != bytes || fec != ref ||
                !check_pattern(bytes + 7, fec)) {
              ok[static_cast<std::size_t>(p.rank())] = 0;
            }
          }
        });
        for (int r = 0; r < ranks; ++r) {
          EXPECT_TRUE(ok[static_cast<std::size_t>(r)])
              << what << ", rank " << r;
        }
      }
    }
  }
}

TEST(FecMcast, EmptyBroadcastDelivers) {
  for (const double loss : {0.0, 0.05}) {
    Cluster cluster(faulty_config(3, NetworkType::kSwitch,
                                  FaultProfile{.loss = loss}));
    cluster.world().run([](mpi::Proc& p) {
      Buffer data;
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_EQ(data.size(), 0u);
    });
  }
}

// ------------------------------------------------ recovery and counters

TEST(FecMcast, CleanWireSendsParityButNeverDecodes) {
  Cluster cluster(faulty_config(9, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([](mpi::Proc& p) {
    for (int i = 0; i < 4; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(i, 64000);
      }
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  // 64000 B under k=8 is one window per op, overhead 1/8 -> exactly one
  // parity frame each; none of it is ever consumed on a clean wire.
  EXPECT_EQ(sched.parity_sent, 4u);
  EXPECT_EQ(sched.parity_used, 0u);
  EXPECT_EQ(sched.fec_decodes, 0u);
  EXPECT_EQ(sched.fec_fallbacks, 0u);
  EXPECT_EQ(sched.frames_dropped, 0u);
}

TEST(FecMcast, LowLossIsAbsorbedByInWindowDecodes) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.01}));
  cluster.world().run([](mpi::Proc& p) {
    for (int i = 0; i < 4; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(i, 64000);
      }
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_EQ(sched.parity_sent, 4u);
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.fec_decodes, 0u);
  EXPECT_GE(sched.parity_used, sched.fec_decodes);
}

TEST(FecMcast, LossBeyondParityFallsBackToNackAndDelivers) {
  Cluster cluster(
      faulty_config(5, NetworkType::kSwitch, FaultProfile{.loss = 0.3}));
  cluster.world().run([](mpi::Proc& p) {
    coll::FecConfig cfg;
    cfg.retry.timeout = milliseconds(1);
    cfg.retry.cap = milliseconds(16);
    coll::set_fec_config(p, p.comm_world(), cfg);
    for (int i = 0; i < 2; ++i) {
      Buffer data;
      if (p.rank() == 0) {
        data = pattern_payload(30 + i, 16000);
      }
      p.comm_world().coll().bcast(data, 0, "fec-mcast");
      EXPECT_TRUE(check_pattern(30 + i, data)) << "rank " << p.rank();
    }
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.fec_fallbacks, 0u);  // parity alone could not absorb 30%
  EXPECT_GT(sched.retransmits, 0u);    // the history served the NACKs
}

TEST(FecMcast, TotalLossIsAHardErrorNotAHang) {
  Cluster cluster(
      faulty_config(4, NetworkType::kSwitch, FaultProfile{.loss = 1.0}));
  EXPECT_THROW(
      cluster.world().run([](mpi::Proc& p) {
        coll::FecConfig cfg;
        cfg.retry.timeout = milliseconds(1);
        cfg.retry.max_retries = 3;
        coll::set_fec_config(p, p.comm_world(), cfg);
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(1, 500);
        }
        p.comm_world().coll().bcast(data, 0, "fec-mcast");
      }),
      std::runtime_error);
}

TEST(FecMcast, AdaptiveRatchetRaisesOverheadUnderLossOnly) {
  const auto run_adaptive = [](const FaultProfile& profile, double* working,
                               std::uint64_t* raises) {
    Cluster cluster(faulty_config(6, NetworkType::kSwitch, profile));
    cluster.world().run([&](mpi::Proc& p) {
      coll::FecConfig cfg;
      cfg.adaptive = true;  // floor 1/8, ceiling 1/2
      coll::set_fec_config(p, p.comm_world(), cfg);
      for (int i = 0; i < 8; ++i) {
        Buffer data;
        if (p.rank() == 0) {
          data = pattern_payload(i, 16000);
        }
        p.comm_world().coll().bcast(data, 0, "fec-mcast");
        EXPECT_TRUE(check_pattern(i, data)) << "rank " << p.rank();
      }
      if (p.rank() == 0) {
        *working = coll::fec_working_overhead(p, p.comm_world());
        *raises = coll::fec_stats(p, p.comm_world()).overhead_raises;
      }
    });
  };
  double working = 0.0;
  std::uint64_t raises = 0;
  run_adaptive(FaultProfile{.loss = 0.05}, &working, &raises);
  EXPECT_GT(working, 0.125);  // observed drops ratcheted the parity up
  EXPECT_GE(raises, 1u);
  run_adaptive(FaultProfile{}, &working, &raises);
  EXPECT_DOUBLE_EQ(working, 0.125);  // a clean wire stays at the floor
  EXPECT_EQ(raises, 0u);
}

TEST(FecMcast, LossyAutoSelectionPrefersFec) {
  // The default tuning table gates the fec-mcast rule on a lossy network:
  // clean-wire schedules are untouched, lossy ones pre-empt mcast-binary.
  Cluster lossy(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.05}));
  lossy.world().run([](mpi::Proc& p) {
    EXPECT_TRUE(p.network_lossy());
    const coll::Coll facade = p.comm_world().coll();
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 64 * 1024), "fec-mcast");
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 512), "mpich");
    // Payloads past fec-mcast's single-blast window fall through to the
    // (loss-tolerant) segmented pipeline.
    EXPECT_EQ(facade.resolve(coll::CollOp::kBcast, 16u << 20),
              "mcast-segmented");
  });
  Cluster clean(faulty_config(9, NetworkType::kSwitch, FaultProfile{}));
  clean.world().run([](mpi::Proc& p) {
    EXPECT_FALSE(p.network_lossy());
    EXPECT_EQ(p.comm_world().coll().resolve(coll::CollOp::kBcast, 64 * 1024),
              "mcast-binary");
  });
}

// ------------------------------------------- segmented FEC recovery mode

coll::SegmentedConfig seg_fec_config(std::size_t chunk, int window, int lanes,
                                     double fec_overhead) {
  coll::SegmentedConfig cfg;
  cfg.chunk_bytes = chunk;
  cfg.window = window;
  cfg.lanes = lanes;
  cfg.fec_overhead = fec_overhead;
  cfg.retry.timeout = milliseconds(2);
  cfg.retry.backoff = 2.0;
  cfg.retry.cap = milliseconds(400);
  cfg.retry.max_retries = 50;
  return cfg;
}

TEST(SegmentedFec, RejectsOutOfRangeConfig) {
  // set_segmented_config validates through the contract macros, so the
  // whole config surface (FEC knobs included) fails uniformly.
  Cluster cluster(faulty_config(2, NetworkType::kSwitch, FaultProfile{}));
  cluster.world().run([](mpi::Proc& p) {
    coll::SegmentedConfig bad;
    bad.fec_overhead = -0.1;
    EXPECT_THROW(coll::set_segmented_config(p, p.comm_world(), bad),
                 ContractViolation);
    bad = coll::SegmentedConfig{};
    bad.fec_overhead = 1.5;
    EXPECT_THROW(coll::set_segmented_config(p, p.comm_world(), bad),
                 ContractViolation);
    // A generation must fit one FEC window: window > 128 only without FEC.
    bad = coll::SegmentedConfig{};
    bad.window = 256;
    bad.fec_overhead = 0.25;
    EXPECT_THROW(coll::set_segmented_config(p, p.comm_world(), bad),
                 ContractViolation);
    coll::SegmentedConfig ok;
    ok.window = 256;  // fine while the FEC recovery mode is off
    EXPECT_NO_THROW(coll::set_segmented_config(p, p.comm_world(), ok));
  });
}

TEST(SegmentedFec, CleanWireSendsParityAndNeverDecodes) {
  Cluster cluster(faulty_config(5, NetworkType::kSwitch, FaultProfile{}));
  const std::size_t payload = 256 * 1024;
  cluster.world().run([&](mpi::Proc& p) {
    coll::set_segmented_config(p, p.comm_world(),
                               seg_fec_config(4096, 4, 2, 0.25));
    Buffer seg;
    Buffer ref;
    if (p.rank() == 0) {
      seg = pattern_payload(21, payload);
      ref = pattern_payload(21, payload);
    }
    p.comm_world().coll().bcast(seg, 0, "mcast-segmented");
    p.comm_world().coll().bcast(ref, 0, "mpich");
    EXPECT_EQ(seg, ref) << "rank " << p.rank();
    EXPECT_TRUE(check_pattern(21, seg)) << "rank " << p.rank();
  });
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  // 64 chunks over 2 lanes = 32 per lane, in generations of window 4 with
  // ceil(4 * 0.25) = 1 parity frame each: 16 parity frames, none consumed.
  EXPECT_EQ(sched.parity_sent, 16u);
  EXPECT_EQ(sched.parity_used, 0u);
  EXPECT_EQ(sched.fec_decodes, 0u);
  EXPECT_EQ(sched.frames_dropped, 0u);
}

TEST(SegmentedFec, JumboBcastRecoversViaParityUnderLoss) {
  Cluster cluster(
      faulty_config(9, NetworkType::kSwitch, FaultProfile{.loss = 0.01}));
  const std::size_t payload = 16u << 20;
  std::vector<int> ok(9, 0);
  cluster.world().run([&](mpi::Proc& p) {
    coll::set_segmented_config(p, p.comm_world(),
                               seg_fec_config(65536, 8, 2, 0.25));
    Buffer data;
    if (p.rank() == 0) {
      data = pattern_payload(16, payload);
    }
    p.comm_world().coll().bcast(data, 0, "mcast-segmented");
    ok[static_cast<std::size_t>(p.rank())] =
        data.size() == payload && check_pattern(16, data);
  });
  for (int r = 0; r < 9; ++r) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(r)]) << "rank " << r;
  }
  const sim::SchedCounters sched = cluster.simulator().sched_counters();
  EXPECT_GT(sched.frames_dropped, 0u);
  EXPECT_GT(sched.parity_sent, 0u);
  EXPECT_GT(sched.fec_decodes, 0u);  // generation losses healed in-window
  EXPECT_GE(sched.parity_used, sched.fec_decodes);
}

}  // namespace
}  // namespace mcmpi
