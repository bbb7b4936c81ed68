#pragma once
/// \file registry.hpp
/// String-keyed algorithm registry for the collective layer.
///
/// Every collective algorithm — the paper's mpich baseline and multicast
/// scout variants, the related-work ack-mcast/sequencer protocols, the van
/// de Geijn scatter-allgather extension, the multicast allgather pacing
/// disciplines — registers one uniform CollAlgorithm entry: a run function
/// (whose type names the operation), an applicability predicate, and an
/// analytic cost hint.
/// Benches and tests sweep the registry instead of hardcoded enum lists, so
/// a newly registered algorithm is swept, tested and selectable for free;
/// the kAuto policy (tuning.hpp) resolves over the same entries.
///
/// Registration is open: link-time plugins (or tests) may add entries via
/// Registry::instance().add().  The built-in set is registered on first use
/// (no static-initialization-order games).

#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "mpi/datatype.hpp"
#include "mpi/proc.hpp"

namespace mcmpi::coll {

/// Collective operations the registry dispatches.
enum class CollOp {
  kBcast,
  kBarrier,
  kAllreduce,
  kAllgather,
  kReduce,
  kGather,
  kScatter,
  kScan,
  kAlltoall,
};

std::string to_string(CollOp op);

/// Every CollOp, in declaration order (tuning parser, sweep helpers).
inline constexpr CollOp kAllCollOps[] = {
    CollOp::kBcast,  CollOp::kBarrier, CollOp::kAllreduce, CollOp::kAllgather,
    CollOp::kReduce, CollOp::kGather,  CollOp::kScatter,   CollOp::kScan,
    CollOp::kAlltoall,
};

/// The run function of an entry for collective `Op`, with that
/// operation's signature.
template <CollOp Op, typename Signature>
struct RunFn {
  static constexpr CollOp kOp = Op;
  std::function<Signature> fn;
};

using BcastRun = RunFn<CollOp::kBcast,
                       void(mpi::Proc&, const mpi::Comm&, Buffer& buffer,
                            int root)>;
using BarrierRun = RunFn<CollOp::kBarrier, void(mpi::Proc&, const mpi::Comm&)>;
using AllreduceRun =
    RunFn<CollOp::kAllreduce,
          Buffer(mpi::Proc&, const mpi::Comm&,
                 std::span<const std::uint8_t> data, mpi::Op op,
                 mpi::Datatype type)>;
/// Returns comm.size() blocks, indexed by comm rank (lossy entries may
/// leave blocks empty).
using AllgatherRun =
    RunFn<CollOp::kAllgather,
          std::vector<Buffer>(mpi::Proc&, const mpi::Comm&,
                              std::span<const std::uint8_t> data)>;
/// Returns the reduced vector at `root`, empty elsewhere.  Operands are
/// combined in communicator rank order (observable for non-commutative
/// custom ops).
using ReduceRun =
    RunFn<CollOp::kReduce,
          Buffer(mpi::Proc&, const mpi::Comm&,
                 std::span<const std::uint8_t> data, mpi::Op op,
                 mpi::Datatype type, int root)>;
/// Returns comm.size() blocks at `root` (indexed by comm rank), an empty
/// vector elsewhere.
using GatherRun =
    RunFn<CollOp::kGather,
          std::vector<Buffer>(mpi::Proc&, const mpi::Comm&,
                              std::span<const std::uint8_t> data, int root)>;
/// `chunks` is root-only input (comm.size() entries, ignored elsewhere);
/// returns this rank's chunk.
using ScatterRun =
    RunFn<CollOp::kScatter, Buffer(mpi::Proc&, const mpi::Comm&,
                                   const std::vector<Buffer>& chunks,
                                   int root)>;
/// Inclusive prefix reduction: rank r returns op over ranks 0..r.
using ScanRun = RunFn<CollOp::kScan,
                      Buffer(mpi::Proc&, const mpi::Comm&,
                             std::span<const std::uint8_t> data, mpi::Op op,
                             mpi::Datatype type)>;
/// Personalized all-to-all: `to_each[i]` goes to comm rank i (comm.size()
/// entries); returns comm.size() blocks, block r being what rank r sent
/// to this rank.
using AlltoallRun =
    RunFn<CollOp::kAlltoall,
          std::vector<Buffer>(mpi::Proc&, const mpi::Comm&,
                              const std::vector<Buffer>& to_each)>;

/// One run function per entry.
using CollRun = std::variant<BcastRun, BarrierRun, AllreduceRun, AllgatherRun,
                             ReduceRun, GatherRun, ScatterRun, ScanRun,
                             AlltoallRun>;

/// One registered algorithm.  Its operation is the one its run function
/// serves.
struct CollAlgorithm {
  std::string name;  ///< registry key, e.g. "mcast-binary"
  std::string description;

  /// May this algorithm serve (comm, payload bytes)?  Null means always.
  /// kAuto and the sweep helpers skip inapplicable entries; direct
  /// selection of an inapplicable algorithm is a precondition violation.
  std::function<bool(const mpi::Comm&, std::size_t bytes)> applicable;

  /// Analytic cost hint in frame-equivalents (lower is cheaper) for an
  /// M-byte payload on N ranks; advisory — kAuto consults the tuning table
  /// first and uses the hint only to order equally-tuned candidates.
  std::function<double(std::size_t bytes, int ranks)> cost_hint;

  /// Algorithms that may drop payload under load (blast allgather) are
  /// never picked by kAuto and are only correctness-checked on the blocks
  /// they deliver.
  bool lossy = false;

  /// Recovers from dropped / reordered / duplicated frames (reliable p2p
  /// transport, or an explicit multicast recovery protocol).  On a lossy
  /// network (Proc::network_lossy()) kAuto skips everything else, and the
  /// fault conformance sweep checks exactly these entries.
  bool loss_tolerant = false;

  CollRun run;

  CollOp op() const {
    return std::visit([](const auto& r) { return r.kOp; }, run);
  }

  /// The run function, typed; throws std::bad_variant_access when the
  /// entry serves another operation.
  template <typename Run>
  const auto& fn() const {
    return std::get<Run>(run).fn;
  }
};

/// Process-wide algorithm registry.  Not thread-safe by design: the
/// simulation is single-threaded (one runnable context), and registration
/// happens at startup.
class Registry {
 public:
  /// The registry, with the built-in algorithm set registered.
  static Registry& instance();

  /// Registers `algo`; throws std::invalid_argument on a duplicate
  /// (op, name) or an empty run function.
  void add(CollAlgorithm algo);

  /// Unregisters (op, name); returns false if absent.  For plugin
  /// lifecycles and tests — never remove entries while a simulation that
  /// may dispatch them is running.
  bool remove(CollOp op, const std::string& name);

  /// Lookup; throws std::invalid_argument listing the registered names
  /// when (op, name) is unknown.
  const CollAlgorithm& get(CollOp op, const std::string& name) const;
  const CollAlgorithm* find(CollOp op, const std::string& name) const;

  /// Registered names for `op`, in registration order.
  std::vector<std::string> names(CollOp op) const;

  /// Names for `op` whose predicate accepts (comm, bytes).
  std::vector<std::string> applicable_names(CollOp op, const mpi::Comm& comm,
                                            std::size_t bytes) const;

  /// All entries (every op), in registration order.
  const std::vector<CollAlgorithm>& entries() const { return entries_; }

 private:
  Registry() = default;
  std::vector<CollAlgorithm> entries_;
};

}  // namespace mcmpi::coll
