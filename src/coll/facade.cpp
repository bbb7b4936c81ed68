#include "coll/facade.hpp"

#include <functional>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "mpi/world.hpp"

namespace mcmpi::coll {

Coll::Coll(mpi::Proc& p, mpi::Comm comm) : p_(p), comm_(std::move(comm)) {
  MC_EXPECTS_MSG(comm_.valid(), "collective on an invalid communicator");
}

std::string Coll::resolve(CollOp op, std::size_t bytes,
                          const std::string& algo) const {
  if (algo == kAuto) {
    return p_.world().coll_tuning().select(op, bytes, comm_.size(), comm_);
  }
  (void)Registry::instance().get(op, algo);  // validate eagerly
  return algo;
}

const CollAlgorithm& Coll::entry(CollOp op, std::size_t bytes,
                                 const std::string& algo) const {
  const CollAlgorithm& a =
      Registry::instance().get(op, resolve(op, bytes, algo));
  MC_EXPECTS_MSG(!a.applicable || a.applicable(comm_, bytes),
                 "algorithm '" + a.name + "' is not applicable here");
  return a;
}

// NOTE on kAuto and broadcast sizes: selection keys on buffer.size(), and
// every rank must resolve to the SAME algorithm — so under kAuto all ranks
// must pass equal-sized buffers (receivers pre-size theirs), mirroring
// MPI's rule that the count argument of MPI_Bcast match on all ranks.
// Explicitly named algorithms have no such requirement.

void Coll::bcast(Buffer& buffer, int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  entry(CollOp::kBcast, buffer.size(), algo)
      .fn<BcastRun>()(p_, comm_, buffer, root);
}

void Coll::barrier(const std::string& algo) {
  entry(CollOp::kBarrier, 0, algo).fn<BarrierRun>()(p_, comm_);
}

Buffer Coll::allreduce(std::span<const std::uint8_t> data, mpi::Op op,
                       mpi::Datatype type, const std::string& algo) {
  return entry(CollOp::kAllreduce, data.size(), algo)
      .fn<AllreduceRun>()(p_, comm_, data, op, type);
}

std::vector<Buffer> Coll::allgather(std::span<const std::uint8_t> data,
                                    const std::string& algo) {
  return entry(CollOp::kAllgather, data.size(), algo)
      .fn<AllgatherRun>()(p_, comm_, data);
}

Buffer Coll::reduce(std::span<const std::uint8_t> data, mpi::Op op,
                    mpi::Datatype type, int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return entry(CollOp::kReduce, data.size(), algo)
      .fn<ReduceRun>()(p_, comm_, data, op, type, root);
}

std::vector<Buffer> Coll::gather(std::span<const std::uint8_t> data, int root,
                                 const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return entry(CollOp::kGather, data.size(), algo)
      .fn<GatherRun>()(p_, comm_, data, root);
}

Buffer Coll::scatter(const std::vector<Buffer>& chunks, int root,
                     std::size_t chunk_bytes, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return entry(CollOp::kScatter, chunk_bytes, algo)
      .fn<ScatterRun>()(p_, comm_, chunks, root);
}

Buffer Coll::scan(std::span<const std::uint8_t> data, mpi::Op op,
                  mpi::Datatype type, const std::string& algo) {
  return entry(CollOp::kScan, data.size(), algo)
      .fn<ScanRun>()(p_, comm_, data, op, type);
}

std::vector<Buffer> Coll::alltoall(const std::vector<Buffer>& to_each,
                                   std::size_t block_bytes,
                                   const std::string& algo) {
  return entry(CollOp::kAlltoall, block_bytes, algo)
      .fn<AlltoallRun>()(p_, comm_, to_each);
}

template <typename Run, typename... Args>
std::shared_ptr<CollRequest> Coll::spawn_run(const std::string& label,
                                             std::size_t bytes,
                                             const std::string& algo,
                                             Args... args) {
  // Resolve on the caller's fiber; copy the run function so later registry
  // growth cannot invalidate the reference.
  auto run = entry(Run::kOp, bytes, algo).template fn<Run>();
  auto request = std::make_shared<CollRequest>();
  mpi::Proc* proc = &p_;
  // The helper starts at the current virtual instant and runs whenever the
  // rank's main fiber blocks or sleeps — overlap with compute for free.
  p_.self().simulator().spawn(
      "rank" + std::to_string(p_.rank()) + "/" + label,
      [run = std::move(run), proc, comm = comm_, request,
       ... args = std::move(args)](sim::SimProcess& helper) {
        const mpi::Proc::HelperScope scope(*proc, helper);
        using Result = decltype(run(*proc, comm, args...));
        if constexpr (std::is_same_v<Result, Buffer>) {
          request->result() = run(*proc, comm, args...);
        } else if constexpr (std::is_same_v<Result, std::vector<Buffer>>) {
          request->blocks() = run(*proc, comm, args...);
        } else {
          run(*proc, comm, args...);
        }
        request->finish(helper.now());
      });
  return request;
}

std::shared_ptr<CollRequest> Coll::ibcast(Buffer& buffer, int root,
                                          const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return spawn_run<BcastRun>("ibcast", buffer.size(), algo, std::ref(buffer),
                             root);
}

std::shared_ptr<CollRequest> Coll::ibarrier(const std::string& algo) {
  return spawn_run<BarrierRun>("ibarrier", 0, algo);
}

std::shared_ptr<CollRequest> Coll::iallreduce(
    std::span<const std::uint8_t> data, mpi::Op op, mpi::Datatype type,
    const std::string& algo) {
  return spawn_run<AllreduceRun>("iallreduce", data.size(), algo,
                                 Buffer(data.begin(), data.end()), op, type);
}

std::shared_ptr<CollRequest> Coll::ireduce(std::span<const std::uint8_t> data,
                                           mpi::Op op, mpi::Datatype type,
                                           int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return spawn_run<ReduceRun>("ireduce", data.size(), algo,
                              Buffer(data.begin(), data.end()), op, type,
                              root);
}

std::shared_ptr<CollRequest> Coll::igather(std::span<const std::uint8_t> data,
                                           int root, const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return spawn_run<GatherRun>("igather", data.size(), algo,
                              Buffer(data.begin(), data.end()), root);
}

std::shared_ptr<CollRequest> Coll::iscatter(const std::vector<Buffer>& chunks,
                                            int root, std::size_t chunk_bytes,
                                            const std::string& algo) {
  MC_EXPECTS(root >= 0 && root < comm_.size());
  return spawn_run<ScatterRun>("iscatter", chunk_bytes, algo, chunks, root);
}

std::shared_ptr<CollRequest> Coll::ialltoall(
    const std::vector<Buffer>& to_each, std::size_t block_bytes,
    const std::string& algo) {
  return spawn_run<AlltoallRun>("ialltoall", block_bytes, algo, to_each);
}

}  // namespace mcmpi::coll

namespace mcmpi::mpi {

coll::Coll Comm::coll() const {
  MC_EXPECTS_MSG(proc_ != nullptr,
                 "comm.coll() needs a Proc-bound communicator handle "
                 "(comm_world / dup / split)");
  return coll::Coll(*proc_, *this);
}

}  // namespace mcmpi::mpi
