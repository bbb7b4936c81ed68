// Per-layer probes that time one library layer by calling it directly.

#include <chrono>
#include <exception>
#include <span>

#include "coll/gf256.hpp"
#include "common/bytes.hpp"
#include "posix/socket.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace mcmpi;

void probe_gf256(Result& res, Tracer& tracer) {
  Span span(tracer, "probe gf256", "probe");
  // lossy_trunk's window geometry: its median payload (the geometric mean
  // of 2 KiB and 64 KiB, 11.3 KiB) in k = 8 data chunks with the default
  // 1/8 parity ratio, i.e. one parity row per window.
  constexpr int kData = 8;
  constexpr int kParity = 1;
  constexpr std::size_t kChunk = (11585 + kData - 1) / kData;
  std::vector<Buffer> data;
  for (int j = 0; j < kData; ++j) {
    data.push_back(pattern_payload(static_cast<std::uint64_t>(j) + 1, kChunk));
  }
  std::vector<Buffer> parity(kParity, Buffer(kChunk));
  std::vector<std::span<const std::uint8_t>> in(data.begin(), data.end());
  std::vector<std::span<std::uint8_t>> out(parity.begin(), parity.end());

  constexpr int kIters = 4000;
  const double bytes = static_cast<double>(kData * kChunk);
  std::vector<double> encode_ns, decode_ns;
  for (int round = 0; round < 7; ++round) {
    double t0 = wall_s();
    for (int i = 0; i < kIters; ++i) {
      coll::gf256::encode_parity(in, out);
    }
    encode_ns.push_back((wall_s() - t0) * 1e9 / (kIters * bytes));

    // Lose chunk 3 and rebuild it from the other seven and the parity row.
    std::vector<std::span<const std::uint8_t>> present = in;
    present[3] = {};
    const coll::gf256::ParityRow rows[] = {{0, parity[0]}};
    const int missing[] = {3};
    Buffer rebuilt(kChunk);
    const std::span<std::uint8_t> rebuilt_span[] = {rebuilt};
    t0 = wall_s();
    for (int i = 0; i < kIters; ++i) {
      coll::gf256::decode(present, rows, missing, rebuilt_span);
    }
    decode_ns.push_back((wall_s() - t0) * 1e9 / (kIters * bytes));
    if (rebuilt != data[3]) {
      res.correct = false;
      res.notes.push_back("gf256 probe: decoded chunk differs from the data");
    }
  }
  res.layer("coll.gf256_encode_ns_per_byte", median(encode_ns), "ns");
  res.layer("coll.gf256_decode_ns_per_byte", median(decode_ns), "ns");
}

void probe_posix_calls(Result& res, Tracer& tracer) {
  Span span(tracer, "probe posix", "probe");
  using std::chrono::milliseconds;
  try {
    posix::RealUdpSocket tx(0);
    posix::RealUdpSocket rx(0);
    const Buffer datagram = pattern_payload(7, 64);
    constexpr int kIters = 300;
    std::vector<double> send_us, recv_us, batch_us;
    for (int i = 0; i < kIters; ++i) {
      double t0 = wall_s();
      tx.send_to(0, rx.port(), datagram);
      send_us.push_back((wall_s() - t0) * 1e6);
      t0 = wall_s();
      const auto one = rx.recv(milliseconds(200));
      recv_us.push_back((wall_s() - t0) * 1e6);

      tx.send_to(0, rx.port(), datagram);
      t0 = wall_s();
      const auto batch = rx.recv_batch(milliseconds(200));
      batch_us.push_back((wall_s() - t0) * 1e6);
      if (!one || one->data != datagram || batch.size() != 1 ||
          batch.front().data != datagram) {
        res.correct = false;
        res.notes.push_back("posix probe: a datagram was lost or corrupted");
        break;
      }
    }
    res.layer("posix.send_us", median(send_us), "us");
    res.layer("posix.recv_us", median(recv_us), "us");
    res.layer("posix.recv_batch_us", median(batch_us), "us");
  } catch (const std::exception& e) {
    res.notes.push_back(std::string("posix probe not run: ") + e.what());
  }
}

}  // namespace perfbench
