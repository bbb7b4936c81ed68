#pragma once
/// \file socket.hpp
/// RAII wrappers over the real Berkeley socket API.
///
/// This is the same API surface the paper's implementation used (UDP
/// sockets, IP_ADD_MEMBERSHIP, class-D destination addresses), pointed at
/// the loopback interface so the whole "cluster" fits in one process.
/// Errors throw std::system_error; receive timeouts return std::nullopt.
///
/// Receives land in per-socket slots mapped once and reused: each datagram
/// is copied exactly once, from its slot into the caller's buffer.

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mcmpi::posix {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Owning anonymous private mapping.  Pages are committed only where they
/// are written, and the bytes never pass through malloc.
class MappedBytes {
 public:
  MappedBytes() = default;
  explicit MappedBytes(std::size_t size);
  ~MappedBytes();
  MappedBytes(MappedBytes&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  MappedBytes& operator=(MappedBytes&& other) noexcept;
  MappedBytes(const MappedBytes&) = delete;
  MappedBytes& operator=(const MappedBytes&) = delete;

  std::uint8_t* data() const { return data_; }
  bool empty() const { return data_ == nullptr; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

struct ReceivedDatagram {
  std::vector<std::uint8_t> data;
  std::uint32_t src_addr = 0;  // host byte order
  std::uint16_t src_port = 0;
};

/// A received datagram seen in place, in its socket's landing slot.  Valid
/// until the next receive call on the same socket.
struct DatagramView {
  std::span<const std::uint8_t> data;
  std::uint32_t src_addr = 0;  // host byte order
  std::uint16_t src_port = 0;
};

/// A real UDP socket bound to 127.0.0.1.
class RealUdpSocket {
 public:
  /// Creates and binds to `port` (0 = ephemeral).  `shared` enables
  /// SO_REUSEADDR so several multicast members can share a port.  Leave it
  /// off for unicast endpoints: Linux may give an ephemeral port that a
  /// shared socket already holds to another shared socket, and unicast to
  /// that port then reaches only one of the two.
  explicit RealUdpSocket(std::uint16_t port, bool shared = false);

  std::uint16_t port() const { return port_; }

  /// Joins `group` (class-D, host byte order) on the loopback interface and
  /// routes our own multicast transmissions through loopback too.
  void join_multicast(std::uint32_t group);

  /// Sends to 127.0.0.1:`port` (unicast) or to `addr`:`port` if `addr` is a
  /// class-D group.
  void send_to(std::uint32_t addr, std::uint16_t port,
               std::span<const std::uint8_t> data);

  /// Gather-send: one datagram assembled by the KERNEL from `parts`
  /// (sendmsg + iovec), mirroring the simulated stack's zero-copy
  /// gather-send — a protocol header and its payload go out as one
  /// datagram without the user-space concatenation copy.
  void send_parts(std::uint32_t addr, std::uint16_t port,
                  std::span<const std::span<const std::uint8_t>> parts);

  /// Receive timeouts, for every receive call below: a positive `timeout`
  /// blocks up to that long for the first datagram; zero polls without
  /// blocking; negative is a precondition violation.

  /// Receives one datagram; nullopt on timeout.
  std::optional<ReceivedDatagram> recv(std::chrono::milliseconds timeout);

  /// Batched receive (recvmmsg): waits for the FIRST datagram, then drains
  /// everything else already queued on the socket in the same syscall — up
  /// to `max_batch` datagrams.  Under bursty load (a multicast fan-in, a
  /// flurry of scout messages) this turns N syscalls on the hot receive
  /// loop into one.  Returns an empty vector on timeout.
  std::vector<ReceivedDatagram> recv_batch(std::chrono::milliseconds timeout,
                                           std::size_t max_batch = 8);

  /// recv_batch without the copy out: views into this socket's landing
  /// slots, valid until the next receive call on this socket.  Empty on
  /// timeout.  Falls back to a single recvfrom on platforms without
  /// recvmmsg.
  std::span<const DatagramView> recv_views(std::chrono::milliseconds timeout,
                                           std::size_t max_batch);

  /// Landing slots per socket (the largest batch one call drains) and the
  /// size of each: the largest UDP payload fits.
  static constexpr std::size_t kMaxBatch = 16;
  static constexpr std::size_t kSlotBytes = 65536;

  /// Probes whether loopback multicast works in this environment (some
  /// sandboxes forbid IP_ADD_MEMBERSHIP).  Cheap one-shot self-test.
  static bool loopback_multicast_available();

 private:
  /// Arms SO_RCVTIMEO for a blocking receive; skips the syscall when the
  /// socket already carries `timeout`.
  void set_receive_timeout(std::chrono::milliseconds timeout);

  Fd fd_;
  std::uint16_t port_ = 0;
  std::chrono::milliseconds rcvtimeo_{0};  // 0: never set (kernel default)
  MappedBytes slots_;                      // kMaxBatch x kSlotBytes, lazily
  DatagramView views_[kMaxBatch];          // the latest recv_views result
};

}  // namespace mcmpi::posix
