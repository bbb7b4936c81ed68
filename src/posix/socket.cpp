#include "posix/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "common/assert.hpp"

// Under ASan the bytes of a landing slot beyond its datagram are poisoned,
// so a read past a view's end is reported even though the slot memory is
// mapped and reused.
#if defined(__SANITIZE_ADDRESS__)
#define MCMPI_ASAN_SLOTS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCMPI_ASAN_SLOTS 1
#endif
#endif
#ifdef MCMPI_ASAN_SLOTS
#include <sanitizer/asan_interface.h>
#endif

namespace mcmpi::posix {

namespace {
[[noreturn]] void raise_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void poison(const std::uint8_t* bytes, std::size_t size) {
#ifdef MCMPI_ASAN_SLOTS
  ASAN_POISON_MEMORY_REGION(bytes, size);
#else
  (void)bytes;
  (void)size;
#endif
}

void unpoison(const std::uint8_t* bytes, std::size_t size) {
#ifdef MCMPI_ASAN_SLOTS
  ASAN_UNPOISON_MEMORY_REGION(bytes, size);
#else
  (void)bytes;
  (void)size;
#endif
}
}  // namespace

MappedBytes::MappedBytes(std::size_t size) {
  void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) {
    raise_errno("mmap");
  }
  data_ = static_cast<std::uint8_t*>(map);
  size_ = size;
}

MappedBytes::~MappedBytes() {
  if (data_ != nullptr) {
    unpoison(data_, size_);
    ::munmap(data_, size_);
  }
}

MappedBytes& MappedBytes::operator=(MappedBytes&& other) noexcept {
  if (this != &other) {
    MappedBytes old(std::move(*this));
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Fd::~Fd() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

RealUdpSocket::RealUdpSocket(std::uint16_t port, bool shared) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    raise_errno("socket");
  }
  fd_ = Fd(fd);
  const int one = 1;
  if (shared &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    raise_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    raise_errno("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    raise_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

void RealUdpSocket::join_multicast(std::uint32_t group) {
  ip_mreq mreq{};
  mreq.imr_multiaddr.s_addr = htonl(group);
  mreq.imr_interface.s_addr = htonl(INADDR_LOOPBACK);
  if (::setsockopt(fd_.get(), IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                   sizeof mreq) != 0) {
    raise_errno("setsockopt(IP_ADD_MEMBERSHIP)");
  }
  in_addr iface{};
  iface.s_addr = htonl(INADDR_LOOPBACK);
  if (::setsockopt(fd_.get(), IPPROTO_IP, IP_MULTICAST_IF, &iface,
                   sizeof iface) != 0) {
    raise_errno("setsockopt(IP_MULTICAST_IF)");
  }
  const unsigned char loop = 1;
  if (::setsockopt(fd_.get(), IPPROTO_IP, IP_MULTICAST_LOOP, &loop,
                   sizeof loop) != 0) {
    raise_errno("setsockopt(IP_MULTICAST_LOOP)");
  }
}

void RealUdpSocket::send_to(std::uint32_t addr, std::uint16_t port,
                            std::span<const std::uint8_t> data) {
  const std::span<const std::uint8_t> one[] = {data};
  send_parts(addr, port, one);
}

void RealUdpSocket::send_parts(
    std::uint32_t addr, std::uint16_t port,
    std::span<const std::span<const std::uint8_t>> parts) {
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr =
      htonl((addr >> 28) == 0xE ? addr : INADDR_LOOPBACK);
  dst.sin_port = htons(port);

  // The kernel gathers the iovec into one datagram: header + payload leave
  // in a single sendmsg with no user-space assembly buffer — the real
  // backend's analogue of the simulated gather-send.
  constexpr std::size_t kMaxParts = 8;
  iovec iov[kMaxParts];
  MC_EXPECTS_MSG(parts.size() <= kMaxParts, "too many datagram parts");
  std::size_t total = 0;
  std::size_t used = 0;
  for (const auto& part : parts) {
    if (part.empty()) {
      continue;  // zero-length iovec entries are legal but pointless
    }
    iov[used].iov_base = const_cast<std::uint8_t*>(part.data());
    iov[used].iov_len = part.size();
    total += part.size();
    ++used;
  }
  msghdr msg{};
  msg.msg_name = &dst;
  msg.msg_namelen = sizeof dst;
  msg.msg_iov = iov;
  msg.msg_iovlen = used;
  const ssize_t sent = ::sendmsg(fd_.get(), &msg, 0);
  if (sent < 0 || static_cast<std::size_t>(sent) != total) {
    raise_errno("sendmsg");
  }
}

void RealUdpSocket::set_receive_timeout(std::chrono::milliseconds timeout) {
  if (timeout == rcvtimeo_) {
    return;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    raise_errno("setsockopt(SO_RCVTIMEO)");
  }
  rcvtimeo_ = timeout;
}

std::span<const DatagramView> RealUdpSocket::recv_views(
    std::chrono::milliseconds timeout, std::size_t max_batch) {
  MC_EXPECTS(timeout.count() >= 0);
  MC_EXPECTS(max_batch >= 1);
  // SO_RCVTIMEO = {0, 0} means "block forever" to Linux, so a zero timeout
  // never touches it: the receive is a non-blocking poll instead.
  int flags = 0;
  if (timeout.count() == 0) {
    flags = MSG_DONTWAIT;
  } else {
    set_receive_timeout(timeout);
  }
  if (slots_.empty()) {
    slots_ = MappedBytes(kMaxBatch * kSlotBytes);
  }
  const std::size_t count = std::min(max_batch, kMaxBatch);
  unpoison(slots_.data(), count * kSlotBytes);
  std::size_t got = 0;
#if defined(__linux__)
  mmsghdr msgs[kMaxBatch]{};
  iovec iovs[kMaxBatch];
  sockaddr_in srcs[kMaxBatch]{};
  for (std::size_t i = 0; i < count; ++i) {
    iovs[i].iov_base = slots_.data() + i * kSlotBytes;
    iovs[i].iov_len = kSlotBytes;
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &srcs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof srcs[i];
  }
  // MSG_WAITFORONE: wait (bounded by SO_RCVTIMEO) until one datagram is
  // readable, then return it plus whatever else is already queued —
  // exactly the "one wake-up drains the burst" shape the hot loop wants.
  const int n = ::recvmmsg(fd_.get(), msgs, static_cast<unsigned>(count),
                           flags | MSG_WAITFORONE, nullptr);
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    raise_errno("recvmmsg");
  }
  for (int i = 0; i < n; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    views_[slot] = DatagramView{
        {slots_.data() + slot * kSlotBytes, msgs[i].msg_len},
        ntohl(srcs[i].sin_addr.s_addr),
        ntohs(srcs[i].sin_port)};
  }
  got = n > 0 ? static_cast<std::size_t>(n) : 0;
#else
  sockaddr_in src{};
  socklen_t src_len = sizeof src;
  const ssize_t n =
      ::recvfrom(fd_.get(), slots_.data(), kSlotBytes, flags,
                 reinterpret_cast<sockaddr*>(&src), &src_len);
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    raise_errno("recvfrom");
  }
  if (n >= 0) {
    views_[0] = DatagramView{{slots_.data(), static_cast<std::size_t>(n)},
                             ntohl(src.sin_addr.s_addr), ntohs(src.sin_port)};
    got = 1;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t used = i < got ? views_[i].data.size() : 0;
    poison(slots_.data() + i * kSlotBytes + used, kSlotBytes - used);
  }
  return {views_, got};
}

std::optional<ReceivedDatagram> RealUdpSocket::recv(
    std::chrono::milliseconds timeout) {
  const auto views = recv_views(timeout, 1);
  if (views.empty()) {
    return std::nullopt;
  }
  const DatagramView& v = views.front();
  return ReceivedDatagram{{v.data.begin(), v.data.end()}, v.src_addr,
                          v.src_port};
}

std::vector<ReceivedDatagram> RealUdpSocket::recv_batch(
    std::chrono::milliseconds timeout, std::size_t max_batch) {
  std::vector<ReceivedDatagram> out;
  for (const DatagramView& v : recv_views(timeout, max_batch)) {
    out.push_back(ReceivedDatagram{{v.data.begin(), v.data.end()},
                                   v.src_addr, v.src_port});
  }
  return out;
}

bool RealUdpSocket::loopback_multicast_available() {
  try {
    constexpr std::uint32_t kProbeGroup = 0xEFFF00FDu;  // 239.255.0.253
    RealUdpSocket receiver(0);
    receiver.join_multicast(kProbeGroup);
    RealUdpSocket sender(0);
    sender.join_multicast(kProbeGroup);  // sets IP_MULTICAST_IF to loopback
    const std::uint8_t probe[] = {0x5a, 0xa5};
    sender.send_to(kProbeGroup, receiver.port(), probe);
    const auto got = receiver.recv(std::chrono::milliseconds(300));
    return got.has_value() && got->data.size() == 2 && got->data[0] == 0x5a;
  } catch (const std::system_error&) {
    return false;
  }
}

}  // namespace mcmpi::posix
