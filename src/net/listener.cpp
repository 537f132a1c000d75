#include "net/listener.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "obs/metrics.h"

namespace saad::net {

bool TcpListener::start(const std::string& bind_address, std::uint16_t port,
                        std::size_t max_connections,
                        std::chrono::milliseconds deadline) {
  if (running()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  auto* name = reinterpret_cast<sockaddr*>(&addr);
  socklen_t len = sizeof addr;
  int pipe_fds[2];
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, name, sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0 ||
      ::getsockname(listen_fd_, name, &len) != 0 || ::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(addr.sin_port);
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  max_connections_ = max_connections;
  deadline_ = deadline;
  recv_buf_.resize(64 * 1024);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void TcpListener::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  [[maybe_unused]] const auto n = ::write(wake_wr_, "", 1);  // one NUL byte
  if (thread_.joinable()) thread_.join();
  // The fds are closed here, not in run(): a concurrent stop() caller reads
  // wake_wr_, so only the thread that joined may invalidate them.
  for (int* fd : {&listen_fd_, &wake_rd_, &wake_wr_}) {
    ::close(*fd);
    *fd = -1;
  }
  running_.store(false, std::memory_order_release);
}

void TcpListener::run() {
  // With SIGPIPE blocked, a handler's write to a peer that hung up returns
  // EPIPE; the signal stays pending on this thread and dies with it.
  sigset_t pipe_signal;
  sigemptyset(&pipe_signal);
  sigaddset(&pipe_signal, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);

  std::vector<pollfd> fds;
  int wait_ms = -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : connections_) fds.push_back({conn->fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), wait_ms) < 0 && errno != EINTR) break;

    if (fds[1].revents & POLLIN) {
      for (int fd; (fd = ::accept(listen_fd_, nullptr, nullptr)) >= 0;) {
        if (connections_.size() >= max_connections_) {
          rejected_.fetch_add(1, kRelaxed);
          metrics_.rejected.inc();
          ::close(fd);
          continue;
        }
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        connections_.push_back(handler_.open());
        connections_.back()->fd = fd;
        connections_.back()->opened = std::chrono::steady_clock::now();
        accepted_.fetch_add(1, kRelaxed);
        metrics_.accepted.inc();
        active_.store(connections_.size(), kRelaxed);
        metrics_.active.set(static_cast<std::int64_t>(connections_.size()));
      }
    }

    // fds[i + 2] belongs to connections_[i] as polled (accepts only append);
    // iterate backwards so drop()'s erase cannot shift a not-yet-visited
    // entry.
    for (std::size_t i = fds.size() - 2; i-- > 0;) {
      if (fds[i + 2].revents == 0) continue;
      Connection& conn = *connections_[i];
      for (;;) {
        const ssize_t n =
            ::recv(conn.fd, recv_buf_.data(), recv_buf_.size(), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n > 0 && handler_.received(conn, {recv_buf_.data(),
                                              static_cast<std::size_t>(n)}))
          continue;
        // The handler is done with it, the peer closed, or a socket error.
        drop(i, n > 0 ? Close::kHandled : Close::kTorn);
        break;
      }
    }
    wait_ms = expire(handler_.round());
  }
  while (!connections_.empty()) drop(connections_.size() - 1, Close::kTorn);
}

void TcpListener::drop(std::size_t index, Close why) {
  handler_.closed(*connections_[index], why);
  ::close(connections_[index]->fd);
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  active_.store(connections_.size(), kRelaxed);
  metrics_.active.set(static_cast<std::int64_t>(connections_.size()));
}

// Closes the connections open for the whole deadline, oldest first, and
// returns the handler's poll wait cut to the next one's due time.
int TcpListener::expire(int wait_ms) {
  if (deadline_.count() == 0) return wait_ms;
  const auto now = std::chrono::steady_clock::now();
  while (!connections_.empty() &&
         now - connections_.front()->opened >= deadline_)
    drop(0, Close::kExpired);
  if (connections_.empty()) return wait_ms;
  const int due_ms = static_cast<int>(
      std::chrono::ceil<std::chrono::milliseconds>(
          connections_.front()->opened + deadline_ - now)
          .count());
  return wait_ms < 0 ? due_ms : std::min(wait_ms, due_ms);
}

}  // namespace saad::net
