// TcpListener — the one poll()-based TCP listener under serve's two network
// entry points, SynopsisServer (net/server.h) and AdminServer (net/http.h).
// It owns the listening socket, the self-pipe stop() wakes poll() with, the
// I/O thread, accept with its max_connections refusal, the non-blocking recv
// loop and connection close. A server adds its per-connection state (a
// Connection subclass) and what it does with received bytes (a Handler).
//
// Every Handler call runs on the I/O thread, which blocks SIGPIPE: a write
// to a peer that hung up fails with EPIPE instead of killing the process.
// poll() waits for a socket, stop(), the oldest connection's deadline, or
// the wait the handler asked for; with none of those due it never times out.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace saad::obs {
class Counter;
class Gauge;
}  // namespace saad::obs

namespace saad::net {

class TcpListener {
 public:
  /// One accepted connection; the listener owns it from accept to close.
  struct Connection {
    virtual ~Connection() = default;
    int fd = -1;
    std::chrono::steady_clock::time_point opened;  // at accept
  };

  enum class Close : std::uint8_t {
    kHandled,  // received() returned false
    kTorn,     // the peer hung up, the socket failed, or stop() ran
    kExpired,  // still open at the deadline start() was given
  };

  /// What a server does with its connections; called on the I/O thread.
  class Handler {
   public:
    virtual std::unique_ptr<Connection> open() = 0;
    /// Bytes arrived on `conn`; false closes it as Close::kHandled.
    virtual bool received(Connection& conn,
                          std::span<const std::uint8_t> bytes) = 0;
    /// `conn` is about to close; its fd is still open.
    virtual void closed(Connection& conn, Close why) = 0;
    /// End of every poll round: how long the next poll may wait for the
    /// handler's sake, in ms (-1: no limit).
    virtual int round() { return -1; }

   protected:
    ~Handler() = default;
  };

  /// The owning server's metric families for what the listener counts.
  struct Metrics {
    obs::Counter &accepted, &rejected;  // rejected: over max_connections
    obs::Gauge& active;
  };

  TcpListener(Handler& handler, Metrics metrics)
      : handler_(handler), metrics_(metrics) {}
  ~TcpListener() { stop(); }

  /// Binds and listens on bind_address:port (0 = ephemeral) and spawns the
  /// I/O thread; false on failure. Connections past max_connections are
  /// closed at accept, and a connection still open `deadline` after its
  /// accept is closed as Close::kExpired (zero: never).
  bool start(const std::string& bind_address, std::uint16_t port,
             std::size_t max_connections,
             std::chrono::milliseconds deadline = {});

  /// Wakes the I/O thread, which closes every connection as Close::kTorn;
  /// joins it; then closes the listening socket and the pipe. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }  // valid after start()
  std::uint64_t accepted() const { return accepted_.load(kRelaxed); }
  std::uint64_t rejected() const { return rejected_.load(kRelaxed); }
  std::size_t active() const { return active_.load(kRelaxed); }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  void run();
  void drop(std::size_t index, Close why);
  int expire(int wait_ms);

  Handler& handler_;
  Metrics metrics_;
  std::size_t max_connections_ = 0;
  std::chrono::milliseconds deadline_{0};
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Connection>> connections_;  // accept order
  std::vector<std::uint8_t> recv_buf_;
  std::thread thread_;
  std::atomic<bool> running_{false}, stopping_{false};
  std::atomic<std::uint64_t> accepted_{0}, rejected_{0};
  std::atomic<std::size_t> active_{0};
};

}  // namespace saad::net
