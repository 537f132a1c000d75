// AdminServer — a minimal, allocation-bounded HTTP/1.1 listener for the
// live pipeline's admin plane (/metrics, /healthz, /readyz, /statusz,
// /flightrecorder, /spans). It is deliberately not a web server:
//
//   * GET (and HEAD) only; anything else is 405.
//   * No keep-alive: every response carries `Connection: close` and the
//     connection is closed after it — a scraper opens one connection per
//     scrape, which is exactly Prometheus's model.
//   * Strict caps before allocation: the request line is bounded by
//     max_request_line bytes, the whole head (request line + headers) by
//     max_request_bytes, and the header count by max_headers; any breach is
//     rejected with 414/431 and its exact saad_http_* reject counter. Bodies
//     are never read (a request with a body is rejected as malformed).
//
// Concurrency shape: the net::TcpListener (net/listener.h) SynopsisServer
// also runs on, with its own port and I/O thread so admin traffic never
// head-of-line-blocks ingestion. Handlers run on that thread, which blocks
// SIGPIPE (a scraper that hangs up costs a failed write, not the process);
// they must only read thread-safe state (the metrics registry snapshot,
// atomics published by the serving loop). A connection with no complete
// request head 5 s after accept is closed, so idle or slow-loris
// connections hold a slot for at most that long, and each response write
// gets 5 s to make progress before a stalled reader is cut off.
//
// Every reject path has a counter (tests pin the exact attribution):
// saad_http_parse_rejects_total (400), saad_http_request_line_rejects_total
// (414), saad_http_header_rejects_total (431), saad_http_method_rejects
// (405), saad_http_not_found_total (404), saad_http_truncated_total
// (disconnect mid-request), saad_http_request_timeouts_total (no complete
// head within 5 s).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/listener.h"

namespace saad::net {

struct HttpRequest {
  std::string method;  // "GET" / "HEAD"
  std::string path;    // target with any ?query stripped
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// When set, `body` is ignored: the headers go out without Content-Length
  /// and the writer streams a close-delimited body straight to the socket
  /// (used by /flightrecorder, whose dump_to_fd writes without allocating).
  std::function<void(int fd)> body_writer;
};

const char* http_status_reason(int status);

/// Incremental request-head parser with hard caps, exposed for direct fuzz
/// testing. Feed bytes as they arrive; the parser never buffers more than
/// max_request_bytes.
class HttpParser {
 public:
  enum class Status : std::uint8_t {
    kNeedMore,       // head not complete yet
    kOk,             // request parsed into request()
    kBadRequest,     // malformed request line / header / embedded body
    kLineTooLong,    // request line over max_request_line
    kHeadersTooBig,  // head over max_request_bytes or too many headers
    kBadMethod,      // parsed, but not GET/HEAD
  };

  HttpParser(std::size_t max_request_line, std::size_t max_request_bytes,
             std::size_t max_headers)
      : max_request_line_(max_request_line),
        max_request_bytes_(max_request_bytes),
        max_headers_(max_headers) {}

  /// Consumes bytes; returns the parse state. Once a verdict other than
  /// kNeedMore is returned, further feeds return the same verdict.
  Status feed(const char* data, std::size_t n);

  const HttpRequest& request() const { return request_; }
  bool started() const { return !buffer_.empty() || done_; }

 private:
  Status finish(Status verdict);
  Status parse_head();

  std::size_t max_request_line_;
  std::size_t max_request_bytes_;
  std::size_t max_headers_;
  std::string buffer_;
  HttpRequest request_;
  bool done_ = false;
  Status verdict_ = Status::kNeedMore;
};

class AdminServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; see port()
    std::size_t max_connections = 32;
    std::size_t max_request_line = 1024;
    std::size_t max_request_bytes = 8192;
    std::size_t max_headers = 64;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  AdminServer() : AdminServer(Options()) {}
  explicit AdminServer(Options options);
  ~AdminServer();  // stop()s if still running
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers an exact-match route. Call before start(); the route table
  /// is immutable once the I/O thread runs.
  void route(std::string path, Handler handler);

  /// Binds, listens, spawns the I/O thread. False on bind/listen failure.
  bool start();

  /// Closes the listener and every connection and joins the I/O thread.
  /// Idempotent.
  void stop() { listener_.stop(); }

  bool running() const { return listener_.running(); }

  /// Actual bound port (resolves port 0); valid after start().
  std::uint16_t port() const { return listener_.port(); }

 private:
  struct Impl;

  Options options_;
  std::vector<std::pair<std::string, Handler>> routes_;
  std::unique_ptr<Impl> impl_;  // the listener's handler
  TcpListener listener_;
};

namespace detail {
void register_http_metrics();
}

}  // namespace saad::net
