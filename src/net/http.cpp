#include "net/http.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"

namespace saad::net {

namespace {

// Process-wide admin-plane metrics (every AdminServer accumulates into the
// same families, like ServerMetrics in server.cpp). Each reject path has its
// own counter — tests pin the exact attribution.
struct HttpMetrics {
  obs::Counter& connections;
  obs::Counter& connections_rejected;
  obs::Counter& requests;
  obs::Counter& parse_rejects;         // 400
  obs::Counter& request_line_rejects;  // 414
  obs::Counter& header_rejects;        // 431
  obs::Counter& method_rejects;        // 405
  obs::Counter& not_found;             // 404
  obs::Counter& truncated;             // disconnect mid-request
  obs::Counter& request_timeouts;      // no complete head within kDeadline
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Gauge& active;
  obs::Histogram& request_us;

  HttpMetrics()
      : connections(obs::MetricsRegistry::global().counter(
            "saad_http_connections_total",
            "Admin-plane connections accepted.")),
        connections_rejected(obs::MetricsRegistry::global().counter(
            "saad_http_connections_rejected_total",
            "Admin-plane connections refused because max_connections was "
            "reached.")),
        requests(obs::MetricsRegistry::global().counter(
            "saad_http_requests_total",
            "Well-formed admin requests dispatched to routing.")),
        parse_rejects(obs::MetricsRegistry::global().counter(
            "saad_http_parse_rejects_total",
            "Requests rejected 400 for a malformed request line, header, or "
            "embedded body.")),
        request_line_rejects(obs::MetricsRegistry::global().counter(
            "saad_http_request_line_rejects_total",
            "Requests rejected 414 for an oversized request line.")),
        header_rejects(obs::MetricsRegistry::global().counter(
            "saad_http_header_rejects_total",
            "Requests rejected 431 for an oversized or over-counted header "
            "block.")),
        method_rejects(obs::MetricsRegistry::global().counter(
            "saad_http_method_rejects_total",
            "Requests rejected 405 (only GET and HEAD are served).")),
        not_found(obs::MetricsRegistry::global().counter(
            "saad_http_not_found_total",
            "Well-formed requests for an unregistered path (404).")),
        truncated(obs::MetricsRegistry::global().counter(
            "saad_http_truncated_total",
            "Connections that disconnected mid-request.")),
        request_timeouts(obs::MetricsRegistry::global().counter(
            "saad_http_request_timeouts_total",
            "Admin connections closed because no complete request head "
            "arrived within 5 s of accept.")),
        bytes_read(obs::MetricsRegistry::global().counter(
            "saad_http_bytes_read_total",
            "Raw bytes received on admin connections.")),
        bytes_written(obs::MetricsRegistry::global().counter(
            "saad_http_bytes_written_total",
            "Response bytes written to admin connections (excluding "
            "streamed bodies).")),
        active(obs::MetricsRegistry::global().gauge(
            "saad_http_connections_active",
            "Currently open admin connections.")),
        request_us(obs::MetricsRegistry::global().histogram(
            "saad_http_request_us",
            "Admin request latency from accept to response written.",
            obs::latency_bounds_us())) {}

  // Per-status response counters, pre-registered for every code the server
  // can emit so scrapes expose them zero-valued.
  obs::Counter& responses(int status) {
    switch (status) {
      case 200:
        return counter_for("200");
      case 400:
        return counter_for("400");
      case 404:
        return counter_for("404");
      case 405:
        return counter_for("405");
      case 414:
        return counter_for("414");
      case 431:
        return counter_for("431");
      case 503:
        return counter_for("503");
      default:
        return counter_for("500");
    }
  }

  static HttpMetrics& get() {
    static HttpMetrics* metrics = new HttpMetrics();
    return *metrics;
  }

 private:
  static obs::Counter& counter_for(const char* code) {
    return obs::MetricsRegistry::global().counter(
        "saad_http_responses_total", "Admin responses written, by status.",
        {{"code", code}});
  }
};

// A scrape gets this long from accept to a complete request head, and each
// response write as long to make progress.
constexpr std::chrono::seconds kDeadline{5};

// Full write with EINTR retry; the socket is blocking with SO_SNDTIMEO, so
// a stalled peer surfaces as EAGAIN after the timeout and we give up, and
// a peer that hung up as EPIPE (the listener's thread blocks SIGPIPE).
bool write_fully(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool equals_ignore_case(const std::string& a, const char* b) {
  const std::size_t n = std::strlen(b);
  if (a.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

}  // namespace

const char* http_status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 414:
      return "URI Too Long";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

// ---- HttpParser -------------------------------------------------------------

HttpParser::Status HttpParser::finish(Status verdict) {
  done_ = true;
  verdict_ = verdict;
  return verdict_;
}

HttpParser::Status HttpParser::feed(const char* data, std::size_t n) {
  if (done_) return verdict_;
  // Never buffer past the head cap: admit just enough extra to detect the
  // overflow, then reject.
  const std::size_t room = max_request_bytes_ + 1 > buffer_.size()
                               ? max_request_bytes_ + 1 - buffer_.size()
                               : 0;
  buffer_.append(data, std::min(n, room));

  const std::size_t head_end = buffer_.find("\r\n\r\n");
  const std::size_t bare_end = buffer_.find("\n\n");
  std::size_t end = head_end, terminator = 4;
  if (bare_end != std::string::npos && (end == std::string::npos ||
                                        bare_end < end)) {
    end = bare_end;
    terminator = 2;
  }

  if (end == std::string::npos) {
    // Head incomplete: check the caps against what has already arrived.
    const std::size_t line_end = buffer_.find('\n');
    if (line_end == std::string::npos && buffer_.size() > max_request_line_)
      return finish(Status::kLineTooLong);
    if (buffer_.size() > max_request_bytes_)
      return finish(Status::kHeadersTooBig);
    return Status::kNeedMore;
  }

  if (end + terminator < buffer_.size())
    return finish(Status::kBadRequest);  // body bytes: we never serve those
  if (end + terminator > max_request_bytes_)
    return finish(Status::kHeadersTooBig);
  return finish(parse_head());
}

HttpParser::Status HttpParser::parse_head() {
  // Split the head into lines, tolerating LF as well as CRLF.
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < buffer_.size()) {
    std::size_t nl = buffer_.find('\n', start);
    if (nl == std::string::npos) break;
    std::size_t len = nl - start;
    if (len > 0 && buffer_[start + len - 1] == '\r') --len;
    lines.emplace_back(buffer_, start, len);
    start = nl + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::kBadRequest;

  const std::string& request_line = lines[0];
  if (request_line.size() > max_request_line_) return Status::kLineTooLong;

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.find(' ', sp2 + 1) != std::string::npos)
    return Status::kBadRequest;

  request_.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);

  if (version.rfind("HTTP/1.", 0) != 0 || version.size() != 8 ||
      !std::isdigit(static_cast<unsigned char>(version[7])))
    return Status::kBadRequest;
  if (request_.method.empty() || target.empty() || target[0] != '/')
    return Status::kBadRequest;
  for (char c : request_.method) {
    if (!std::isupper(static_cast<unsigned char>(c)))
      return Status::kBadRequest;
  }
  for (char c : target) {
    if (static_cast<unsigned char>(c) <= 0x20 ||
        static_cast<unsigned char>(c) >= 0x7f)
      return Status::kBadRequest;
  }
  const std::size_t query = target.find('?');
  if (query != std::string::npos) target.resize(query);
  request_.path = std::move(target);

  if (lines.size() - 1 > max_headers_) return Status::kHeadersTooBig;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) return Status::kBadRequest;
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
      value.erase(value.begin());
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
      value.pop_back();
    // The admin plane never reads bodies; a request that announces one is
    // malformed by our rules.
    if (equals_ignore_case(key, "transfer-encoding"))
      return Status::kBadRequest;
    if (equals_ignore_case(key, "content-length") && value != "0")
      return Status::kBadRequest;
  }

  if (request_.method != "GET" && request_.method != "HEAD")
    return Status::kBadMethod;
  return Status::kOk;
}

// ---- AdminServer ------------------------------------------------------------

void detail::register_http_metrics() {
  auto& metrics = HttpMetrics::get();
  for (int code : {200, 400, 404, 405, 414, 431, 500, 503})
    metrics.responses(code);
}

namespace {

struct Connection final : TcpListener::Connection {
  explicit Connection(const AdminServer::Options& options)
      : parser(options.max_request_line, options.max_request_bytes,
               options.max_headers) {}
  HttpParser parser;
};

// Writes the response synchronously on the blocking socket, each write
// bounded by kDeadline: simpler than write-interest plumbing, and a stalled
// scraper costs at most kDeadline per write before being cut off.
void respond(const Connection& conn, const HttpResponse& response,
             bool head_only) {
  auto& metrics = HttpMetrics::get();
  ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL, 0) & ~O_NONBLOCK);
  const timeval tv{kDeadline.count(), 0};
  ::setsockopt(conn.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  const bool streamed = static_cast<bool>(response.body_writer) && !head_only;
  std::string head = "HTTP/1.1 ";
  head += std::to_string(response.status);
  head += ' ';
  head += http_status_reason(response.status);
  head += "\r\nContent-Type: ";
  head += response.content_type;
  head += "\r\nConnection: close\r\n";
  if (!streamed) {
    const std::size_t length =
        response.body_writer ? 0 : response.body.size();
    head += "Content-Length: ";
    head += std::to_string(length);
    head += "\r\n";
  }
  head += "\r\n";

  bool ok = write_fully(conn.fd, head.data(), head.size());
  std::uint64_t written = ok ? head.size() : 0;
  if (ok && !head_only) {
    if (streamed) {
      response.body_writer(conn.fd);  // close-delimited body
    } else if (!response.body_writer) {
      ok = write_fully(conn.fd, response.body.data(), response.body.size());
      if (ok) written += response.body.size();
    }
  }
  metrics.bytes_written.inc(written);
  metrics.responses(response.status).inc();
  metrics.request_us.observe(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - conn.opened)
          .count());
}

}  // namespace

// The listener's handler: parses one request per connection, answers it.
struct AdminServer::Impl final : TcpListener::Handler {
  explicit Impl(AdminServer& owner)
      : server(owner), metrics(HttpMetrics::get()) {}

  std::unique_ptr<TcpListener::Connection> open() override {
    return std::make_unique<Connection>(server.options_);
  }

  bool received(TcpListener::Connection& base,
                std::span<const std::uint8_t> chunk) override {
    auto& conn = static_cast<Connection&>(base);
    metrics.bytes_read.inc(chunk.size());
    const auto verdict = conn.parser.feed(
        reinterpret_cast<const char*>(chunk.data()), chunk.size());
    if (verdict == HttpParser::Status::kNeedMore) return true;
    serve(conn, verdict);
    return false;  // one request per connection, no keep-alive
  }

  void closed(TcpListener::Connection& base, TcpListener::Close why) override {
    const auto& conn = static_cast<const Connection&>(base);
    if (why == TcpListener::Close::kExpired)
      metrics.request_timeouts.inc();
    else if (why == TcpListener::Close::kTorn && conn.parser.started())
      metrics.truncated.inc();
  }

  // Maps a parse verdict to the response + exact reject counter, or runs
  // the routed handler on kOk.
  void serve(const Connection& conn, HttpParser::Status verdict) {
    HttpResponse response;
    bool head_only = false;
    switch (verdict) {
      case HttpParser::Status::kOk: {
        metrics.requests.inc();
        const HttpRequest& request = conn.parser.request();
        head_only = request.method == "HEAD";
        const auto it = std::find_if(
            server.routes_.begin(), server.routes_.end(),
            [&](const auto& route) { return route.first == request.path; });
        if (it == server.routes_.end()) {
          metrics.not_found.inc();
          response.status = 404;
          response.body = "not found\n";
        } else {
          response = it->second(request);
        }
        break;
      }
      case HttpParser::Status::kBadRequest:
        metrics.parse_rejects.inc();
        response.status = 400;
        response.body = "bad request\n";
        break;
      case HttpParser::Status::kLineTooLong:
        metrics.request_line_rejects.inc();
        response.status = 414;
        response.body = "request line too long\n";
        break;
      case HttpParser::Status::kHeadersTooBig:
        metrics.header_rejects.inc();
        response.status = 431;
        response.body = "headers too large\n";
        break;
      case HttpParser::Status::kBadMethod:
        metrics.method_rejects.inc();
        response.status = 405;
        response.body = "only GET and HEAD\n";
        break;
      case HttpParser::Status::kNeedMore:
        return;  // unreachable: received() filters
    }
    respond(conn, response, head_only);
  }

  AdminServer& server;
  HttpMetrics& metrics;
};

AdminServer::AdminServer(Options options)
    : options_(std::move(options)),
      impl_(std::make_unique<Impl>(*this)),
      listener_(*impl_, {impl_->metrics.connections,
                         impl_->metrics.connections_rejected,
                         impl_->metrics.active}) {
  detail::register_http_metrics();  // families exist even if start() fails
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::route(std::string path, Handler handler) {
  routes_.emplace_back(std::move(path), std::move(handler));
}

bool AdminServer::start() {
  return listener_.start(options_.bind_address, options_.port,
                         options_.max_connections, kDeadline);
}

}  // namespace saad::net
