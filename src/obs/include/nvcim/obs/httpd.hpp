#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace nvcim::obs {

/// What a handler returns; the server adds the status line, Content-Type,
/// Content-Length and Connection: close framing.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
};

/// Exact-path handler. `target` is the full request target (path plus any
/// query string) so handlers can inspect parameters if they care.
using HttpHandler = std::function<HttpResponse(const std::string& target)>;

struct HttpServerConfig {
  std::string bind = "127.0.0.1";  ///< IPv4 literal to bind
  std::uint16_t port = 0;          ///< 0 = kernel-assigned ephemeral port
};

/// Small, dependency-free blocking HTTP/1.1 server for introspection
/// endpoints: one accept thread feeding a bounded queue of connections
/// drained by a fixed handler pool. GET-only (anything else is 405),
/// one request per connection (Connection: close), exact-path routing.
/// Not a general web server — it exists so `curl :port/metrics` works
/// against a serving engine with zero third-party dependencies.
class HttpServer {
 public:
  explicit HttpServer(HttpServerConfig cfg = HttpServerConfig{});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register an exact-path handler. Must be called before start().
  void handle(std::string path, HttpHandler handler);

  /// Bind + listen + launch threads. Returns false (with no threads
  /// running) if the socket cannot be bound. Safe to call once.
  bool start();

  /// Idempotent, safe from any thread: closes the listen socket, drains the
  /// pending-connection queue and joins all threads. Also run by ~HttpServer.
  void stop();

  bool running() const;
  /// Port actually bound (resolves port 0 after start()).
  std::uint16_t port() const { return bound_port_; }
  const HttpServerConfig& config() const { return cfg_; }

 private:
  /// Takes the listen fd by value: stop() owns listen_fd_ and closes it
  /// only after joining this loop.
  void accept_loop(int listen_fd);
  void handler_loop();
  void serve_connection(int fd);

  HttpServerConfig cfg_;
  std::map<std::string, HttpHandler> routes_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;
  bool stopping_ = false;
  bool started_ = false;

  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

/// Minimal blocking HTTP/1.1 GET client (tests + tooling): connects to
/// host:port, requests `target`, returns the response status code and
/// fills `*body` when given. Returns -1 on connect/protocol failure.
int http_get(const std::string& host, std::uint16_t port,
             const std::string& target, std::string* body = nullptr);

}  // namespace nvcim::obs
