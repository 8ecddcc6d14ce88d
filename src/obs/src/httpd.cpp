#include "nvcim/obs/httpd.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

namespace nvcim::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

void set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_response(int fd, const HttpResponse& resp) {
  std::ostringstream head;
  head << "HTTP/1.1 " << resp.status << ' ' << status_text(resp.status) << "\r\n"
       << "Content-Type: " << resp.content_type << "\r\n"
       << "Content-Length: " << resp.body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  const std::string h = head.str();
  return send_all(fd, h.data(), h.size()) &&
         send_all(fd, resp.body.data(), resp.body.size());
}

}  // namespace

HttpServer::HttpServer(HttpServerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.handler_threads == 0) cfg_.handler_threads = 1;
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, HttpHandler handler) {
  routes_[std::move(path)] = std::move(handler);
}

bool HttpServer::start() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_) return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return false;
  }
  bound_port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  {
    std::lock_guard<std::mutex> lk(mu_);
    started_ = true;
    stopping_ = false;
  }
  acceptor_ = std::thread(&HttpServer::accept_loop, this, fd);
  handlers_.reserve(cfg_.handler_threads);
  for (std::size_t i = 0; i < cfg_.handler_threads; ++i) {
    handlers_.emplace_back(&HttpServer::handler_loop, this);
  }
  return true;
}

void HttpServer::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Only the first caller proceeds to the joins; a concurrent or repeat
    // stop() (including the destructor after an explicit stop) returns.
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  // Unblock the accept thread: shutdown() makes a blocked accept() return.
  // The fd is closed only after the join, so the kernel cannot hand its
  // number to another socket while the loop may still call accept() on it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  // Connections accepted but never served get dropped on shutdown.
  std::deque<int> orphans;
  {
    std::lock_guard<std::mutex> lk(mu_);
    orphans.swap(pending_);
    started_ = false;
  }
  for (int fd : orphans) ::close(fd);
}

bool HttpServer::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return started_ && !stopping_;
}

void HttpServer::accept_loop(int listen_fd) {
  for (;;) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        if (conn >= 0) ::close(conn);
        return;
      }
      if (conn >= 0) {
        if (pending_.size() >= cfg_.max_pending) {
          ::close(conn);  // overloaded: shed instead of queueing unboundedly
          continue;
        }
        pending_.push_back(conn);
      }
    }
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket closed or unrecoverable
    }
    cv_.notify_one();
  }
}

void HttpServer::handler_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  set_io_timeout(fd, cfg_.recv_timeout_ms);
  std::string req;
  char buf[2048];
  // Read until the end of the header block; bodies are ignored (GET only)
  // and oversized requests are rejected rather than buffered.
  while (req.find("\r\n\r\n") == std::string::npos) {
    if (req.size() > 16 * 1024) {
      write_response(fd, HttpResponse{400, "text/plain; charset=utf-8", "request too large\n"});
      ::close(fd);
      return;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ::close(fd);  // timeout or peer went away mid-request
      return;
    }
    req.append(buf, static_cast<std::size_t>(n));
  }

  std::istringstream line(req.substr(0, req.find("\r\n")));
  std::string method, target, version;
  line >> method >> target >> version;
  HttpResponse resp;
  if (method.empty() || target.empty()) {
    resp = HttpResponse{400, "text/plain; charset=utf-8", "malformed request\n"};
  } else if (method != "GET" && method != "HEAD") {
    resp = HttpResponse{405, "text/plain; charset=utf-8", "method not allowed\n"};
  } else {
    const std::string path = target.substr(0, target.find('?'));
    const auto it = routes_.find(path);
    if (it == routes_.end()) {
      resp = HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
    } else {
      try {
        resp = it->second(target);
      } catch (const std::exception& e) {
        resp = HttpResponse{500, "text/plain; charset=utf-8",
                            std::string("handler error: ") + e.what() + "\n"};
      } catch (...) {
        resp = HttpResponse{500, "text/plain; charset=utf-8", "handler error\n"};
      }
    }
  }
  if (method == "HEAD") resp.body.clear();
  write_response(fd, resp);
  ::close(fd);
}

int http_get(const std::string& host, std::uint16_t port,
             const std::string& target, std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_io_timeout(fd, 5000);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, req.data(), req.size())) {
    ::close(fd);
    return -1;
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (resp.compare(0, 9, "HTTP/1.1 ") != 0 && resp.compare(0, 9, "HTTP/1.0 ") != 0)
    return -1;
  const int status = std::atoi(resp.c_str() + 9);
  if (status <= 0) return -1;
  if (body != nullptr) {
    const std::size_t sep = resp.find("\r\n\r\n");
    *body = sep == std::string::npos ? std::string() : resp.substr(sep + 4);
  }
  return status;
}

}  // namespace nvcim::obs
