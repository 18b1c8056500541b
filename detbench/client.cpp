#include "client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace detbench {

Connection::Connection(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) throw std::runtime_error("socket path too long: " + path);
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect " + path + ": " + std::strerror(err));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string Connection::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> frame_field(const std::string& frame, std::string_view key, std::size_t from) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = frame.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  std::size_t begin = frame.find_first_not_of(' ', at + needle.size());
  if (begin == std::string::npos) return std::nullopt;
  if (begin < frame.size() && frame[begin] == '"') {
    const std::size_t end = frame.find('"', begin + 1);
    if (end == std::string::npos) return std::nullopt;
    return frame.substr(begin + 1, end - begin - 1);
  }
  const std::size_t end = frame.find_first_of(",}", begin);
  return frame.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

JobRecord Connection::run_job(const std::string& name, const std::string& program, const std::string& ir_text,
                              const std::string& options) {
  JobRecord job;
  job.name = name;
  job.program = program;
  std::string header = "JOB " + name + " " + std::to_string(ir_text.size());
  if (!options.empty()) header += " " + options;
  header += "\n";

  const auto start = std::chrono::steady_clock::now();
  send_all(header + ir_text);
  for (;;) {
    const std::string frame = read_line();
    const std::string type = frame_field(frame, "type").value_or("");
    if (type == "accepted") continue;
    if (type == "retry_after" || type == "error") {
      job.status = type == "error" ? "error" : "refused";
      break;
    }
    if (type != "result") continue;  // unsolicited frames (none expected)
    job.latency_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    job.status = frame_field(frame, "status").value_or("missing");
    job.main_return = std::stoll(frame_field(frame, "result").value_or("0"));
    job.trace_fingerprint = std::stoull(frame_field(frame, "lock_order_fingerprint").value_or("0"), nullptr, 16);
    job.memory_fingerprint = std::stoull(frame_field(frame, "memory_fingerprint").value_or("0"), nullptr, 16);
    job.run_seconds = std::stod(frame_field(frame, "run_seconds").value_or("0"));
    job.cache_hit = frame_field(frame, "cache_hit").value_or("") == "true";
    job.context_reused = frame_field(frame, "context_reused").value_or("") == "true";
    break;
  }
  return job;
}

void Connection::cache_stats(std::uint64_t& hits, std::uint64_t& misses) {
  send_all("STATS\n");
  for (;;) {
    const std::string frame = read_line();
    if (frame_field(frame, "type").value_or("") != "stats") continue;
    const std::size_t cache = frame.find("\"cache\":");
    if (cache == std::string::npos) throw std::runtime_error("stats frame without cache counters");
    hits = std::stoull(frame_field(frame, "hits", cache).value_or("0"));
    misses = std::stoull(frame_field(frame, "misses", cache).value_or("0"));
    return;
  }
}

void Connection::quit() {
  send_all("QUIT\n");
  for (;;) {
    if (frame_field(read_line(), "type").value_or("") == "bye") return;
  }
}

}  // namespace detbench
