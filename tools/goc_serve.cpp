/// \file goc_serve.cpp
/// The engine daemon binary.
///
/// Default mode reads the line protocol from stdin and answers on stdout —
/// scriptable with a heredoc or a coprocess, and what the CI smoke lane
/// drives. `--port=N` serves the same protocol over a loopback-only TCP
/// listener instead (one client at a time; jobs are still asynchronous
/// on the shared pool): `quit` ends that client's connection and the
/// daemon accepts the next one. Port 0 asks the OS for a free port; the
/// chosen one is announced on stdout. Remote exposure, auth, and
/// admission control are explicitly out of scope (see ROADMAP follow-ups)
/// — the listener binds 127.0.0.1 only.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stats_log.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

bool send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ::ssize_t n = ::send(fd, text.data() + off, text.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int serve_tcp(goc::serve::Server& server, std::uint16_t port, bool verbose) {
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "goc-serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 4) != 0) {
    std::cerr << "goc-serve: bind/listen: " << std::strerror(errno) << "\n";
    ::close(listener);
    return 1;
  }
  ::socklen_t len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<::sockaddr*>(&addr), &len) ==
      0) {
    std::cout << "listening on 127.0.0.1:" << ntohs(addr.sin_port)
              << std::endl;
  }
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::cerr << "goc-serve: accept: " << std::strerror(errno) << "\n";
      break;
    }
    if (verbose) std::cerr << "goc-serve: client connected\n";
    std::string buffer;
    char chunk[4096];
    bool open = true;
    while (open) {
      const ::ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos;
      while (open && (pos = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        std::ostringstream reply;
        const bool keep = server.handle_line(line, reply);
        if (!send_all(fd, reply.str())) open = false;
        if (!keep) open = false;
      }
    }
    ::close(fd);
  }
  ::close(listener);
  return 0;
}

int run(int argc, char** argv) {
  const goc::Cli cli(argc, argv);
  if (cli.refuse_unknown({"threads", "port", "help", "verbose", "stats-log",
                          "stats-interval"})) {
    return 2;
  }
  if (cli.get_bool("help", false)) {
    std::cout << "goc-serve [--threads=N] [--port=P] [--verbose]\n"
              << "          [--stats-log=PATH] [--stats-interval=MS]\n"
              << "  line protocol on stdin/stdout (or a loopback TCP\n"
              << "  listener with --port; port 0 = OS-assigned).\n"
              << "  --verbose also reports connections and setup on\n"
              << "  stderr (errors always go there); --stats-log appends\n"
              << "  one JSON metrics snapshot per interval (default\n"
              << "  1000 ms) to PATH as JSONL.\n"
              << "  Type 'help' at the prompt for the command grammar.\n";
    return 0;
  }
  // Every flag is read before the first file, socket or thread, so a
  // malformed value refuses the run before it starts.
  const bool verbose = cli.get_bool("verbose", false);
  std::optional<std::uint16_t> port;
  if (cli.has("port")) {
    const std::uint64_t value = cli.get_u64("port", 0);
    if (value > 65535) {
      std::cerr << "goc-serve: --port expects 0..65535, got " << value << "\n";
      return 2;
    }
    port = static_cast<std::uint16_t>(value);
  }
  goc::obs::StatsLogger::Options log_options;
  log_options.path = cli.get_string("stats-log", "");
  log_options.interval_ms = cli.get_u64("stats-interval", 1000);
  goc::serve::ServerOptions options;
  options.threads = cli.get_u64("threads", 0);

  std::unique_ptr<goc::obs::StatsLogger> stats_log;
  if (cli.has("stats-log")) {
    try {
      stats_log = std::make_unique<goc::obs::StatsLogger>(log_options);
    } catch (const std::exception& error) {
      std::cerr << "goc-serve: " << error.what() << "\n";
      return 2;
    }
    if (verbose) {
      std::cerr << "goc-serve: stats JSONL -> " << log_options.path
                << " every " << log_options.interval_ms << " ms\n";
    }
  }
  goc::serve::Server server(options);
  if (verbose) {
    std::cerr << "goc-serve: pool ready with " << server.lanes() << " lanes\n";
  }
  if (port) return serve_tcp(server, *port, verbose);
  server.serve(std::cin, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return goc::run_main(argc, argv, run); }
