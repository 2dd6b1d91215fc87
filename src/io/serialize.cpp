#include "io/serialize.hpp"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

namespace goc::io {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string table_to_json(const Table& table, const std::string& title) {
  return table_to_json(table, title, {});
}

std::string table_to_json(
    const Table& table, const std::string& title,
    const std::vector<std::pair<std::string, std::string>>& extras) {
  std::ostringstream os;
  os << "{\n  \"title\": \"" << json_escape(title) << "\",\n  \"headers\": [";
  const auto& headers = table.headers();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(headers[i]) << '"';
  }
  os << "],\n  \"rows\": [\n";
  const auto& rows = table.row_data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << "    [";
    for (std::size_t i = 0; i < rows[r].size(); ++i) {
      os << (i ? ", " : "") << '"' << json_escape(rows[r][i]) << '"';
    }
    os << "]" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]";
  for (const auto& [key, value] : extras) {
    os << ",\n  \"" << json_escape(key) << "\": " << value;
  }
  os << "\n}\n";
  return os.str();
}

void atomic_write_file(const std::string& content, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot open " + tmp + " for writing");
  std::size_t written = 0;
  while (written < content.size()) {
    const ::ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      throw std::runtime_error("failed writing " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync *before* rename: the rename must never become durable ahead of
  // the bytes it points at, or a crash could leave a short file under the
  // final name — exactly the torn artifact this function exists to prevent.
  // close() runs unconditionally: short-circuiting it after a failed fsync
  // would leak the descriptor, and a long-lived daemon calling this per
  // checkpoint would bleed fds until open() itself starts failing.
  const bool synced = ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("failed flushing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

}  // namespace goc::io
