#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace goc::io {
namespace {

/// Test-local inverse of json_escape, strict: rejects anything the escaper
/// would not produce.
std::string json_unescape(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (static_cast<unsigned char>(ch) < 0x20) {
      throw std::invalid_argument("raw control character survived escaping");
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (++i >= text.size()) throw std::invalid_argument("dangling backslash");
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= text.size()) {
          throw std::invalid_argument("truncated \\u escape");
        }
        unsigned value = 0;
        for (int d = 0; d < 4; ++d) {
          const char hex = text[++i];
          value <<= 4;
          if (hex >= '0' && hex <= '9') {
            value |= static_cast<unsigned>(hex - '0');
          } else if (hex >= 'a' && hex <= 'f') {
            value |= static_cast<unsigned>(hex - 'a' + 10);
          } else {
            throw std::invalid_argument("non-hex digit in \\u escape");
          }
        }
        if (value >= 0x20) {
          throw std::invalid_argument("\\u escape outside control range");
        }
        out += static_cast<char>(value);
        break;
      }
      default:
        throw std::invalid_argument("unknown escape");
    }
  }
  return out;
}

TEST(SerializeErrors, JsonEscapeKnownSequences) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passthrough
}

TEST(SerializeErrors, JsonEscapeRoundTripFuzz) {
  Rng rng(0x15CA9E);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    const std::size_t len = rng.next_below(64);
    for (std::size_t i = 0; i < len; ++i) {
      // Bias toward the interesting bytes: controls, quote, backslash.
      const std::uint64_t pick = rng.next_below(4);
      char ch;
      if (pick == 0) {
        ch = static_cast<char>(rng.next_below(0x20));  // control range
      } else if (pick == 1) {
        ch = rng.bernoulli(0.5) ? '"' : '\\';
      } else {
        ch = static_cast<char>(rng.next_below(256));
      }
      input += ch;
    }
    const std::string escaped = json_escape(input);
    ASSERT_EQ(json_unescape(escaped), input)
        << "trial " << trial << " escaped form: " << escaped;
  }
}

TEST(SerializeErrors, AtomicWriteReplacesAndCleansUp) {
  const std::string path = "/tmp/goc_io_test_atomic.json";
  atomic_write_file("first", path);
  atomic_write_file("second", path);
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  std::remove(path.c_str());
  // Failure leaves neither the target nor a stray .tmp behind.
  EXPECT_THROW(atomic_write_file("x", "/nonexistent/dir/file.json"),
               std::runtime_error);
}

/// Open descriptors of this process (via /proc/self/fd). The count
/// includes the directory fd used for the scan itself, identically on
/// every call — so equality across calls means no descriptor leaked.
std::size_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  EXPECT_NE(dir, nullptr);
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Regression: `atomic_write_file` once short-circuited
/// `fsync(fd) != 0 || close(fd) != 0`, leaking the descriptor whenever
/// fsync failed — fatal for a long-lived daemon checkpointing per wave.
/// Descriptors must be conserved across *every* failure path. The forced
/// failures here are ones that work for any uid (root ignores read-only
/// directory permissions): open() on a path whose .tmp is a directory
/// (EISDIR), and rename() onto a non-empty directory (ENOTEMPTY) — the
/// latter exercising the full open/write/fsync/close sequence first.
TEST(SerializeErrors, AtomicWriteConservesFdsOnFailurePaths) {
  const std::string base = "/tmp/goc_io_test_fdleak";
  const std::string tmp_dir = base + ".tmp";
  ASSERT_EQ(::mkdir(tmp_dir.c_str(), 0755), 0);
  const std::size_t before = count_open_fds();
  for (int i = 0; i < 8; ++i) {
    EXPECT_THROW(atomic_write_file("x", base), std::runtime_error);
  }
  EXPECT_EQ(count_open_fds(), before);
  ASSERT_EQ(::rmdir(tmp_dir.c_str()), 0);

  // rename failure: the target is a non-empty directory, so the write,
  // fsync and close all succeed and only the final rename throws.
  const std::string dir_target = "/tmp/goc_io_test_fdleak_dir";
  ASSERT_EQ(::mkdir(dir_target.c_str(), 0755), 0);
  const std::string inner = dir_target + "/occupied";
  atomic_write_file("occupied", inner);
  const std::size_t before_rename = count_open_fds();
  for (int i = 0; i < 8; ++i) {
    EXPECT_THROW(atomic_write_file("x", dir_target), std::runtime_error);
  }
  EXPECT_EQ(count_open_fds(), before_rename);
  // The failure also removed its tmp file.
  std::ifstream tmp_left(dir_target + ".tmp");
  EXPECT_FALSE(tmp_left.good());
  std::remove(inner.c_str());
  ASSERT_EQ(::rmdir(dir_target.c_str()), 0);
}

}  // namespace
}  // namespace goc::io
