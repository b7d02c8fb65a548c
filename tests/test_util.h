// Shared test helpers: status assertions, test bytes and RAII temp
// directories.

#ifndef GAEA_TESTS_TEST_UTIL_H_
#define GAEA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "util/status.h"

namespace gaea::testing {

// The Status is *copied* out of the (possibly temporary) operand before the
// end of the declaration statement; binding a reference instead would
// dangle when `expr` is `.status()` of a temporary StatusOr.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    ::gaea::Status _s = ::gaea::testing::ToStatus((expr));       \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();         \
  } while (0)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    ::gaea::Status _s = ::gaea::testing::ToStatus((expr));       \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();         \
  } while (0)

// Unwraps a StatusOr into `lhs`, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                                 \
  ASSERT_OK_AND_ASSIGN_IMPL_(GAEA_STATUS_CONCAT_(_t_sor, __LINE__), lhs, expr)
#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)                       \
  auto tmp = (expr);                                                     \
  ASSERT_TRUE(tmp.ok()) << "status: " << tmp.status().ToString();        \
  lhs = std::move(tmp).value()

inline const ::gaea::Status& ToStatus(const ::gaea::Status& s) { return s; }
template <typename T>
const ::gaea::Status& ToStatus(const ::gaea::StatusOr<T>& s) {
  return s.status();
}

// `size` deterministic pseudo-random bytes: a misplaced, dropped or
// duplicated byte in a round trip shows up as a mismatch.
inline std::string PseudoRandomBytes(size_t size, uint64_t seed) {
  std::string bytes(size, '\0');
  uint64_t x = seed;
  for (char& c : bytes) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    c = static_cast<char>(x >> 56);
  }
  return bytes;
}

// Creates a unique directory under the build tree, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("gaea_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string path() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace gaea::testing

#endif  // GAEA_TESTS_TEST_UTIL_H_
