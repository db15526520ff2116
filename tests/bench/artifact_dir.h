// Test scaffolding for the bench harness's documents: a fresh directory
// per test (BENCH_<name>.json lands there too, via $DLTE_BENCH_DIR) and
// a harness parsed from flags the way a bench's main() parses argv.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_harness.h"

namespace dlte::bench {

inline void parse_flags(Harness& harness, std::vector<std::string> flags) {
  std::vector<char*> argv{nullptr};
  for (std::string& flag : flags) argv.push_back(flag.data());
  harness.parse_args(static_cast<int>(argv.size()), argv.data());
}

// The file's bytes, or "" when it does not exist.
inline std::string read_file(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(f), {}};
}

class ArtifactDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dlte_bench_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    ::setenv("DLTE_BENCH_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("DLTE_BENCH_DIR");
    std::filesystem::remove_all(dir_);
  }

  // `<dir>/<name>`: an --artifacts prefix or a file path.
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

}  // namespace dlte::bench
