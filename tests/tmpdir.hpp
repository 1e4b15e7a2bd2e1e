// Hermetic scratch directories for tests.
//
// ctest runs every gtest case in its own process, several at once under
// -j, and they all share ::testing::TempDir(). A fixed TempDir()/"name"
// path is therefore shared between sibling processes: one case's
// remove_all can pull files from under another that is still reading
// them. TestDir names its directory after the running test and the
// process id, creates it, and removes it when it goes out of scope.
// tools/lint.sh (rule 7) keeps every other test off TempDir().
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ap::test {

class TestDir {
 public:
  TestDir() : path_(unique_path()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  static std::filesystem::path unique_path() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr
                           ? std::string("global")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    for (char& c : name)
      if (c == '/') c = '_';  // parameterized suites and cases
    static int serial = 0;
    return std::filesystem::path(::testing::TempDir()) /
           ("ap_" + name + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(serial++));
  }

  std::filesystem::path path_;
};

}  // namespace ap::test
