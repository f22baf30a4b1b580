// A file name under the test temp directory that is unique to the test
// process, and removes its file when the test that made it ends: passed,
// failed or returned early at an ASSERT.

#ifndef GDBMICRO_TESTS_TEMP_FILE_H_
#define GDBMICRO_TESTS_TEMP_FILE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace gdbmicro {

class TempFile {
 public:
  /// `<TempDir>/<pid>_<name>`, so two test processes never share it.
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
              name) {}
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_TESTS_TEMP_FILE_H_
