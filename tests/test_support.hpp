#pragma once

// Helpers shared by the unit tests: whole-file reads and writes that bypass
// the injectable I/O facade, and a scratch directory of the test's own.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace ytcdn::test {

inline std::string file_bytes(const std::filesystem::path& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

inline void put_file(const std::filesystem::path& path, std::string_view bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A fresh directory named after the running test and the process id, so
/// tests in parallel processes (ctest -j) never share files. It is removed
/// with its contents on destruction.
class ScratchDir {
public:
    ScratchDir() {
        std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::replace(name.begin(), name.end(), '/', '_');  // parameterized
        path_ = std::filesystem::temp_directory_path() /
                ("ytcdn_" + name + "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

private:
    std::filesystem::path path_;
};

}  // namespace ytcdn::test
