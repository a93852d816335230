// libFuzzer entry point over the same parser surfaces as fuzz_smoke.
// Built only under -DYTCDN_FUZZ=ON with a Clang toolchain (libFuzzer ships
// with compiler-rt); the default build and CI rely on the deterministic
// fuzz_smoke ctest instead.
//
//   cmake -B build-fuzz -DYTCDN_FUZZ=ON -DCMAKE_CXX_COMPILER=clang++
//   cmake --build build-fuzz --target fuzz_parsers
//   ./build-fuzz/tests/fuzz/fuzz_parsers tests/fuzz/corpus
//
// The first input byte selects the parser so one corpus exercises all
// three formats; libFuzzer learns the split on its own.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "capture/binary_log.hpp"
#include "sim/fault_injector.hpp"
#include "study/checkpoint.hpp"
#include "util/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    if (size == 0) return 0;
    const std::string bytes(reinterpret_cast<const char*>(data + 1), size - 1);
    switch (data[0] % 3) {
        case 0: {
            std::istringstream in(bytes);
            (void)ytcdn::capture::read_binary_log_result(in);
            break;
        }
        case 1:
            // No logs in the directory: the payload's own checks run in
            // full, and a payload that passes them fails on the first read.
            (void)ytcdn::study::decode_traces(
                bytes, std::filesystem::temp_directory_path() / "ytcdn_fuzz_no_logs");
            break;
        case 2:
            (void)ytcdn::sim::FaultSchedule::parse_result(bytes);
            break;
    }
    return 0;
}
