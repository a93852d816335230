#include "capture/log_io.hpp"

#include "capture/binary_log.hpp"
#include "capture/flow_log.hpp"

namespace ytcdn::capture {

bool is_binary_log_path(const std::filesystem::path& path) {
    return path.extension() == ".yfl";
}

void write_any_log(const std::filesystem::path& path,
                   const std::vector<FlowRecord>& records) {
    if (is_binary_log_path(path)) {
        write_binary_log(path, records);
    } else {
        write_flow_log(path, records);
    }
}

}  // namespace ytcdn::capture
