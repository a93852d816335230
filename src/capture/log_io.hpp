#pragma once

#include <filesystem>
#include <vector>

#include "capture/flow_record.hpp"
#include "util/error.hpp"

namespace ytcdn::capture {

/// Extension-dispatched flow-log writer (`ytcdn convert`): ".yfl" writes
/// the compact binary format, anything else the Tstat-style TSV. Reading
/// needs no dispatch: read_flow_log_result(path) decides by content.
void write_any_log(const std::filesystem::path& path,
                   const std::vector<FlowRecord>& records);

/// True when the path names a binary log: write_any_log writes YFL2 there,
/// and the path reader treats it as YFL2 even without the magic.
[[nodiscard]] bool is_binary_log_path(const std::filesystem::path& path);

}  // namespace ytcdn::capture
