#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "capture/flow_record.hpp"
#include "util/error.hpp"

namespace ytcdn::capture {

/// Tstat-style flow-log persistence: one TSV line per YouTube video flow,
/// '#'-prefixed header. Round-trips exactly with read_flow_log().
void write_flow_log(std::ostream& os, const std::vector<FlowRecord>& records);
void write_flow_log(const std::filesystem::path& path,
                    const std::vector<FlowRecord>& records);

/// Result-returning readers: malformed lines yield ErrorCode::Parse with the
/// 1-based line number in the provenance; unopenable paths yield
/// ErrorCode::Io.
[[nodiscard]] util::Result<std::vector<FlowRecord>> read_flow_log_result(
    std::istream& is);
/// The one path reader for flow logs, whichever format: the format is
/// decided by content. A file that starts with the YFL2 magic decodes as
/// YFL2 whatever its name; a ".yfl" file without the magic is a damaged
/// YFL2 log (BadMagic, or Truncated when empty), never TSV; anything else
/// parses as TSV.
[[nodiscard]] util::Result<std::vector<FlowRecord>> read_flow_log_result(
    const std::filesystem::path& path);
/// The same content dispatch over a file's bytes already in hand: `path`
/// is the name the bytes were read from (a ".yfl" name marks YFL2, and
/// errors cite it), so a caller that needs the bytes too reads once.
[[nodiscard]] util::Result<std::vector<FlowRecord>> decode_flow_log(
    std::string bytes, const std::filesystem::path& path);

/// Throwing wrappers around the *_result readers; the thrown ytcdn::Error
/// derives std::runtime_error so existing catch sites are unaffected.
[[nodiscard]] std::vector<FlowRecord> read_flow_log(std::istream& is);
[[nodiscard]] std::vector<FlowRecord> read_flow_log(const std::filesystem::path& path);

}  // namespace ytcdn::capture
