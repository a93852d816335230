#pragma once

#include <optional>
#include <string_view>

#include "capture/flow_record.hpp"

namespace ytcdn::capture {

/// Why the classifier rejected a flow, for the sniffer's statistics.
enum class ClassifyError {
    NotHttp,         // payload is not an HTTP GET
    NotVideoRequest, // HTTP but not a /videoplayback request to a video host
};

/// DPI classification of one observed flow, mirroring Tstat's YouTube
/// module: the payload must contain a well-formed /videoplayback GET with a
/// video host, a valid 11-character VideoID and a known itag. Returns the
/// flow-log record on success.
[[nodiscard]] std::optional<FlowRecord> classify_flow(const ObservedFlow& flow);

/// Inspects only the payload and reports why it is not a YouTube video
/// request, for accounting; nullopt when it *is* one.
[[nodiscard]] std::optional<ClassifyError> classify_error(std::string_view payload);

}  // namespace ytcdn::capture
