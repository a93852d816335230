#include "capture/classifier.hpp"

#include "cdn/http.hpp"

namespace ytcdn::capture {

std::optional<FlowRecord> classify_flow(const ObservedFlow& flow) {
    const auto request = cdn::parse_request_view(flow.first_payload);
    if (!request) return std::nullopt;
    const auto resolution = cdn::resolution_from_itag(request->itag);
    if (!resolution) return std::nullopt;  // unreachable: parse checks itags

    FlowRecord r;
    r.client_ip = flow.client_ip;
    r.server_ip = flow.server_ip;
    r.start = flow.start;
    r.end = flow.end;
    r.bytes = flow.bytes_down;
    r.video = request->video;
    r.resolution = *resolution;
    return r;
}

std::optional<ClassifyError> classify_error(std::string_view payload) {
    if (!payload.starts_with("GET ") && !payload.starts_with("POST ")) {
        return ClassifyError::NotHttp;
    }
    if (!cdn::parse_request(payload)) return ClassifyError::NotVideoRequest;
    return std::nullopt;
}

}  // namespace ytcdn::capture
