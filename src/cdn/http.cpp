#include "cdn/http.hpp"

#include <charconv>

namespace ytcdn::cdn {

namespace {

constexpr std::string_view kVideoHostSuffix = ".c.youtube.com";
constexpr std::string_view kPlaybackPath = "/videoplayback?";

/// Returns the value of `key=` inside a query string, up to '&' or ' '.
std::optional<std::string_view> query_param(std::string_view query, std::string_view key) {
    std::size_t pos = 0;
    while (pos < query.size()) {
        const std::size_t amp = query.find('&', pos);
        const std::string_view pair =
            query.substr(pos, amp == std::string_view::npos ? amp : amp - pos);
        const std::size_t eq = pair.find('=');
        if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
            return pair.substr(eq + 1);
        }
        if (amp == std::string_view::npos) break;
        pos = amp + 1;
    }
    return std::nullopt;
}

std::optional<std::string_view> header_value(std::string_view payload,
                                             std::string_view name) {
    std::size_t pos = payload.find("\r\n");
    while (pos != std::string_view::npos && pos + 2 < payload.size()) {
        const std::size_t start = pos + 2;
        const std::size_t end = payload.find("\r\n", start);
        const std::string_view line =
            payload.substr(start, end == std::string_view::npos ? end : end - start);
        if (line.size() > name.size() + 1 && line.substr(0, name.size()) == name &&
            line[name.size()] == ':') {
            std::string_view v = line.substr(name.size() + 1);
            while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
            return v;
        }
        pos = end;
    }
    return std::nullopt;
}

}  // namespace

bool is_video_host(std::string_view host) noexcept {
    return host.size() > kVideoHostSuffix.size() &&
           host.substr(host.size() - kVideoHostSuffix.size()) == kVideoHostSuffix;
}

namespace {

/// Appends a base-10 int without a std::to_string temporary.
void append_int(std::string& out, int value) {
    char buf[16];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, end);
}

/// Appends the 11-character video id straight into the buffer.
void append_video_id(std::string& out, VideoId id) {
    char buf[VideoId::kChars];
    id.encode(buf);
    out.append(buf, VideoId::kChars);
}

}  // namespace

std::string server_hostname(int cluster_index, int server_index) {
    // Appended piecewise into one reserved buffer: GCC 12 flags the
    // equivalent chain of std::string operator+ with a false -Wrestrict.
    std::string out;
    out.reserve(40);
    out += 'v';
    append_int(out, server_index);
    out += ".lscache";
    append_int(out, cluster_index);
    out += kVideoHostSuffix;
    return out;
}

void format_request_to(std::string& out, const VideoRequestView& request) {
    out.clear();
    out += "GET /videoplayback?id=";
    append_video_id(out, request.video);
    out += "&itag=";
    append_int(out, request.itag);
    out += " HTTP/1.1\r\nHost: ";
    out += request.host;
    out += "\r\nUser-Agent: Shockwave Flash\r\nConnection: keep-alive\r\n\r\n";
}

std::string format_request(const VideoRequest& request) {
    std::string out;
    out.reserve(256);
    format_request_to(out, VideoRequestView{request.host, request.video, request.itag});
    return out;
}

std::optional<VideoRequestView> parse_request_view(std::string_view payload) noexcept {
    if (!payload.starts_with("GET ")) return std::nullopt;
    const std::size_t path_start = 4;
    const std::size_t path_end = payload.find(' ', path_start);
    if (path_end == std::string_view::npos) return std::nullopt;
    const std::string_view path = payload.substr(path_start, path_end - path_start);
    if (!path.starts_with(kPlaybackPath)) return std::nullopt;
    const std::string_view query = path.substr(kPlaybackPath.size());

    const auto id_text = query_param(query, "id");
    const auto itag_text = query_param(query, "itag");
    if (!id_text || !itag_text) return std::nullopt;

    const auto id = VideoId::parse(*id_text);
    if (!id) return std::nullopt;

    int itag = 0;
    const auto [next, ec] =
        std::from_chars(itag_text->data(), itag_text->data() + itag_text->size(), itag);
    if (ec != std::errc{} || next != itag_text->data() + itag_text->size()) {
        return std::nullopt;
    }
    if (!resolution_from_itag(itag)) return std::nullopt;

    const auto host = header_value(payload, "Host");
    if (!host || !is_video_host(*host)) return std::nullopt;

    return VideoRequestView{*host, *id, itag};
}

std::optional<VideoRequest> parse_request(std::string_view payload) {
    const auto view = parse_request_view(payload);
    if (!view) return std::nullopt;
    return VideoRequest{std::string(view->host), view->video, view->itag};
}

void format_redirect_to(std::string& out, const VideoRequestView& original,
                        std::string_view new_host) {
    out.clear();
    out += "HTTP/1.1 302 Found\r\nLocation: http://";
    out += new_host;
    out += "/videoplayback?id=";
    append_video_id(out, original.video);
    out += "&itag=";
    append_int(out, original.itag);
    out += "\r\nContent-Length: 0\r\n\r\n";
}

std::string format_redirect(const VideoRequest& original, std::string_view new_host) {
    std::string out;
    out.reserve(256);
    format_redirect_to(out, VideoRequestView{original.host, original.video, original.itag},
                       new_host);
    return out;
}

std::optional<std::string_view> parse_redirect_host_view(
    std::string_view payload) noexcept {
    if (!payload.starts_with("HTTP/1.1 302")) return std::nullopt;
    const auto location = header_value(payload, "Location");
    if (!location) return std::nullopt;
    std::string_view url = *location;
    constexpr std::string_view kScheme = "http://";
    if (!url.starts_with(kScheme)) return std::nullopt;
    url.remove_prefix(kScheme.size());
    return url.substr(0, url.find('/'));
}

std::optional<std::string> parse_redirect_host(std::string_view payload) {
    const auto host = parse_redirect_host_view(payload);
    if (!host) return std::nullopt;
    return std::string(*host);
}

}  // namespace ytcdn::cdn
