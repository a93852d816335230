#include "service/spool.hpp"

#include <algorithm>

#include "capture/flow_log.hpp"

namespace ytcdn::service {

namespace {

bool has_suffix(const std::string& name, std::string_view suffix) {
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

bool is_ingestible_name(const std::string& name) {
    if (name.empty() || name.front() == '.') return false;
    if (has_suffix(name, ".tmp")) return false;
    if (name.find(".corrupt.") != std::string::npos) return false;
    return true;
}

std::vector<SpoolFile> scan_with_suffixes(
    const std::filesystem::path& dir,
    const std::vector<std::string_view>& suffixes) {
    std::vector<SpoolFile> out;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        const std::string name = entry.path().filename().string();
        if (!is_ingestible_name(name)) continue;
        bool matches = false;
        for (const auto suffix : suffixes) {
            if (has_suffix(name, suffix)) {
                matches = true;
                break;
            }
        }
        if (!matches) continue;
        SpoolFile file;
        file.path = entry.path();
        file.name = name;
        out.push_back(std::move(file));
    }
    // Directory iteration order is filesystem-dependent; the sort makes the
    // replay order (and therefore every aggregate) deterministic.
    std::sort(out.begin(), out.end(),
              [](const SpoolFile& a, const SpoolFile& b) {
                  return a.name < b.name;
              });
    return out;
}

}  // namespace

std::vector<SpoolFile> scan_spool(const std::filesystem::path& dir) {
    return scan_with_suffixes(dir, {".yfl", ".tsv"});
}

std::vector<SpoolFile> scan_dc_maps(const std::filesystem::path& dir) {
    return scan_with_suffixes(dir, {".dcmap"});
}

util::Result<std::vector<capture::FlowRecord>> read_spool_file(
    const std::filesystem::path& path) {
    return capture::read_flow_log_result(path).context("spool " + path.string());
}

util::Result<std::vector<capture::FlowRecord>> decode_spool_bytes(
    const std::filesystem::path& path, std::string bytes) {
    return capture::decode_flow_log(std::move(bytes), path)
        .context("spool " + path.string());
}

std::string stream_of(const std::string& name) {
    const std::size_t dot = name.find('.');
    std::string stem = dot == std::string::npos ? name : name.substr(0, dot);
    const std::size_t dash = stem.rfind('-');
    if (dash != std::string::npos && dash + 1 < stem.size()) {
        const std::string_view tail = std::string_view(stem).substr(dash + 1);
        if (tail.find_first_not_of("0123456789") == std::string_view::npos) {
            stem.resize(dash);
        }
    }
    return stem;
}

}  // namespace ytcdn::service
