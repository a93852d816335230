#include "capture/flow_log.hpp"

#include <sstream>
#include <string>

#include "capture/binary_log.hpp"
#include "capture/log_io.hpp"
#include "util/io.hpp"

namespace ytcdn::capture {

namespace {
constexpr std::string_view kHeader =
    "#client_ip\tserver_ip\tstart\tend\tbytes\tvideo_id\titag";
}

void write_flow_log(std::ostream& os, const std::vector<FlowRecord>& records) {
    os << kHeader << '\n';
    for (const auto& r : records) os << r.to_tsv() << '\n';
}

void write_flow_log(const std::filesystem::path& path,
                    const std::vector<FlowRecord>& records) {
    // Through the injectable facade: atomic (tmp + fsync + rename), so a
    // crashed or faulted writer never leaves a torn TSV under `path`.
    util::io::write_file_atomic(path,
                                [&](std::ostream& os) {
                                    write_flow_log(os, records);
                                    return static_cast<bool>(os);
                                })
        .context("write_flow_log " + path.string())
        .value_or_throw();
}

util::Result<std::vector<FlowRecord>> read_flow_log_result(std::istream& is) {
    std::vector<FlowRecord> out;
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line.front() == '#') continue;
        const auto record = FlowRecord::from_tsv(line);
        if (!record) {
            return error_at_line(ErrorCode::Parse, "read_flow_log: malformed record",
                                 line_no);
        }
        out.push_back(*record);
    }
    return out;
}

util::Result<std::vector<FlowRecord>> read_flow_log_result(
    const std::filesystem::path& path) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("read_flow_log").error();
    }
    return decode_flow_log(std::move(data).value(), path);
}

util::Result<std::vector<FlowRecord>> decode_flow_log(
    std::string bytes, const std::filesystem::path& path) {
    if (is_binary_log_bytes(bytes) || is_binary_log_path(path)) {
        return read_binary_log_bytes(bytes).context("read_binary_log " +
                                                    path.string());
    }
    std::istringstream is(std::move(bytes));
    return read_flow_log_result(is);
}

std::vector<FlowRecord> read_flow_log(std::istream& is) {
    return read_flow_log_result(is).value_or_throw();
}

std::vector<FlowRecord> read_flow_log(const std::filesystem::path& path) {
    return read_flow_log_result(path).value_or_throw();
}

}  // namespace ytcdn::capture
