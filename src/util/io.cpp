#include "util/io.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>

#include "util/metrics.hpp"

#include "util/host_clock.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define YTCDN_IO_POSIX 1
#endif

namespace ytcdn::util::io {

namespace {

struct IoMetrics {
    metrics::Counter operations = metrics::counter("util.io.operations");
    metrics::Counter faults = metrics::counter("util.io.faults_injected");
};

IoMetrics& io_metrics() {
    static IoMetrics m;
    return m;
}

/// splitmix64 — local so the base library stays independent of sim/.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9E37'79B9'7F4A'7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D0'49BB'1331'11EBull;
    return x ^ (x >> 31);
}

double unit_interval(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Minimal glob: '*' matches any run (including '/'), '?' one character.
bool glob_match(std::string_view pattern, std::string_view text) {
    if (pattern.empty() || pattern == "*") return true;
    std::size_t p = 0;
    std::size_t t = 0;
    std::size_t star_p = std::string_view::npos;
    std::size_t star_t = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star_p = p++;
            star_t = t;
        } else if (star_p != std::string_view::npos) {
            p = star_p + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

Error injected_error(FaultKind kind, Op op, const std::filesystem::path& path) {
    return Error(ErrorCode::Io, "injected " + std::string(to_string(kind)) +
                                    " during " + std::string(to_string(op)) +
                                    " of " + path.string());
}

void stall(double ms) {
    if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
    }
}

}  // namespace

std::string_view to_string(Op op) noexcept {
    switch (op) {
        case Op::Open: return "open";
        case Op::Read: return "read";
        case Op::Write: return "write";
        case Op::Fsync: return "fsync";
        case Op::Rename: return "rename";
        case Op::Accept: return "accept";
        case Op::Poll: return "poll";
    }
    return "?";
}

std::string_view to_string(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::None: return "none";
        case FaultKind::Eio: return "EIO";
        case FaultKind::Enospc: return "ENOSPC";
        case FaultKind::ShortWrite: return "short-write";
        case FaultKind::SlowWrite: return "slow-write";
    }
    return "?";
}

// --- FaultPlan ---------------------------------------------------------------

struct FaultPlan::State {
    mutable std::mutex mutex;
    std::vector<std::uint64_t> draws;     // per rule
    std::vector<std::int64_t> injected;   // per rule
    FaultCounts totals;
};

std::shared_ptr<FaultPlan::State> FaultPlan::make_state() {
    return std::make_shared<State>();
}

void FaultPlan::add(FaultRule rule) {
    rules_.push_back(std::move(rule));
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->draws.push_back(0);
    state_->injected.push_back(0);
}

FaultKind FaultPlan::draw(Op op, const std::filesystem::path& path,
                          double* slow_ms) {
    const std::string text = path.string();
    const std::lock_guard<std::mutex> lock(state_->mutex);
    ++state_->totals.checked;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const FaultRule& rule = rules_[i];
        if ((rule.ops & op_bit(op)) == 0) continue;
        if (!glob_match(rule.glob, text)) continue;
        const std::uint64_t seq = state_->draws[i]++;
        if (rule.max_faults >= 0 && state_->injected[i] >= rule.max_faults) {
            continue;
        }
        const std::uint64_t h =
            mix(seed_ ^ mix(static_cast<std::uint64_t>(i) + 1) ^ mix(seq));
        if (unit_interval(h) < rule.probability) {
            ++state_->injected[i];
            ++state_->totals.injected;
            io_metrics().faults.inc();
            if (slow_ms != nullptr) *slow_ms = rule.slow_ms;
            return rule.kind;
        }
    }
    return FaultKind::None;
}

FaultCounts FaultPlan::counts() const {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->totals;
}

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
    FaultPlan plan;
    std::istringstream lines{std::string(text)};
    std::string line;
    std::uint64_t line_no = 0;
    while (std::getline(lines, line)) {
        ++line_no;
        std::istringstream tokens(line);
        std::string head;
        if (!(tokens >> head) || head.front() == '#') continue;
        if (head == "seed") {
            unsigned long long seed = 0;
            if (!(tokens >> seed)) {
                return error_at_line(ErrorCode::Parse,
                                     "fault plan: seed needs an integer",
                                     line_no);
            }
            plan.seed_ = seed;
            continue;
        }
        FaultRule rule;
        if (head == "eio") {
            rule.kind = FaultKind::Eio;
        } else if (head == "enospc") {
            rule.kind = FaultKind::Enospc;
        } else if (head == "short-write") {
            rule.kind = FaultKind::ShortWrite;
        } else if (head == "slow-write") {
            rule.kind = FaultKind::SlowWrite;
        } else {
            return error_at_line(ErrorCode::Parse,
                                 "fault plan: unknown kind '" + head + "'",
                                 line_no);
        }
        bool have_p = false;
        std::string kv;
        while (tokens >> kv) {
            const auto eq = kv.find('=');
            if (eq == std::string::npos) {
                return error_at_line(ErrorCode::Parse,
                                     "fault plan: expected key=value, got '" +
                                         kv + "'",
                                     line_no);
            }
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "p") {
                char* end = nullptr;
                rule.probability = std::strtod(value.c_str(), &end);
                if (end == value.c_str() || rule.probability < 0.0 ||
                    rule.probability > 1.0) {
                    return error_at_line(
                        ErrorCode::Parse,
                        "fault plan: p must be a probability, got '" + value +
                            "'",
                        line_no);
                }
                have_p = true;
            } else if (key == "ops") {
                rule.ops = 0;
                std::istringstream ops(value);
                std::string op;
                while (std::getline(ops, op, ',')) {
                    if (op == "open") {
                        rule.ops |= op_bit(Op::Open);
                    } else if (op == "read") {
                        rule.ops |= op_bit(Op::Read);
                    } else if (op == "write") {
                        rule.ops |= op_bit(Op::Write);
                    } else if (op == "fsync") {
                        rule.ops |= op_bit(Op::Fsync);
                    } else if (op == "rename") {
                        rule.ops |= op_bit(Op::Rename);
                    } else if (op == "accept") {
                        rule.ops |= op_bit(Op::Accept);
                    } else if (op == "poll") {
                        rule.ops |= op_bit(Op::Poll);
                    } else {
                        return error_at_line(
                            ErrorCode::Parse,
                            "fault plan: unknown op '" + op + "'", line_no);
                    }
                }
                if (rule.ops == 0) {
                    return error_at_line(ErrorCode::Parse,
                                         "fault plan: empty ops list", line_no);
                }
            } else if (key == "glob") {
                rule.glob = value;
            } else if (key == "max") {
                rule.max_faults = std::strtoll(value.c_str(), nullptr, 10);
            } else if (key == "slow-ms") {
                rule.slow_ms = std::strtod(value.c_str(), nullptr);
            } else {
                return error_at_line(ErrorCode::Parse,
                                     "fault plan: unknown key '" + key + "'",
                                     line_no);
            }
        }
        if (!have_p) {
            return error_at_line(ErrorCode::Parse,
                                 "fault plan: rule is missing p=<probability>",
                                 line_no);
        }
        plan.add(std::move(rule));
    }
    return plan;
}

// --- global installation -----------------------------------------------------

namespace {

std::mutex& plan_mutex() {
    static std::mutex m;
    return m;
}

std::shared_ptr<FaultPlan>& plan_slot() {
    static std::shared_ptr<FaultPlan> plan;
    return plan;
}

/// The fault this operation draws under the installed plan (None when no
/// plan is installed). SlowWrite is resolved here: the stall happens, and
/// None is returned so callers only branch on hard faults.
FaultKind check_fault(Op op, const std::filesystem::path& path) {
    io_metrics().operations.inc();
    std::shared_ptr<FaultPlan> plan;
    {
        const std::lock_guard<std::mutex> lock(plan_mutex());
        plan = plan_slot();
    }
    if (!plan) return FaultKind::None;
    double slow_ms = 2.0;
    const FaultKind kind = plan->draw(op, path, &slow_ms);
    if (kind == FaultKind::SlowWrite) {
        stall(slow_ms);
        return FaultKind::None;
    }
    return kind;
}

}  // namespace

void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    const std::lock_guard<std::mutex> lock(plan_mutex());
    plan_slot() = std::move(plan);
}

std::shared_ptr<FaultPlan> fault_plan() {
    const std::lock_guard<std::mutex> lock(plan_mutex());
    return plan_slot();
}

Result<void> install_fault_plan_from_env() {
    const char* spec = std::getenv("YTCDN_IO_FAULTS");
    if (spec == nullptr || *spec == '\0') return {};
    std::string text;
    if (spec[0] == '@') {
        auto file = read_file(spec + 1);
        if (!file) {
            return std::move(file).context("YTCDN_IO_FAULTS").error();
        }
        text = std::move(file).value();
    } else {
        text = spec;
        std::replace(text.begin(), text.end(), ';', '\n');
    }
    auto plan = FaultPlan::parse(text);
    if (!plan) return std::move(plan).context("YTCDN_IO_FAULTS").error();
    set_fault_plan(std::make_shared<FaultPlan>(std::move(plan).value()));
    return {};
}

// --- facade operations -------------------------------------------------------

#ifdef YTCDN_IO_POSIX

namespace {

int open_retry(const char* path, int flags, mode_t mode = 0) {
    int fd = -1;
    do {
        fd = ::open(path, flags, mode);
    } while (fd < 0 && errno == EINTR);
    return fd;
}

/// Writes the whole buffer, retrying EINTR and continuing partial writes.
bool write_all(int fd, const char* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool fsync_retry(int fd) {
    int rc = -1;
    do {
        rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
    return rc == 0;
}

Error errno_error(std::string_view what, const std::filesystem::path& path) {
    return Error(ErrorCode::Io, std::string(what) + " failed for " +
                                    path.string() + ": " +
                                    std::strerror(errno));
}

/// Durability for the rename itself: the new directory entry must reach
/// stable storage. Directories that refuse to open (some filesystems) are
/// tolerated; an fsync error on an opened directory is not.
Result<void> sync_parent_dir(const std::filesystem::path& path) {
    const std::filesystem::path dir =
        path.has_parent_path() ? path.parent_path() : ".";
    const int fd = open_retry(dir.c_str(), O_RDONLY);
    if (fd < 0) return {};
    const bool ok = fsync_retry(fd);
    ::close(fd);
    if (!ok) return errno_error("fsync of parent directory", dir);
    return {};
}

}  // namespace

Result<std::string> read_file(const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    const int fd = open_retry(path.c_str(), O_RDONLY);
    if (fd < 0) return errno_error("open", path);

    std::string out;
    char buf[1 << 16];
    bool injected_read_fault = false;
    FaultKind read_fault = FaultKind::None;
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            return errno_error("read", path);
        }
        if (n == 0) break;
        if (const FaultKind f = check_fault(Op::Read, path);
            f != FaultKind::None) {
            // A short read delivers this chunk truncated before failing, so
            // the caller sees the torn prefix a real EIO would leave.
            out.append(buf, static_cast<std::size_t>(
                                f == FaultKind::ShortWrite ? n / 2 : 0));
            injected_read_fault = true;
            read_fault = f;
            break;
        }
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (injected_read_fault) {
        return injected_error(read_fault, Op::Read, path);
    }
    return out;
}

namespace {

/// write_file_atomic of the concatenated `pieces`: one fault draw per
/// fault point, however many pieces there are.
Result<void> write_pieces_atomic(const std::filesystem::path& path,
                                 std::span<const std::string_view> pieces) {
    std::error_code ec;
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path(), ec);
        if (ec) {
            return Error(ErrorCode::Io, "create_directories failed for " +
                                            path.parent_path().string());
        }
    }
    const std::filesystem::path tmp = path.string() + ".tmp";
    const auto fail = [&](Error error) {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
        return error;
    };

    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return errno_error("open", tmp);

    if (const FaultKind f = check_fault(Op::Write, path);
        f != FaultKind::None) {
        if (f == FaultKind::ShortWrite) {
            // Leave a torn temp file exactly as a real short write would,
            // then fail — the cleanup below must still remove it.
            std::size_t half = 0;
            for (const auto piece : pieces) half += piece.size();
            half /= 2;
            for (const auto piece : pieces) {
                const std::size_t n = std::min(half, piece.size());
                if (!write_all(fd, piece.data(), n)) break;
                half -= n;
            }
        }
        ::close(fd);
        return fail(injected_error(f, Op::Write, path));
    }
    for (const auto piece : pieces) {
        if (!write_all(fd, piece.data(), piece.size())) {
            ::close(fd);
            return fail(errno_error("write", tmp));
        }
    }

    if (const FaultKind f = check_fault(Op::Fsync, path);
        f != FaultKind::None) {
        ::close(fd);
        return fail(injected_error(f, Op::Fsync, path));
    }
    if (!fsync_retry(fd)) {
        ::close(fd);
        return fail(errno_error("fsync", tmp));
    }
    ::close(fd);

    if (const FaultKind f = check_fault(Op::Rename, path);
        f != FaultKind::None) {
        return fail(injected_error(f, Op::Rename, path));
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        return fail(errno_error("rename", path));
    }
    return sync_parent_dir(path);
}

}  // namespace

Result<void> rename_file(const std::filesystem::path& from,
                         const std::filesystem::path& to) {
    if (const FaultKind f = check_fault(Op::Rename, from);
        f != FaultKind::None) {
        return injected_error(f, Op::Rename, from);
    }
    if (::rename(from.c_str(), to.c_str()) != 0) {
        return errno_error("rename", from);
    }
    return {};
}

#else  // !YTCDN_IO_POSIX — portable fallback without fd-level durability.

Result<std::string> read_file(const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    std::ifstream is(path, std::ios::binary);
    if (!is) return Error(ErrorCode::Io, "cannot open " + path.string());
    if (const FaultKind f = check_fault(Op::Read, path); f != FaultKind::None) {
        return injected_error(f, Op::Read, path);
    }
    std::string out{std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>()};
    if (is.bad()) return Error(ErrorCode::Io, "read failed for " + path.string());
    return out;
}

namespace {

Result<void> write_pieces_atomic(const std::filesystem::path& path,
                                 std::span<const std::string_view> pieces) {
    std::error_code ec;
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path(), ec);
        if (ec) {
            return Error(ErrorCode::Io, "create_directories failed for " +
                                            path.parent_path().string());
        }
    }
    const std::filesystem::path tmp = path.string() + ".tmp";
    const auto fail = [&](Error error) {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
        return error;
    };
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) return Error(ErrorCode::Io, "cannot open " + tmp.string());
        if (const FaultKind f = check_fault(Op::Write, path);
            f != FaultKind::None) {
            return fail(injected_error(f, Op::Write, path));
        }
        for (const auto piece : pieces) {
            os.write(piece.data(), static_cast<std::streamsize>(piece.size()));
        }
        os.flush();
        if (!os) return fail(Error(ErrorCode::Io, "write failed for " + tmp.string()));
    }
    if (const FaultKind f = check_fault(Op::Rename, path);
        f != FaultKind::None) {
        return fail(injected_error(f, Op::Rename, path));
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) return fail(Error(ErrorCode::Io, "rename failed for " + path.string()));
    return {};
}

}  // namespace

Result<void> rename_file(const std::filesystem::path& from,
                         const std::filesystem::path& to) {
    if (const FaultKind f = check_fault(Op::Rename, from);
        f != FaultKind::None) {
        return injected_error(f, Op::Rename, from);
    }
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec) return Error(ErrorCode::Io, "rename failed for " + from.string());
    return {};
}

#endif  // YTCDN_IO_POSIX

Result<void> write_file_atomic(const std::filesystem::path& path,
                               std::string_view bytes) {
    return write_pieces_atomic(path, std::span(&bytes, 1));
}

Result<void> write_file_atomic(const std::filesystem::path& path,
                               std::span<const std::string> pieces) {
    const std::vector<std::string_view> views(pieces.begin(), pieces.end());
    return write_pieces_atomic(path, views);
}

Result<void> write_file_atomic(const std::filesystem::path& path,
                               const std::function<bool(std::ostream&)>& writer) {
    std::ostringstream buffer;
    if (!writer(buffer) || !buffer) {
        return Error(ErrorCode::Io, "serialize failed for " + path.string());
    }
    return write_file_atomic(path, buffer.str());
}

// --- streaming files ---------------------------------------------------------

namespace {

/// fsync of a just-written file by path; a no-op on hosts without
/// fd-level durability (mirroring the write_file_atomic fallback).
Result<void> sync_file_durable(const std::filesystem::path& path) {
#ifdef YTCDN_IO_POSIX
    const int fd = open_retry(path.c_str(), O_RDONLY);
    if (fd < 0) return errno_error("open", path);
    const bool ok = fsync_retry(fd);
    ::close(fd);
    if (!ok) return errno_error("fsync", path);
#else
    (void)path;
#endif
    return {};
}

Result<void> sync_parent_durable(const std::filesystem::path& path) {
#ifdef YTCDN_IO_POSIX
    return sync_parent_dir(path);
#else
    (void)path;
    return {};
#endif
}

}  // namespace

struct FileReader::Impl {
    std::ifstream is;
    std::filesystem::path path;
    std::uint64_t offset = 0;
};

FileReader::FileReader() = default;
FileReader::FileReader(FileReader&&) noexcept = default;
FileReader& FileReader::operator=(FileReader&&) noexcept = default;
FileReader::~FileReader() = default;

Result<FileReader> FileReader::open(const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    auto impl = std::make_unique<Impl>();
    impl->is.open(path, std::ios::binary);
    if (!impl->is) {
        return Error(ErrorCode::Io, "cannot open " + path.string());
    }
    impl->path = path;
    FileReader reader;
    reader.impl_ = std::move(impl);
    return reader;
}

Result<std::size_t> FileReader::read(char* buf, std::size_t max) {
    if (!impl_) return Error(ErrorCode::Io, "FileReader: not open");
    if (max == 0) return std::size_t{0};
    impl_->is.read(buf, static_cast<std::streamsize>(max));
    const auto n = static_cast<std::size_t>(impl_->is.gcount());
    if (impl_->is.bad()) {
        return Error(ErrorCode::Io, "read failed for " + impl_->path.string());
    }
    if (n > 0) {
        if (const FaultKind f = check_fault(Op::Read, impl_->path);
            f != FaultKind::None) {
            // A short read delivers a torn chunk before failing, like a
            // real EIO mid-file would.
            impl_->offset += (f == FaultKind::ShortWrite ? n / 2 : 0);
            return injected_error(f, Op::Read, impl_->path);
        }
    }
    impl_->offset += n;
    return n;
}

Result<std::size_t> FileReader::read_chunk(std::string& out, std::size_t max) {
    const std::size_t base = out.size();
    out.resize(base + max);
    auto n = read(out.data() + base, max);
    out.resize(base + (n.ok() ? n.value() : 0));
    if (!n) return n.error();
    return n.value();
}

std::uint64_t FileReader::offset() const noexcept {
    return impl_ ? impl_->offset : 0;
}

const std::filesystem::path& FileReader::path() const noexcept {
    static const std::filesystem::path empty;
    return impl_ ? impl_->path : empty;
}

void FileReader::close() { impl_.reset(); }

struct FileWriter::Impl {
    std::ofstream os;
    std::filesystem::path final_path;
    std::filesystem::path tmp_path;
    std::uint64_t logical_end = 0;
};

FileWriter::FileWriter() = default;
FileWriter::FileWriter(FileWriter&&) noexcept = default;
FileWriter& FileWriter::operator=(FileWriter&&) noexcept = default;
FileWriter::~FileWriter() { discard(); }

Result<FileWriter> FileWriter::create(const std::filesystem::path& path) {
    std::error_code ec;
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path(), ec);
        if (ec) {
            return Error(ErrorCode::Io, "create_directories failed for " +
                                            path.parent_path().string());
        }
    }
    if (const FaultKind f = check_fault(Op::Open, path); f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    auto impl = std::make_unique<Impl>();
    impl->final_path = path;
    impl->tmp_path = path.string() + ".tmp";
    impl->os.open(impl->tmp_path, std::ios::binary | std::ios::trunc);
    if (!impl->os) {
        return Error(ErrorCode::Io, "cannot open " + impl->tmp_path.string());
    }
    FileWriter writer;
    writer.impl_ = std::move(impl);
    return writer;
}

Result<void> FileWriter::append(std::string_view bytes) {
    if (!impl_) return Error(ErrorCode::Io, "FileWriter: not open");
    if (const FaultKind f = check_fault(Op::Write, impl_->final_path);
        f != FaultKind::None) {
        if (f == FaultKind::ShortWrite) {
            // Tear the temp file exactly as a real short write would; the
            // caller's discard (or our destructor) removes the evidence and
            // the final name never existed.
            impl_->os.write(bytes.data(),
                            static_cast<std::streamsize>(bytes.size() / 2));
        }
        return injected_error(f, Op::Write, impl_->final_path);
    }
    impl_->os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!impl_->os) {
        return Error(ErrorCode::Io, "write failed for " + impl_->tmp_path.string());
    }
    impl_->logical_end += bytes.size();
    return {};
}

Result<void> FileWriter::write_at(std::uint64_t offset, std::string_view bytes) {
    if (!impl_) return Error(ErrorCode::Io, "FileWriter: not open");
    if (offset + bytes.size() > impl_->logical_end) {
        return Error(ErrorCode::InvalidArgument,
                     "FileWriter::write_at: patch beyond written bytes in " +
                         impl_->tmp_path.string());
    }
    if (const FaultKind f = check_fault(Op::Write, impl_->final_path);
        f != FaultKind::None) {
        return injected_error(f, Op::Write, impl_->final_path);
    }
    impl_->os.seekp(static_cast<std::streamoff>(offset));
    impl_->os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    impl_->os.seekp(static_cast<std::streamoff>(impl_->logical_end));
    if (!impl_->os) {
        return Error(ErrorCode::Io,
                     "write_at failed for " + impl_->tmp_path.string());
    }
    return {};
}

std::uint64_t FileWriter::bytes_written() const noexcept {
    return impl_ ? impl_->logical_end : 0;
}

const std::filesystem::path& FileWriter::path() const noexcept {
    static const std::filesystem::path empty;
    return impl_ ? impl_->final_path : empty;
}

Result<void> FileWriter::publish() {
    if (!impl_) return Error(ErrorCode::Io, "FileWriter: not open");
    const auto fail = [this](Error error) {
        discard();
        return error;
    };
    impl_->os.flush();
    if (!impl_->os) {
        return fail(Error(ErrorCode::Io,
                          "flush failed for " + impl_->tmp_path.string()));
    }
    impl_->os.close();
    if (const FaultKind f = check_fault(Op::Fsync, impl_->final_path);
        f != FaultKind::None) {
        return fail(injected_error(f, Op::Fsync, impl_->final_path));
    }
    if (auto r = sync_file_durable(impl_->tmp_path); !r) {
        return fail(std::move(r).error());
    }
    // rename_file carries the Rename fault point.
    if (auto r = rename_file(impl_->tmp_path, impl_->final_path); !r) {
        return fail(std::move(r).error());
    }
    const std::filesystem::path published = impl_->final_path;
    impl_.reset();
    return sync_parent_durable(published);
}

void FileWriter::discard() {
    if (!impl_) return;
    impl_->os.close();
    std::error_code ignore;
    std::filesystem::remove(impl_->tmp_path, ignore);
    impl_.reset();
}

Result<std::filesystem::path> quarantine_file(const std::filesystem::path& path,
                                              std::size_t keep) {
    if (keep == 0) keep = kDefaultQuarantineKeep;
    if (const char* env = std::getenv("YTCDN_QUARANTINE_KEEP")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0) keep = static_cast<std::size_t>(v);
    }

    // Existing quarantined siblings: "<name>.corrupt.<k>".
    const std::filesystem::path dir =
        path.has_parent_path() ? path.parent_path() : ".";
    const std::string prefix = path.filename().string() + ".corrupt.";
    std::vector<std::pair<std::uint64_t, std::filesystem::path>> existing;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        const std::string suffix = name.substr(prefix.size());
        if (suffix.empty() ||
            suffix.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        existing.emplace_back(std::strtoull(suffix.c_str(), nullptr, 10),
                              entry.path());
    }
    std::sort(existing.begin(), existing.end());

    const std::uint64_t next = existing.empty() ? 1 : existing.back().first + 1;
    const std::filesystem::path target =
        dir / (prefix + std::to_string(next));
    if (auto r = rename_file(path, target); !r) {
        return std::move(r).context("quarantine").error();
    }

    // Keep the newest `keep` quarantined copies including the one just
    // created; delete the oldest beyond that so repeated corruption in a
    // long run cannot fill the disk.
    const std::size_t total = existing.size() + 1;
    if (total > keep) {
        const std::size_t drop = total - keep;
        for (std::size_t i = 0; i < drop && i < existing.size(); ++i) {
            std::filesystem::remove(existing[i].second, ec);
        }
    }
    return target;
}

// --- local sockets (the ytcdnd control endpoint) -----------------------------

namespace {

const std::filesystem::path& fd_label(const std::filesystem::path& what) {
    static const std::filesystem::path anonymous("<fd>");
    return what.empty() ? anonymous : what;
}

}  // namespace

#ifdef YTCDN_IO_POSIX

void close_fd(int fd) {
    if (fd < 0) return;
    int rc = -1;
    do {
        rc = ::close(fd);
    } while (rc < 0 && errno == EINTR);
}

Result<bool> poll_readable(int fd, int timeout_ms,
                           const std::filesystem::path& what) {
    const std::filesystem::path& label = fd_label(what);
    if (const FaultKind f = check_fault(Op::Poll, label);
        f != FaultKind::None) {
        return injected_error(f, Op::Poll, label);
    }
    if (fd < 0) {
        // Pure bounded wait: the service loop's pacing tick when no control
        // socket is listening.
        stall(static_cast<double>(timeout_ms));
        return false;
    }
    const double start_s = host_clock::monotonic_s();
    int remaining_ms = timeout_ms < 0 ? 0 : timeout_ms;
    for (;;) {
        struct pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        const int rc = ::poll(&p, 1, remaining_ms);
        if (rc > 0) return true;
        if (rc == 0) return false;
        if (errno != EINTR) return errno_error("poll", label);
        // EINTR: keep the original deadline instead of restarting the wait.
        const double elapsed_ms =
            (host_clock::monotonic_s() - start_s) * 1000.0;
        remaining_ms = timeout_ms - static_cast<int>(elapsed_ms);
        if (remaining_ms <= 0) return false;
    }
}

Result<std::string> read_line_fd(int fd, int timeout_ms, std::size_t max_len) {
    const std::filesystem::path& label = fd_label({});
    std::string out;
    while (out.size() < max_len) {
        auto ready = poll_readable(fd, timeout_ms, label);
        if (!ready) return std::move(ready).context("read_line").error();
        if (!ready.value()) {
            return Error(ErrorCode::Io,
                         "timed out waiting for a line on fd " +
                             std::to_string(fd));
        }
        if (const FaultKind f = check_fault(Op::Read, label);
            f != FaultKind::None) {
            return injected_error(f, Op::Read, label);
        }
        char c = 0;
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0) {
            if (errno == EINTR) continue;
            return errno_error("read", label);
        }
        if (n == 0) break;  // EOF before newline: yield the partial line.
        if (c == '\n') break;
        out.push_back(c);
    }
    return out;
}

Result<std::string> read_all_fd(int fd, int timeout_ms, std::size_t max_len) {
    const std::filesystem::path& label = fd_label({});
    std::string out;
    char buf[1 << 14];
    while (out.size() < max_len) {
        auto ready = poll_readable(fd, timeout_ms, label);
        if (!ready) return std::move(ready).context("read_all").error();
        if (!ready.value()) break;  // quiet line: treat as end of response
        if (const FaultKind f = check_fault(Op::Read, label);
            f != FaultKind::None) {
            return injected_error(f, Op::Read, label);
        }
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            return errno_error("read", label);
        }
        if (n == 0) break;  // EOF: the server closed the connection
        const std::size_t take =
            std::min(static_cast<std::size_t>(n), max_len - out.size());
        out.append(buf, take);
    }
    return out;
}

Result<void> write_fd_all(int fd, std::string_view bytes) {
    const std::filesystem::path& label = fd_label({});
    if (const FaultKind f = check_fault(Op::Write, label);
        f != FaultKind::None) {
        return injected_error(f, Op::Write, label);
    }
    if (!write_all(fd, bytes.data(), bytes.size())) {
        return errno_error("write", label);
    }
    return {};
}

namespace {

/// Fills sockaddr_un, rejecting paths too long for sun_path.
Result<sockaddr_un> unix_addr(const std::filesystem::path& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string text = path.string();
    if (text.size() >= sizeof(addr.sun_path)) {
        return Error(ErrorCode::InvalidArgument, "socket path too long (" +
                                           std::to_string(text.size()) +
                                           " bytes): " + text);
    }
    std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);
    return addr;
}

}  // namespace

Result<UnixServerSocket> UnixServerSocket::listen(
    const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path);
        f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    auto addr = unix_addr(path);
    if (!addr) return std::move(addr).context("listen").error();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return errno_error("socket", path);
    // A daemon killed with SIGKILL leaves its socket file behind; the
    // replacement instance owns the path and may reclaim it.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
               sizeof(sockaddr_un)) != 0) {
        const Error e = errno_error("bind", path);
        close_fd(fd);
        return e;
    }
    if (::listen(fd, 16) != 0) {
        const Error e = errno_error("listen", path);
        close_fd(fd);
        ::unlink(path.c_str());
        return e;
    }
    // Non-blocking so a connection that vanishes between poll and accept
    // surfaces as EAGAIN (treated as a timeout) instead of wedging the loop.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    UnixServerSocket sock;
    sock.fd_ = fd;
    sock.path_ = path;
    return sock;
}

Result<int> UnixServerSocket::accept_ready(int timeout_ms) {
    if (fd_ < 0) {
        return Error(ErrorCode::InvalidArgument,
                     "accept on a closed server socket");
    }
    auto ready = poll_readable(fd_, timeout_ms, path_);
    if (!ready) return std::move(ready).context("accept").error();
    if (!ready.value()) return -1;
    if (const FaultKind f = check_fault(Op::Accept, path_);
        f != FaultKind::None) {
        return injected_error(f, Op::Accept, path_);
    }
    for (;;) {
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) return client;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
            return -1;  // the peer vanished between poll and accept
        }
        return errno_error("accept", path_);
    }
}

Result<int> connect_unix(const std::filesystem::path& path) {
    if (const FaultKind f = check_fault(Op::Open, path);
        f != FaultKind::None) {
        return injected_error(f, Op::Open, path);
    }
    auto addr = unix_addr(path);
    if (!addr) return std::move(addr).context("connect").error();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return errno_error("socket", path);
    int rc = -1;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                       sizeof(sockaddr_un));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        const Error e = errno_error("connect", path);
        close_fd(fd);
        return e;
    }
    return fd;
}

#else  // !YTCDN_IO_POSIX — the daemon runs with its control endpoint disabled.

namespace {

Error no_sockets(const std::filesystem::path& what) {
    return Error(ErrorCode::Io,
                 "unix sockets are unavailable on this host (" + what.string() +
                     ")");
}

}  // namespace

void close_fd(int) {}

Result<bool> poll_readable(int fd, int timeout_ms,
                           const std::filesystem::path& what) {
    const std::filesystem::path& label = fd_label(what);
    if (const FaultKind f = check_fault(Op::Poll, label);
        f != FaultKind::None) {
        return injected_error(f, Op::Poll, label);
    }
    if (fd < 0) {
        stall(static_cast<double>(timeout_ms));
        return false;
    }
    return no_sockets(label);
}

Result<std::string> read_line_fd(int, int, std::size_t) {
    return no_sockets(fd_label({}));
}

Result<std::string> read_all_fd(int, int, std::size_t) {
    return no_sockets(fd_label({}));
}

Result<void> write_fd_all(int, std::string_view) {
    return no_sockets(fd_label({}));
}

Result<UnixServerSocket> UnixServerSocket::listen(
    const std::filesystem::path& path) {
    return no_sockets(path);
}

Result<int> UnixServerSocket::accept_ready(int) {
    return no_sockets(path_);
}

Result<int> connect_unix(const std::filesystem::path& path) {
    return no_sockets(path);
}

#endif  // YTCDN_IO_POSIX

UnixServerSocket::UnixServerSocket(UnixServerSocket&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
    other.path_.clear();
}

UnixServerSocket& UnixServerSocket::operator=(
    UnixServerSocket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        path_ = std::move(other.path_);
        other.fd_ = -1;
        other.path_.clear();
    }
    return *this;
}

UnixServerSocket::~UnixServerSocket() { close(); }

void UnixServerSocket::close() {
    if (fd_ >= 0) {
        close_fd(fd_);
        fd_ = -1;
    }
    if (!path_.empty()) {
        std::error_code ignore;
        std::filesystem::remove(path_, ignore);
        path_.clear();
    }
}

}  // namespace ytcdn::util::io
