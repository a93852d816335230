#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace ytcdn::util::io {

/// The injectable host-I/O boundary. Every file the pipeline touches goes
/// through these entry points, which consult the process-wide FaultPlan
/// before performing the real operation. With no plan installed (the
/// default) the facade is a thin wrapper over POSIX I/O with EINTR retries
/// and full durability (fsync the file *and* its parent directory before a
/// rename publishes it); with a plan installed, a deterministic, seeded
/// schedule of EIO / ENOSPC / short-write / slow-write faults fires at the
/// selected operations — which is how ctest chaos-tests the real pipeline
/// instead of a mock.

/// The primitive operations a FaultRule can select. Accept and Poll cover
/// the daemon's control-socket path (ytcdnd), so a chaos plan reaches the
/// long-running service exactly like the batch pipeline.
enum class Op : std::uint8_t { Open, Read, Write, Fsync, Rename, Accept, Poll };
inline constexpr std::size_t kNumOps = 7;

[[nodiscard]] std::string_view to_string(Op op) noexcept;
[[nodiscard]] constexpr std::uint8_t op_bit(Op op) noexcept {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(op));
}
inline constexpr std::uint8_t kAllOps = 0x7F;

/// What an injected fault pretends happened.
enum class FaultKind : std::uint8_t {
    None,
    Eio,         // the device reported an I/O error
    Enospc,      // the disk filled up
    ShortWrite,  // only part of the buffer reached the file, then EIO
    SlowWrite,   // the operation stalls (bounded sleep), then succeeds
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;

/// One line of a fault schedule: with probability `probability`, operations
/// matching `ops` on paths matching `glob` suffer a `kind` fault, at most
/// `max_faults` times (-1 = unbounded).
struct FaultRule {
    FaultKind kind = FaultKind::Eio;
    double probability = 0.0;
    std::uint8_t ops = kAllOps;
    std::string glob;             // empty or "*" matches every path
    std::int64_t max_faults = -1;
    double slow_ms = 2.0;         // stall length for SlowWrite
};

/// Counts of what a plan actually did, for the run manifest.
struct FaultCounts {
    std::uint64_t checked = 0;   // operations that consulted the plan
    std::uint64_t injected = 0;  // operations that drew a fault
};

/// A deterministic schedule of host faults. Decisions are a pure function
/// of (seed, rule index, per-rule draw counter): two runs executing the
/// same I/O sequence inject exactly the same faults. Thread-safe.
class FaultPlan {
public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

    void add(FaultRule rule);
    [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }

    /// Parses the fault-plan text format, one rule per line:
    ///
    ///   # chaos at one percent
    ///   seed 42
    ///   eio p=0.01 ops=open,write glob=*.yfl max=3
    ///   enospc p=0.002 ops=write,fsync,rename
    ///   short-write p=0.01 ops=write
    ///   slow-write p=0.05 slow-ms=5
    ///
    /// Kinds: eio | enospc | short-write | slow-write. `p=` is required;
    /// ops/glob/max/slow-ms are optional (default: all ops, every path,
    /// unbounded, 2 ms).
    [[nodiscard]] static Result<FaultPlan> parse(std::string_view text);

    /// The fault (or None) this operation draws. Advances the schedule.
    /// For SlowWrite faults, `*slow_ms` (when non-null) receives the
    /// matching rule's stall length.
    [[nodiscard]] FaultKind draw(Op op, const std::filesystem::path& path,
                                 double* slow_ms = nullptr);

    [[nodiscard]] FaultCounts counts() const;

private:
    std::uint64_t seed_ = 0;
    std::vector<FaultRule> rules_;
    struct State;
    std::shared_ptr<State> state_ = make_state();
    [[nodiscard]] static std::shared_ptr<State> make_state();
};

/// Installs `plan` as the process-wide fault schedule consulted by every
/// facade operation (null = no faults, the zero-overhead default).
void set_fault_plan(std::shared_ptr<FaultPlan> plan);
[[nodiscard]] std::shared_ptr<FaultPlan> fault_plan();

/// RAII installation for tests: restores the previous plan on destruction.
class ScopedFaultPlan {
public:
    explicit ScopedFaultPlan(std::shared_ptr<FaultPlan> plan)
        : previous_(fault_plan()) {
        set_fault_plan(std::move(plan));
    }
    ScopedFaultPlan(const ScopedFaultPlan&) = delete;
    ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
    ~ScopedFaultPlan() { set_fault_plan(std::move(previous_)); }

private:
    std::shared_ptr<FaultPlan> previous_;
};

/// Installs the plan named by the YTCDN_IO_FAULTS environment variable:
/// either an inline spec ("eio p=0.01 ops=write") with ';' for newlines, or
/// "@<path>" to read a plan file. No-op (success) when the variable is
/// unset or empty. CLI front ends call this before dispatching so chaos
/// reaches every command without new flags.
[[nodiscard]] Result<void> install_fault_plan_from_env();

/// Reads the whole file. EINTR-retried; fault points: Open, Read.
[[nodiscard]] Result<std::string> read_file(const std::filesystem::path& path);

/// Writes atomically and durably: serialize to "<path>.tmp", fsync the
/// file, rename over the final name, then fsync the parent directory (a
/// rename is only crash-durable once the directory entry itself is on
/// stable storage). Parent directories are created as needed; on any
/// failure the temp file is removed, so no torn or un-framed output is
/// ever left under the final name. Fault points: Open, Write, Fsync,
/// Rename. EINTR is retried at every syscall.
[[nodiscard]] Result<void> write_file_atomic(const std::filesystem::path& path,
                                             std::string_view bytes);

/// Same, for a file held as pieces (a YFL2 log's block frames): the file
/// is their concatenation, and each fault point is consulted once for the
/// whole file, exactly as for one buffer of the same bytes.
[[nodiscard]] Result<void> write_file_atomic(const std::filesystem::path& path,
                                             std::span<const std::string> pieces);

/// Callback form: the writer serializes into a memory buffer first
/// (returning false aborts with an Io error), then the byte form above
/// performs the durable write.
[[nodiscard]] Result<void> write_file_atomic(
    const std::filesystem::path& path,
    const std::function<bool(std::ostream&)>& writer);

/// Renames with EINTR retry. Fault point: Rename.
[[nodiscard]] Result<void> rename_file(const std::filesystem::path& from,
                                       const std::filesystem::path& to);

/// Incremental file reader: bounded chunk reads through the fault-plan
/// boundary, for consumers that must not materialize the whole file (the
/// out-of-core YFL2/YTR1 streaming paths — DESIGN.md §16). Move-only.
/// Fault points: Open at open(), Read at every chunk (a ShortWrite fault
/// delivers a torn chunk first, like read_file).
class FileReader {
public:
    FileReader();
    FileReader(FileReader&&) noexcept;
    FileReader& operator=(FileReader&&) noexcept;
    FileReader(const FileReader&) = delete;
    FileReader& operator=(const FileReader&) = delete;
    ~FileReader();

    [[nodiscard]] static Result<FileReader> open(const std::filesystem::path& path);

    /// Reads up to `max` bytes into `buf`; returns the count, 0 at EOF.
    [[nodiscard]] Result<std::size_t> read(char* buf, std::size_t max);
    /// Appends up to `max` bytes to `out` (resizing it); returns the count.
    [[nodiscard]] Result<std::size_t> read_chunk(std::string& out, std::size_t max);

    /// Bytes delivered so far — the provenance offset for error reports.
    [[nodiscard]] std::uint64_t offset() const noexcept;
    [[nodiscard]] const std::filesystem::path& path() const noexcept;
    [[nodiscard]] bool is_open() const noexcept { return impl_ != nullptr; }
    void close();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Incremental atomic file writer: appends stream to "<path>.tmp"; only
/// publish() — fsync, rename over the final name, fsync the parent
/// directory — makes the file visible, so a crashed or discarded writer
/// never leaves a torn log under the final name. write_at() patches bytes
/// already appended (how the streaming YFL2 writer back-fills the header's
/// record count on close without buffering the log). Move-only; an
/// unpublished writer discards its temp file on destruction. Fault
/// points: Open at create(), Write at append()/write_at(), Fsync and
/// Rename at publish().
class FileWriter {
public:
    FileWriter();
    FileWriter(FileWriter&&) noexcept;
    FileWriter& operator=(FileWriter&&) noexcept;
    FileWriter(const FileWriter&) = delete;
    FileWriter& operator=(const FileWriter&) = delete;
    ~FileWriter();

    /// Creates parent directories and opens "<path>.tmp" for writing.
    [[nodiscard]] static Result<FileWriter> create(const std::filesystem::path& path);

    [[nodiscard]] Result<void> append(std::string_view bytes);
    /// Overwrites bytes at `offset` within what was already appended; the
    /// write position returns to the end afterwards.
    [[nodiscard]] Result<void> write_at(std::uint64_t offset, std::string_view bytes);

    /// Logical size so far (appends only; write_at never extends).
    [[nodiscard]] std::uint64_t bytes_written() const noexcept;
    /// The final (post-publish) path.
    [[nodiscard]] const std::filesystem::path& path() const noexcept;
    [[nodiscard]] bool is_open() const noexcept { return impl_ != nullptr; }

    /// Durably publishes under the final name and closes the writer. On
    /// failure the temp file is removed and the final name is untouched.
    [[nodiscard]] Result<void> publish();
    /// Closes and removes the temp file without publishing.
    void discard();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Moves a damaged file aside as "<path>.corrupt.<k>" (k increments past
/// any existing quarantined sibling) and prunes older quarantined copies
/// so at most `keep` remain — repeated corruption in a long run must not
/// fill the disk. Returns the quarantine path. `keep` == 0 keeps the
/// default of kDefaultQuarantineKeep; the YTCDN_QUARANTINE_KEEP
/// environment variable overrides either.
inline constexpr std::size_t kDefaultQuarantineKeep = 3;
[[nodiscard]] Result<std::filesystem::path> quarantine_file(
    const std::filesystem::path& path, std::size_t keep = 0);

/// --- local sockets (the ytcdnd control endpoint) -------------------------
///
/// The same injectable-boundary rules apply: every socket operation
/// consults the fault plan (ops accept / poll / read / write), every wait
/// carries an explicit deadline (the service-loop lint rule forbids raw
/// blocking calls in src/service/), and EINTR is retried everywhere. On
/// non-POSIX hosts the socket entry points return a typed Io error and the
/// daemon runs with its control endpoint disabled.

/// Closes a descriptor, retrying EINTR; negative fds are ignored.
void close_fd(int fd);

/// Waits up to `timeout_ms` for `fd` to become readable. `fd` < 0 performs
/// a pure bounded wait (the service loop's pacing tick when no control
/// socket is listening). Returns true when readable, false on timeout.
/// Fault point: Poll.
[[nodiscard]] Result<bool> poll_readable(int fd, int timeout_ms,
                                         const std::filesystem::path& what = {});

/// Reads one '\n'-terminated line (newline stripped, bounded by `max_len`)
/// waiting at most `timeout_ms` for bytes. EOF before a newline yields the
/// partial line. Fault points: Poll, Read.
[[nodiscard]] Result<std::string> read_line_fd(int fd, int timeout_ms,
                                               std::size_t max_len = 1 << 16);

/// Reads everything until EOF (bounded by `max_len`), waiting at most
/// `timeout_ms` between chunks — the ctl client's "response ends when the
/// server closes the connection" read. Fault points: Poll, Read.
[[nodiscard]] Result<std::string> read_all_fd(int fd, int timeout_ms,
                                              std::size_t max_len = 1 << 20);

/// Writes the whole buffer (EINTR retried, partial writes continued).
/// Fault point: Write.
[[nodiscard]] Result<void> write_fd_all(int fd, std::string_view bytes);

/// A listening Unix-domain stream socket. Owns the descriptor and unlinks
/// the socket path on close/destruction. Move-only.
class UnixServerSocket {
public:
    UnixServerSocket() = default;
    UnixServerSocket(UnixServerSocket&& other) noexcept;
    UnixServerSocket& operator=(UnixServerSocket&& other) noexcept;
    UnixServerSocket(const UnixServerSocket&) = delete;
    UnixServerSocket& operator=(const UnixServerSocket&) = delete;
    ~UnixServerSocket();

    /// Binds and listens on `path`, replacing any stale socket file left by
    /// a killed daemon. Fault point: Open.
    [[nodiscard]] static Result<UnixServerSocket> listen(
        const std::filesystem::path& path);

    /// Waits up to `timeout_ms` for a pending connection and accepts it.
    /// Returns the connected fd, or -1 when the wait timed out (the
    /// service loop's idle tick). Fault points: Poll, Accept.
    [[nodiscard]] Result<int> accept_ready(int timeout_ms);

    [[nodiscard]] bool listening() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int fd() const noexcept { return fd_; }
    [[nodiscard]] const std::filesystem::path& path() const noexcept {
        return path_;
    }

    /// Closes the descriptor and unlinks the socket file.
    void close();

private:
    int fd_ = -1;
    std::filesystem::path path_;
};

/// Connects to a Unix-domain stream socket (the `ytcdn ctl` client side).
/// Fault point: Open.
[[nodiscard]] Result<int> connect_unix(const std::filesystem::path& path);

}  // namespace ytcdn::util::io
