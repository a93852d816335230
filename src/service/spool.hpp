#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "capture/flow_record.hpp"
#include "util/error.hpp"

namespace ytcdn::service {

/// The watched spool directory (DESIGN.md §15): producers land flow logs
/// atomically (write elsewhere or to a dot/tmp name, then rename into the
/// spool), the daemon ingests them in lexicographic name order. Names are
/// the replay order, so a producer that wants strict ordering uses sortable
/// names (e.g. zero-padded sequence numbers).

/// One ingestible file found in the spool.
struct SpoolFile {
    std::filesystem::path path;
    std::string name;  // filename, the ledger/manifest key
};

/// Flow-log files (*.yfl binary YFL2, *.tsv text), sorted by name.
/// Hidden files, "*.tmp" and quarantined "*.corrupt.*" files are skipped —
/// those are in-flight or damaged, never input.
[[nodiscard]] std::vector<SpoolFile> scan_spool(
    const std::filesystem::path& dir);

/// Server->DC map files (*.dcmap, the `ytcdn analyze` text format), sorted
/// by name. The daemon installs the first one it sees.
[[nodiscard]] std::vector<SpoolFile> scan_dc_maps(
    const std::filesystem::path& dir);

/// Reads and parses one spool file with capture::read_flow_log_result
/// (YFL2 bytes, or any *.yfl, through the YFL2 reader; anything else as a
/// TSV flow log whose malformed lines are a Parse error with the line
/// number); errors carry
/// "spool <path>" context. The records' stream name is the file name up to
/// the first '.'.
[[nodiscard]] util::Result<std::vector<capture::FlowRecord>> read_spool_file(
    const std::filesystem::path& path);
/// read_spool_file over the file's bytes already in hand (the daemon reads
/// once for the ledger's size and CRC and decodes the same bytes); the
/// same dispatch and the same "spool <path>" error context.
[[nodiscard]] util::Result<std::vector<capture::FlowRecord>> decode_spool_bytes(
    const std::filesystem::path& path, std::string bytes);

/// "eu1-0003.yfl" -> "eu1-0003" -> stream key "eu1" when the name has a
/// '-<digits>' sequence suffix, else the whole stem: one logical stream
/// can span many spool files.
[[nodiscard]] std::string stream_of(const std::string& name);

}  // namespace ytcdn::service
