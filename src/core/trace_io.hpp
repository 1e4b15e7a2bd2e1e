// Writers and parsers for ActorProf's trace files (paper §III):
//   PEi_send.csv  — logical trace, one line per application send
//   PEi_PAPI.csv  — PAPI segment rows
//   PEi_steps.csv — superstep rows (Config::supersteps)
//   overall.txt   — Absolute/Relative TCOMM_PROFILING lines per PE
//   physical.txt  — network transfers of all PEs
//   check.csv     — BSP conformance violations (Config::check)
// Every kind but overall.txt also has an .apt twin (core/trace_binary.hpp);
// the columns of both forms come from one schema (core/trace_schema.hpp).
// The visualization CLI consumes these files only, so it also works on
// traces produced by other builds of the tool.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "check/checker.hpp"
#include "core/aggregate.hpp"
#include "core/config.hpp"
#include "core/records.hpp"
#include "core/sink.hpp"
#include "metrics/self_overhead.hpp"

namespace ap::prof {
class Profiler;
}

namespace ap::prof::io {

/// File-name helpers (exactly the names the paper lists).
std::string logical_file_name(int pe);   // "PE<i>_send.csv"
std::string papi_file_name(int pe);      // "PE<i>_PAPI.csv"
std::string steps_file_name(int pe);     // "PE<i>_steps.csv"
inline constexpr const char* kOverallFile = "overall.txt";
inline constexpr const char* kPhysicalFile = "physical.txt";
inline constexpr const char* kManifestFile = "MANIFEST.txt";
inline constexpr const char* kCheckFile = "check.csv";
/// Live-metrics sample ring dump, emitted only by the binary trace format
/// (there is no CSV counterpart; metrics.json carries the text view).
inline constexpr const char* kMetricSamplesFile = "metric_samples.apt";

/// Parse failure carrying the 1-based line it happened on. Derives from
/// std::runtime_error, so pre-existing catch sites keep working.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line_no, const std::string& what);
  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  std::size_t line_no_;
};

/// Values a shard carries beside its rows: in the .apt header aux bytes,
/// and in the CSV header and comment lines. Each kind uses at most one
/// field (core/trace_schema.hpp).
struct ShardAux {
  /// PE<i>_PAPI: the configured events, in order. They size the CSV
  /// counter group and name its header fields.
  std::vector<papi::Event> papi_events;
  /// check: violations past the checker's cap (the "# dropped=<n>" line).
  std::uint64_t dropped = 0;
};

/// The PAPI aux of a run: its first num_papi_events() configured events.
[[nodiscard]] ShardAux papi_aux(const Config& cfg);

// ---- schema-driven CSV codec ------------------------------------------------
// `Rec` is one of the five two-format record types: LogicalSendRecord
// (PE<i>_send.csv), PapiSegmentRecord (PE<i>_PAPI.csv), SuperstepRecord
// (PE<i>_steps.csv), check::Violation (check.csv), PhysicalRecord
// (physical.txt). Their .apt twins are encode_apt/decode_apt
// (core/trace_binary.hpp).

/// Header comment line(s), then one line per row.
template <class Rec>
void write_csv(Sink& out, const std::vector<Rec>& rows,
               const ShardAux& aux = {});
/// Appends rows to `out` as they parse, so when a truncated or corrupt
/// body throws mid-way the caller keeps the valid prefix (what
/// `tolerate_partial` loading renders). Skips blank lines and '#'
/// comments; fills `aux` from the comment lines that carry it; throws
/// TraceParseError with the 1-based line number on malformed input.
template <class Rec>
void parse_csv(std::string_view body, std::vector<Rec>& out,
               ShardAux* aux = nullptr);

// ---- overall.txt (text only) ------------------------------------------------

void write_overall(Sink& out, const std::vector<OverallRecord>& recs);
/// "SelfOverhead ..." lines appended to overall.txt when Config::metrics is
/// on: the measured wall-rdtsc cost of ActorProf's own instrumentation,
/// per PE and per category. parse_overall_into skips them (they are not
/// "Absolute" lines), so existing consumers are unaffected.
void write_self_overhead(Sink& out, const metrics::OverheadMeter& m);
/// Same line/error semantics as parse_csv.
void parse_overall_into(std::string_view body, std::vector<OverallRecord>& out);

/// Write every enabled trace of `prof` into cfg.trace_dir (created if
/// missing). Called by Profiler::write_traces().
///
/// Crash-safe: each file is fully built in memory, written to a ".tmp"
/// sibling, flushed, stream-checked, and atomically renamed into place —
/// a reader (or a kill) never observes a half-written file. A MANIFEST.txt
/// (file list, record counts, FNV-1a checksums, dead PEs) is written last.
/// Failures are aggregated: one std::runtime_error naming every file that
/// could not be written, thrown after all writable files landed.
/// Superstep rows of a killed PE are kept (each closed at a collective it
/// actually reached, so the prefix is what post-mortem analysis wants);
/// its overall.txt lines are not. check.csv is written even when empty —
/// a zero-row check file is the evidence a checked run was clean.
void write_all(const Profiler& prof, const Config& cfg);

/// One MANIFEST.txt entry, as written by write_all.
struct ManifestEntry {
  std::string file;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv1a = 0;
};
struct Manifest {
  int num_pes = 0;
  std::vector<ManifestEntry> files;
  std::vector<int> dead_pes;
};
Manifest parse_manifest(std::istream& is);
/// Read dir/MANIFEST.txt into `out`. Returns false when there is none;
/// throws TraceParseError when it does not parse.
bool read_manifest(const std::filesystem::path& dir, Manifest& out);
/// The one MANIFEST.txt writer (write_all, `export`, `compact`).
[[nodiscard]] std::string manifest_text(int num_pes,
                                        const std::vector<ManifestEntry>& files,
                                        const std::vector<int>& dead_pes);

/// FNV-1a 64-bit over a byte buffer (the MANIFEST checksum).
std::uint64_t fnv1a64(const void* data, std::size_t n);

/// One per-file problem found while loading with tolerate_partial.
struct FileIssue {
  std::string file;        ///< file name relative to the trace dir
  std::size_t line_no = 0; ///< 1-based, 0 when not line-specific
  std::string message;
};

struct LoadOptions {
  /// Report missing/truncated/corrupt per-PE files in TraceDir::issues and
  /// keep every record that parsed, instead of throwing on the first bad
  /// file. What the viz CLI uses to render what survived a crash.
  bool tolerate_partial = false;
};

/// Load a whole trace directory produced by write_all.
struct TraceDir {
  int num_pes = 0;
  std::vector<std::vector<LogicalSendRecord>> logical;  // per PE (may be empty)
  std::vector<std::vector<PapiSegmentRecord>> papi;     // per PE
  std::vector<OverallRecord> overall;
  std::vector<PhysicalRecord> physical;
  std::vector<std::vector<SuperstepRecord>> steps;  // per PE (may be empty)
  /// BSP conformance violations (check.csv; empty when the run was clean
  /// or unchecked — check_recorded distinguishes the two).
  std::vector<check::Violation> check;
  std::uint64_t check_dropped = 0;
  /// True when a check.csv was present: the run executed under the checker.
  bool check_recorded = false;
  /// Problems found under LoadOptions::tolerate_partial (always empty for
  /// strict loads, which throw instead).
  std::vector<FileIssue> issues;
  /// PEs the MANIFEST marks as killed mid-run (fault injection).
  std::vector<int> dead_pes;

  /// Aggregate the logical events into a src-by-dst matrix.
  [[nodiscard]] CommMatrix logical_matrix() const;
  /// Aggregate physical transfers (excluding progress signals by default,
  /// matching the paper's buffer heatmaps).
  [[nodiscard]] CommMatrix physical_matrix(bool include_progress = false) const;
  /// Sparse forms of the same aggregations: O(nonzero cells), the only
  /// accessors the rendering paths should use at large P (they bucket
  /// before densifying; the dense forms above materialize P^2 cells).
  [[nodiscard]] SparseCommMatrix logical_sparse() const;
  [[nodiscard]] SparseCommMatrix physical_sparse(
      bool include_progress = false) const;
};

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes);
TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes,
                        const LoadOptions& opts);

// ---- the kind registry -----------------------------------------------------
// Maps trace file names (either spelling: "PE3_send.csv" / "PE3_send.apt",
// "physical.txt" / "physical.apt", ...) to their record kind and TraceDir
// member. Every consumer that reads shards by name goes through it.

/// Every trace file name of a `num_pes` trace, in write_all's order, in
/// the text spelling (binary_file_name() gives the .apt sibling):
/// PE<i>_send.csv..., PE<i>_PAPI.csv..., PE<i>_steps.csv..., overall.txt,
/// check.csv, physical.txt.
[[nodiscard]] std::vector<std::string> trace_file_names(int num_pes);

/// The text spelling of a trace file name ("PE3_send.apt" ->
/// "PE3_send.csv", "physical.apt" -> "physical.txt"); other names are
/// returned unchanged.
[[nodiscard]] std::string text_file_name(std::string_view name);

/// How read_shard splices a body's rows into the TraceDir.
enum class Splice {
  /// The rows replace the member's rows; a damaged body changes nothing.
  replace,
  /// The rows follow the member's rows; a damaged body changes nothing.
  append,
  /// Like replace, but on damage the rows decoded before it stay (the
  /// verified prefix tolerant loading renders).
  prefix,
};

/// Decode one trace file — CSV/text or .apt, sniffed from the content —
/// into the TraceDir member its name selects. Check files also set
/// check_recorded/check_dropped. Throws TraceParseError on a damaged body, and
/// std::runtime_error for a name that is no trace file or a PE outside
/// the TraceDir's per-PE tables.
void read_shard(TraceDir& t, std::string_view name, std::string_view body,
                Splice how);

/// A shard re-encoded by recode().
struct Recoded {
  std::string body;
  std::uint64_t records = 0;
};

/// Decode a trace file body (either container) and encode its rows in
/// `to`: what `export --csv` (to csv) and `compact` (to binary, dense
/// 4096-row blocks) run on every shard. overall.txt has only the text
/// form. Throws like read_shard.
[[nodiscard]] Recoded recode(std::string_view name, std::string_view body,
                             TraceFormat to);

/// Write `body` to dir/name via a ".tmp" sibling + atomic rename, so a
/// reader (or a kill) never observes a half-written file. Returns false
/// (after cleaning up the tmp) when any step fails.
bool write_file_atomic(const std::filesystem::path& dir,
                       const std::string& name, std::string_view body);
/// Read a whole file into `out`; false when it cannot be opened.
bool read_file(const std::filesystem::path& p, std::string& out);

/// Read the PE count from the trace dir's MANIFEST.txt. Returns 0 when the
/// manifest is missing or unparsable — callers fall back to --num-pes.
int detect_num_pes(const std::filesystem::path& dir);

}  // namespace ap::prof::io
