#include "core/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "core/profiler.hpp"
#include "core/trace_binary.hpp"
#include "core/trace_schema.hpp"
#include "faultinject/faultinject.hpp"
#include "serve/publisher.hpp"

namespace ap::prof::io {

TraceParseError::TraceParseError(std::size_t line_no, const std::string& what)
    : std::runtime_error(what), line_no_(line_no) {}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, std::string_view line,
                             std::string_view what) {
  throw TraceParseError(line_no, "trace parse error at line " +
                                     std::to_string(line_no) + " (" +
                                     std::string(what) +
                                     "): " + std::string(line));
}

/// Split a CSV line into trimmed fields without allocating: the scanner
/// writes views over `line` into the caller-owned `out`, which parse
/// loops reuse across lines. (The viz CLI reloads million-row
/// PEi_send.csv files; a stringstream per line used to dominate.)
void split_csv(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = line.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? line.size()
                                                            : comma;
    std::string_view f = line.substr(pos, end - pos);
    while (!f.empty() && (f.front() == ' ' || f.front() == '\t'))
      f.remove_prefix(1);
    while (!f.empty() &&
           (f.back() == ' ' || f.back() == '\t' || f.back() == '\r'))
      f.remove_suffix(1);
    out.push_back(f);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
}

template <class T>
T to_num(std::string_view s, std::size_t line_no, std::string_view line) {
  T value{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || p != s.data() + s.size())
    parse_fail(line_no, line, "bad number");
  return value;
}

bool skippable(std::string_view line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;  // blank
}

/// Call f(line, 1-based line number) for every line of `body`, split like
/// std::getline: a final line without '\n' still counts.
template <class F>
void for_each_line(std::string_view body, F&& f) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? body.size() : nl;
    f(body.substr(pos, end - pos), ++line_no);
    pos = end + 1;
  }
}

/// The counter-group width a PAPI aux selects (capped at the array size).
std::size_t counter_count(const ShardAux& aux) {
  return std::min<std::size_t>(aux.papi_events.size(),
                               papi::kMaxEventsPerSet);
}

}  // namespace

std::string logical_file_name(int pe) {
  return "PE" + std::to_string(pe) + "_send.csv";
}

std::string papi_file_name(int pe) {
  return "PE" + std::to_string(pe) + "_PAPI.csv";
}

std::string steps_file_name(int pe) {
  return "PE" + std::to_string(pe) + "_steps.csv";
}

ShardAux papi_aux(const Config& cfg) {
  ShardAux aux;
  const auto n = static_cast<std::size_t>(cfg.num_papi_events());
  aux.papi_events.assign(cfg.papi_events.begin(),
                         cfg.papi_events.begin() + static_cast<long>(n));
  return aux;
}

// ------------------------------------------------------------ CSV codec

template <class Rec>
void write_csv(Sink& out, const std::vector<Rec>& rows, const ShardAux& aux) {
  using K = schema::KindOf<Rec>;
  using schema::Store;
  const std::size_t ncounters = counter_count(aux);
  out.reserve(rows.size() * K::spec.csv_row_bytes + 128);
  out.append("# ");
  schema::for_each_column<K>([&](const auto& c, auto i) {
    using C = std::decay_t<decltype(c)>;
    if constexpr (C::store == Store::counters) {
      for (std::size_t k = 0; k < ncounters; ++k) {
        out.append(", ");
        out.append(papi::name(aux.papi_events[k]));
      }
    } else {
      if constexpr (decltype(i)::value > 0) out.append(", ");
      out.append(c.name);
    }
  });
  out.put('\n');
  if constexpr (K::spec.aux == schema::Aux::dropped) {
    if (aux.dropped != 0) {
      out.append("# dropped=");
      out.dec(aux.dropped);
      out.put('\n');
    }
  }
  for (const Rec& r : rows) {
    schema::for_each_column<K>([&](const auto& c, auto i) {
      using C = std::decay_t<decltype(c)>;
      const auto& v = r.*C::member;
      if constexpr (C::store == Store::counters) {
        for (std::size_t k = 0; k < ncounters; ++k) {
          out.put(',');
          out.dec(v[k]);
        }
      } else {
        if constexpr (decltype(i)::value > 0) out.put(',');
        if constexpr (C::store == Store::num)
          out.dec(v);
        else if constexpr (C::store == Store::enumeration)
          out.append(C::W::word(v));
        else
          out.append(v);
      }
    });
    out.put('\n');
  }
}

template <class Rec>
void parse_csv(std::string_view body, std::vector<Rec>& out, ShardAux* aux) {
  using K = schema::KindOf<Rec>;
  using schema::Store;
  constexpr std::size_t kFields = schema::fixed_fields<K>();
  constexpr bool kVariable = schema::has_counters<K>();
  static const std::string field_error =
      std::string(kVariable ? "expected >= " : "expected ") +
      std::to_string(kFields) + " fields";
  out.reserve(out.size() + 1024);
  std::vector<std::string_view> f;
  f.reserve(kFields + papi::kMaxEventsPerSet);
  for_each_line(body, [&](std::string_view line, std::size_t line_no) {
    if constexpr (K::spec.aux == schema::Aux::dropped) {
      constexpr std::string_view kMarker = "# dropped=";
      if (line.starts_with(kMarker)) {
        const auto d = to_num<std::uint64_t>(line.substr(kMarker.size()),
                                             line_no, line);
        if (aux != nullptr) aux->dropped = d;
        return;
      }
    }
    if (skippable(line)) return;
    split_csv(line, f);
    if (kVariable ? f.size() < kFields : f.size() != kFields)
      parse_fail(line_no, line, field_error);
    Rec r;
    std::size_t k = 0;
    schema::for_each_column<K>([&](const auto& c, auto i) {
      using C = std::decay_t<decltype(c)>;
      auto& v = r.*C::member;
      if constexpr (C::store == Store::num) {
        v = to_num<typename C::Type>(f[k++], line_no, line);
      } else if constexpr (C::store == Store::dict) {
        v = std::string(f[k++]);
      } else if constexpr (C::store == Store::enumeration) {
        // Only a trailing enum after a counter group can find the fields
        // used up; it then keeps its default.
        if (k < f.size() && !C::W::parse(f[k++], v))
          parse_fail(line_no, line, C::W::what);
      } else {
        // The counter group runs up to the next column's first word
        // (the REGION field); counters past the array are ignored.
        using Next =
            std::decay_t<decltype(std::get<decltype(i)::value + 1>(K::cols))>;
        std::size_t slot = 0;
        for (; k < f.size(); ++k) {
          typename Next::W::T probe{};
          if (Next::W::parse(f[k], probe)) break;
          if (slot < v.size())
            v[slot++] = to_num<std::uint64_t>(f[k], line_no, line);
        }
      }
    });
    out.push_back(std::move(r));
  });
}

template void write_csv(Sink&, const std::vector<LogicalSendRecord>&,
                        const ShardAux&);
template void write_csv(Sink&, const std::vector<PapiSegmentRecord>&,
                        const ShardAux&);
template void write_csv(Sink&, const std::vector<SuperstepRecord>&,
                        const ShardAux&);
template void write_csv(Sink&, const std::vector<check::Violation>&,
                        const ShardAux&);
template void write_csv(Sink&, const std::vector<PhysicalRecord>&,
                        const ShardAux&);
template void parse_csv(std::string_view, std::vector<LogicalSendRecord>&,
                        ShardAux*);
template void parse_csv(std::string_view, std::vector<PapiSegmentRecord>&,
                        ShardAux*);
template void parse_csv(std::string_view, std::vector<SuperstepRecord>&,
                        ShardAux*);
template void parse_csv(std::string_view, std::vector<check::Violation>&,
                        ShardAux*);
template void parse_csv(std::string_view, std::vector<PhysicalRecord>&,
                        ShardAux*);

// ------------------------------------------------------------ overall.txt

void write_overall(Sink& out, const std::vector<OverallRecord>& recs) {
  for (const OverallRecord& r : recs) {
    out.append("Absolute [PE");
    out.dec(r.pe);
    out.append("] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC) = (");
    out.dec(r.t_main);
    out.append(", ");
    out.dec(r.t_comm());
    out.append(", ");
    out.dec(r.t_proc);
    out.append(")\n");
    out.append("Relative [PE");
    out.dec(r.pe);
    out.append("] TCOMM_PROFILING (T_MAIN/T_TOTAL, T_COMM/T_TOTAL, "
               "T_PROC/T_TOTAL) = (");
    out.flt(r.rel_main());
    out.append(", ");
    out.flt(r.rel_comm());
    out.append(", ");
    out.flt(r.rel_proc());
    out.append(")\n");
  }
}

void write_self_overhead(Sink& out, const metrics::OverheadMeter& m) {
  if (!m.bound()) return;
  out.append("# Profiler self-overhead, wall rdtsc cycles per category (");
  for (int c = 0; c < metrics::kOverheadCategories; ++c) {
    if (c) out.append(", ");
    out.append(metrics::to_string(static_cast<metrics::OverheadCategory>(c)));
  }
  out.append(")\n");
  const auto row = [&](std::string_view who, int slot) {
    out.append("SelfOverhead [");
    out.append(who);
    out.append("] cycles = (");
    for (int c = 0; c < metrics::kOverheadCategories; ++c) {
      if (c) out.append(", ");
      out.dec(m.cycles(slot, static_cast<metrics::OverheadCategory>(c)));
    }
    out.append(") total ");
    out.dec(m.total(slot));
    out.put('\n');
  };
  for (int pe = 0; pe < m.num_pes(); ++pe) row("PE" + std::to_string(pe), pe);
  row("fleet", metrics::OverheadMeter::kGlobalSlot);
  out.append("SelfOverhead total = ");
  out.dec(m.grand_total());
  out.append(" cycles\n");
}

void parse_overall_into(std::string_view body,
                        std::vector<OverallRecord>& out) {
  std::vector<std::string_view> nums;
  for_each_line(body, [&](std::string_view line, std::size_t line_no) {
    if (skippable(line)) return;
    if (!line.starts_with("Absolute")) return;  // Relative lines derived
    // Absolute [PE3] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC) = (a, b, c)
    const auto pe_open = line.find("[PE");
    const auto pe_close = line.find(']', pe_open);
    const auto eq = line.find('=', pe_close);
    const auto paren = line.find('(', eq);
    const auto paren_close = line.find(')', paren);
    if (pe_open == std::string_view::npos ||
        pe_close == std::string_view::npos || eq == std::string_view::npos ||
        paren == std::string_view::npos ||
        paren_close == std::string_view::npos)
      parse_fail(line_no, line, "malformed Absolute line");
    OverallRecord r;
    r.pe = to_num<int>(line.substr(pe_open + 3, pe_close - pe_open - 3),
                       line_no, line);
    split_csv(line.substr(paren + 1, paren_close - paren - 1), nums);
    if (nums.size() != 3) parse_fail(line_no, line, "expected 3 numbers");
    r.t_main = to_num<std::uint64_t>(nums[0], line_no, line);
    const auto t_comm = to_num<std::uint64_t>(nums[1], line_no, line);
    r.t_proc = to_num<std::uint64_t>(nums[2], line_no, line);
    r.t_total = r.t_main + t_comm + r.t_proc;
    out.push_back(r);
  });
}

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool write_file_atomic(const std::filesystem::path& dir,
                       const std::string& name, std::string_view body) {
  namespace fs = std::filesystem;
  const fs::path tmp = dir / (name + ".tmp");
  const fs::path dst = dir / name;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::error_code ignore;
      fs::remove(tmp, ignore);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, dst, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    return false;
  }
  return true;
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = digits[v & 0xf];
    v >>= 4;
  }
  buf[16] = '\0';
  return buf;
}

}  // namespace

std::string manifest_text(int num_pes, const std::vector<ManifestEntry>& files,
                          const std::vector<int>& dead_pes) {
  Sink out;
  out.append(
      "# ActorProf trace manifest: file <name> records=<n> bytes=<n> "
      "fnv1a=<hex64>\n");
  out.append("num_pes ");
  out.dec(num_pes);
  out.put('\n');
  for (const ManifestEntry& m : files) {
    out.append("file ");
    out.append(m.file);
    out.append(" records=");
    out.dec(m.records);
    out.append(" bytes=");
    out.dec(m.bytes);
    out.append(" fnv1a=");
    out.append(hex64(m.fnv1a));
    out.put('\n');
  }
  for (int pe : dead_pes) {
    out.append("dead_pe ");
    out.dec(pe);
    out.put('\n');
  }
  return std::move(out).str();
}

void write_all(const Profiler& prof, const Config& cfg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cfg.trace_dir, ec);
  if (ec)
    throw std::runtime_error("write_all: cannot create trace dir " +
                             cfg.trace_dir.string() + ": " + ec.message());
  const int n = prof.num_pes();

  std::vector<ManifestEntry> written;
  std::vector<std::string> failed;
  serve::Publisher* pub = prof.publisher();
  const auto emit = [&](const std::string& name, std::string body,
                        std::uint64_t records) {
    // Compression is a container transform applied here, at persist time:
    // the encoders stay version-1 and the manifest describes the on-disk
    // (possibly compressed) bytes.
    if (cfg.trace_compress && is_binary_trace(body))
      body = compress_trace(body);
    if (write_file_atomic(cfg.trace_dir, name, body))
      written.push_back(ManifestEntry{name, records, body.size(),
                                      fnv1a64(body.data(), body.size())});
    else
      failed.push_back(name);
    // Live streaming: the final on-disk body replaces whatever incremental
    // frames were pushed mid-run, so the pushed run converges to the same
    // bytes a file-based serve would load.
    if (pub != nullptr) pub->publish_file(name, std::move(body), false);
  };
  // Binary (.apt) and CSV traces hold identical rows; only the container
  // differs. The loader sniffs whichever is present, and `actorprof export
  // --csv` converts back. overall.txt and MANIFEST.txt stay text in both.
  const auto emit_shard = [&](const std::string& csv_name, const auto& rows,
                              const ShardAux& aux) {
    if (cfg.trace_format == TraceFormat::binary) {
      emit(binary_file_name(csv_name), encode_apt(rows, aux), rows.size());
    } else {
      Sink out;
      write_csv(out, rows, aux);
      emit(csv_name, std::move(out).str(), rows.size());
    }
  };

  if (cfg.logical && cfg.keep_logical_events)
    for (int pe = 0; pe < n; ++pe)
      emit_shard(logical_file_name(pe), prof.logical_events(pe), {});
  if (cfg.papi) {
    const ShardAux aux = papi_aux(cfg);
    for (int pe = 0; pe < n; ++pe)
      emit_shard(papi_file_name(pe), prof.papi_segments(pe), aux);
  }
  if (cfg.supersteps)
    for (int pe = 0; pe < n; ++pe)
      emit_shard(steps_file_name(pe), prof.supersteps(pe), {});
  if (cfg.overall) {
    Sink out;
    // A PE killed mid-epoch never reached epoch_end: its cycle buckets are
    // inconsistent (t_total excludes the aborted epoch), so its overall
    // lines are suppressed — the MANIFEST marks the PE dead instead.
    std::vector<OverallRecord> recs;
    for (const OverallRecord& r : prof.overall())
      if (!fi::was_killed(r.pe)) recs.push_back(r);
    write_overall(out, recs);
    // Self-overhead is rdtsc-based (nondeterministic), so it only appears
    // when metrics were explicitly requested — determinism tests compare
    // overall.txt byte-for-byte under Config::all_enabled().
    if (cfg.metrics) write_self_overhead(out, prof.self_overhead());
    emit(kOverallFile, std::move(out).str(), recs.size());
  }
  if (cfg.check) {
    ShardAux aux;
    aux.dropped = prof.bsp_violations_dropped();
    emit_shard(kCheckFile, prof.bsp_violations(), aux);
  }
  if (cfg.physical && cfg.keep_physical_events) {
    std::vector<PhysicalRecord> merged;
    for (int pe = 0; pe < n; ++pe) {
      const auto& evs = prof.physical_events(pe);
      merged.insert(merged.end(), evs.begin(), evs.end());
    }
    emit_shard(kPhysicalFile, merged, {});
  }
  if (cfg.trace_format == TraceFormat::binary && cfg.metrics &&
      prof.metric_samples().bound()) {
    // The sample ring has no CSV counterpart (metrics.json is its text
    // view); the binary format can afford to persist every snapshot.
    emit(kMetricSamplesFile, encode_metric_samples(prof.metric_samples()),
         prof.metric_samples().size());
  }

  // MANIFEST last: a loader that sees it knows every listed file was
  // completely written (and can verify it with the checksum).
  std::string manifest = manifest_text(n, written, fi::killed_pes());
  if (!write_file_atomic(cfg.trace_dir, kManifestFile, manifest))
    failed.push_back(kManifestFile);
  if (pub != nullptr)
    pub->publish_file(kManifestFile, std::move(manifest), false);

  if (!failed.empty()) {
    std::string msg = "write_all: failed to write " +
                      std::to_string(failed.size()) + " file(s) in " +
                      cfg.trace_dir.string() + ":";
    for (const std::string& f : failed) msg += " " + f;
    throw std::runtime_error(msg);
  }
  if (cfg.metrics) prof.write_metrics();
  if (pub != nullptr) {
    if (cfg.metrics) {
      std::ostringstream os;
      prof.write_metrics_prometheus(os);
      pub->publish_file("metrics.prom", os.str(), false);
    }
    // Bounded wait so "/analyze?run= right after write_traces()" sees the
    // final bytes; a dead collector costs at most the flush timeout.
    pub->flush();
  }
}

Manifest parse_manifest(std::istream& is) {
  Manifest m;
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::string_view> f;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "num_pes") {
      if (!(ls >> m.num_pes)) parse_fail(line_no, line, "bad num_pes");
    } else if (key == "dead_pe") {
      int pe = 0;
      if (!(ls >> pe)) parse_fail(line_no, line, "bad dead_pe");
      m.dead_pes.push_back(pe);
    } else if (key == "file") {
      ManifestEntry e;
      std::string rec, bytes, sum;
      if (!(ls >> e.file >> rec >> bytes >> sum))
        parse_fail(line_no, line, "malformed file entry");
      const auto kv = [&](const std::string& s, const char* prefix,
                          int base) -> std::uint64_t {
        const std::string_view sv(s);
        const std::string_view pfx(prefix);
        if (sv.substr(0, pfx.size()) != pfx)
          parse_fail(line_no, line, "malformed file entry");
        std::uint64_t v = 0;
        const std::string_view num = sv.substr(pfx.size());
        const auto [p, ec] =
            std::from_chars(num.data(), num.data() + num.size(), v, base);
        if (ec != std::errc{} || p != num.data() + num.size())
          parse_fail(line_no, line, "malformed file entry");
        return v;
      };
      e.records = kv(rec, "records=", 10);
      e.bytes = kv(bytes, "bytes=", 10);
      e.fnv1a = kv(sum, "fnv1a=", 16);
      m.files.push_back(std::move(e));
    } else {
      parse_fail(line_no, line, "unknown manifest key");
    }
  }
  return m;
}

// ---------------------------------------------------------------- TraceDir

CommMatrix TraceDir::logical_matrix() const {
  CommMatrix m(num_pes);
  for (const auto& per_pe : logical)
    for (const LogicalSendRecord& r : per_pe) m.add(r.src_pe, r.dst_pe);
  return m;
}

CommMatrix TraceDir::physical_matrix(bool include_progress) const {
  CommMatrix m(num_pes);
  for (const PhysicalRecord& r : physical) {
    if (!include_progress && r.type == convey::SendType::nonblock_progress)
      continue;
    m.add(r.src_pe, r.dst_pe);
  }
  return m;
}

SparseCommMatrix TraceDir::logical_sparse() const {
  SparseCommMatrix m(num_pes);
  for (const auto& per_pe : logical)
    for (const LogicalSendRecord& r : per_pe) m.add(r.src_pe, r.dst_pe);
  return m;
}

SparseCommMatrix TraceDir::physical_sparse(bool include_progress) const {
  SparseCommMatrix m(num_pes);
  for (const PhysicalRecord& r : physical) {
    if (!include_progress && r.type == convey::SendType::nonblock_progress)
      continue;
    m.add(r.src_pe, r.dst_pe);
  }
  return m;
}

// ---------------------------------------------------------- kind registry

namespace {

/// Registry index of overall.txt, the one text-only trace file.
constexpr std::size_t kOverallKind = schema::kNumKinds;

struct ShardRef {
  std::size_t kind = 0;
  int pe = -1;  ///< per-PE shards only
};

/// Resolve a file name in either spelling; nullopt when it names no
/// trace file.
std::optional<ShardRef> find_shard(std::string_view name) {
  constexpr std::string_view kApt = ".apt";
  if (name == kOverallFile || name == binary_file_name(kOverallFile))
    return ShardRef{kOverallKind};
  int pe = -1;
  std::string_view rest = name;
  if (rest.starts_with("PE") && rest.size() > 2 &&
      std::isdigit(static_cast<unsigned char>(rest[2]))) {
    const auto [p, ec] =
        std::from_chars(rest.data() + 2, rest.data() + rest.size(), pe);
    if (ec != std::errc{} || *p != '_') return std::nullopt;
    rest.remove_prefix(static_cast<std::size_t>(p + 1 - rest.data()));
  }
  std::optional<ShardRef> found;
  std::size_t i = 0;
  schema::for_each_kind([&]<class K>(std::type_identity<K>) {
    if (K::spec.per_pe == (pe >= 0) && rest.starts_with(K::spec.stem)) {
      const std::string_view ext = rest.substr(K::spec.stem.size());
      if (ext == K::spec.text_ext || ext == kApt) found = ShardRef{i, pe};
    }
    ++i;
  });
  return found;
}

std::string text_name(const ShardRef& s) {
  if (s.kind == kOverallKind) return kOverallFile;
  std::string out;
  schema::visit_kind(s.kind, [&]<class K>(std::type_identity<K>) {
    if (K::spec.per_pe) out = "PE" + std::to_string(s.pe) + "_";
    out += K::spec.stem;
    out += K::spec.text_ext;
  });
  return out;
}

/// Decode `body` (sniffed) into `out` and the aux it carries.
template <class Rec>
void decode_body(std::string_view body, std::vector<Rec>& out,
                 ShardAux& aux) {
  if (is_binary_trace(body))
    decode_apt(body, out, &aux);
  else
    parse_csv(body, out, &aux);
}

void decode_overall(std::string_view body, std::vector<OverallRecord>& out) {
  if (is_binary_trace(body))
    throw BinaryParseError(0, 0, "binary content in a text-only file");
  parse_overall_into(body, out);
}

/// Splice rows decoded from `body` into `dst` the way `how` says; `done`
/// records the aux once the rows landed (also after a damaged prefix).
template <class Rec, class Decode, class Done>
void splice(std::vector<Rec>& dst, Splice how, Decode&& decode,
            Done&& done) {
  if (how == Splice::prefix) {
    dst.clear();
    try {
      decode(dst);
    } catch (const TraceParseError&) {
      done();
      throw;
    }
  } else {
    std::vector<Rec> rows;
    decode(rows);
    if (how == Splice::replace || dst.empty())
      dst = std::move(rows);
    else
      dst.insert(dst.end(), std::make_move_iterator(rows.begin()),
                 std::make_move_iterator(rows.end()));
  }
  done();
}

}  // namespace

std::vector<std::string> trace_file_names(int num_pes) {
  std::vector<std::string> names;
  bool overall_done = false;
  schema::for_each_kind([&]<class K>(std::type_identity<K>) {
    if (!K::spec.per_pe && !overall_done) {
      names.emplace_back(kOverallFile);
      overall_done = true;
    }
    for (int pe = 0; pe < (K::spec.per_pe ? num_pes : 1); ++pe)
      names.push_back(text_name(ShardRef{schema::index_of<typename K::Rec>(),
                                         K::spec.per_pe ? pe : -1}));
  });
  return names;
}

std::string text_file_name(std::string_view name) {
  const auto s = find_shard(name);
  return s ? text_name(*s) : std::string(name);
}

void read_shard(TraceDir& t, std::string_view name, std::string_view body,
                Splice how) {
  const auto s = find_shard(name);
  if (!s) throw std::runtime_error("unknown trace file name");
  if (s->kind == kOverallKind) {
    splice(
        t.overall, how,
        [&](std::vector<OverallRecord>& out) { decode_overall(body, out); },
        [] {});
    return;
  }
  schema::visit_kind(s->kind, [&]<class K>(std::type_identity<K>) {
    ShardAux aux;
    const auto decode = [&](std::vector<typename K::Rec>& out) {
      decode_body(body, out, aux);
    };
    const auto done = [&] {
      if constexpr (K::spec.aux == schema::Aux::dropped) {
        t.check_recorded = true;
        t.check_dropped = aux.dropped;
      }
    };
    if constexpr (K::spec.per_pe) {
      auto& table = K::table(t);
      if (static_cast<std::size_t>(s->pe) >= table.size())
        throw std::runtime_error(
            "PE " + std::to_string(s->pe) +
            " out of range (is the MANIFEST segment missing?)");
      splice(table[static_cast<std::size_t>(s->pe)], how, decode, done);
    } else {
      splice(K::table(t), how, decode, done);
    }
  });
}

Recoded recode(std::string_view name, std::string_view body,
               TraceFormat to) {
  const auto s = find_shard(name);
  if (!s) throw std::runtime_error("unknown trace file name");
  Recoded r;
  if (s->kind == kOverallKind) {
    if (to == TraceFormat::binary)
      throw std::runtime_error("overall.txt has no binary form");
    std::vector<OverallRecord> rows;
    decode_overall(body, rows);
    r.body = std::string(body);
    r.records = rows.size();
    return r;
  }
  schema::visit_kind(s->kind, [&]<class K>(std::type_identity<K>) {
    std::vector<typename K::Rec> rows;
    ShardAux aux;
    decode_body(body, rows, aux);
    r.records = rows.size();
    if (to == TraceFormat::binary) {
      r.body = encode_apt(rows, aux);
    } else {
      Sink out;
      write_csv(out, rows, aux);
      r.body = std::move(out).str();
    }
  });
  return r;
}

bool read_file(const std::filesystem::path& p, std::string& out) {
  std::ifstream is(p, std::ios::binary | std::ios::ate);
  if (!is) return false;
  const std::streamoff size = is.tellg();
  if (size < 0) return false;
  out.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(out.data(), size);
  out.resize(static_cast<std::size_t>(is.gcount()));
  return true;
}

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes) {
  return load_trace_dir(dir, num_pes, LoadOptions{});
}

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes,
                        const LoadOptions& opts) {
  TraceDir t;
  t.num_pes = num_pes;
  t.logical.resize(static_cast<std::size_t>(num_pes));
  t.papi.resize(static_cast<std::size_t>(num_pes));
  t.steps.resize(static_cast<std::size_t>(num_pes));

  // The MANIFEST (when present) supplies checksums and the dead-PE set.
  // Its absence is not an error — pre-manifest trace dirs stay loadable.
  Manifest manifest;
  bool have_manifest = false;
  try {
    have_manifest = read_manifest(dir, manifest);
  } catch (const TraceParseError& e) {
    if (!opts.tolerate_partial) throw;
    t.issues.push_back(FileIssue{kManifestFile, e.line_no(), e.what()});
  }
  if (have_manifest) t.dead_pes = manifest.dead_pes;

  const auto in_manifest = [&](const std::string& name) {
    for (const ManifestEntry& m : manifest.files)
      if (m.file == name) return true;
    return false;
  };

  // Per file: resolve the .apt sibling first, then the text name; the
  // registry dispatches on *content* (the .apt magic), so a renamed file
  // still loads. Checksum-verify against the MANIFEST, then splice with
  // prefix semantics so a truncated or corrupt tail still yields its
  // verified prefix.
  std::string body;
  for (const std::string& name : trace_file_names(num_pes)) {
    const std::string bin_name = binary_file_name(name);
    std::string actual = bin_name;
    if (!read_file(dir / bin_name, body)) {
      actual = name;
      if (!read_file(dir / name, body)) {
        if (have_manifest && (in_manifest(name) || in_manifest(bin_name))) {
          if (!opts.tolerate_partial)
            throw std::runtime_error(name + ": cannot open trace file in " +
                                     dir.string());
          t.issues.push_back(FileIssue{name, 0, "missing trace file"});
        }
        continue;
      }
    }
    if (have_manifest && opts.tolerate_partial) {
      for (const ManifestEntry& m : manifest.files) {
        if (m.file != actual) continue;
        if (m.bytes != body.size() ||
            m.fnv1a != fnv1a64(body.data(), body.size()))
          t.issues.push_back(FileIssue{
              actual, 0,
              "checksum mismatch vs MANIFEST (file truncated or modified); "
              "keeping the parsable prefix"});
        break;
      }
    }
    try {
      read_shard(t, actual, body, Splice::prefix);
    } catch (const TraceParseError& e) {
      if (!opts.tolerate_partial)
        throw TraceParseError(e.line_no(), actual + ": " + e.what());
      t.issues.push_back(FileIssue{actual, e.line_no(), e.what()});
    }
  }
  return t;
}

bool read_manifest(const std::filesystem::path& dir, Manifest& out) {
  std::string body;
  if (!read_file(dir / kManifestFile, body)) return false;
  std::istringstream is(body);
  out = parse_manifest(is);
  return true;
}

int detect_num_pes(const std::filesystem::path& dir) {
  Manifest m;
  try {
    return read_manifest(dir, m) ? m.num_pes : 0;
  } catch (const TraceParseError&) {
    return 0;
  }
}

}  // namespace ap::prof::io
