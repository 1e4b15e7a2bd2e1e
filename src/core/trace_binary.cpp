#include "core/trace_binary.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/trace_schema.hpp"
#include "metrics/sampler.hpp"

namespace ap::prof::io {

namespace {

constexpr std::size_t kRowsPerBlock = 4096;
constexpr std::uint8_t kFlagCrc = 0x01;
/// Header flag bit of the version-2 container: blocks carry a flag byte.
constexpr std::uint8_t kFlagCompressed = 0x02;
/// Version-2 per-block flag byte values.
constexpr std::uint8_t kBlockStored = 0;
constexpr std::uint8_t kBlockLz = 1;
/// Cap on a compressed block's declared uncompressed size: fuzzed frames
/// must not turn into huge allocations. Real blocks stay far below this.
constexpr std::uint64_t kMaxRawBlockSanity = 1u << 28;
/// Column encodings (one byte per column per block).
constexpr std::uint8_t kEncDeltaRle = 0;
constexpr std::uint8_t kEncDict = 1;
/// Decoder sanity caps: a fuzzed length field must not turn into a huge
/// allocation. Real blocks hold kRowsPerBlock rows.
constexpr std::uint64_t kMaxRowsSanity = 1u << 22;
constexpr std::uint64_t kMaxValuesSanity = 1u << 26;

// --------------------------------------------------------------- primitives

std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0xffffffffu) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

/// Zigzag over the wrapped u64 delta: reversible for any pair of u64
/// values, small for small signed differences.
std::uint64_t zigzag(std::uint64_t delta) {
  const auto d = static_cast<std::int64_t>(delta);
  return static_cast<std::uint64_t>((d << 1) ^ (d >> 63));
}

std::uint64_t unzigzag(std::uint64_t v) {
  return (v >> 1) ^ (~(v & 1) + 1);
}

/// Bounded byte reader with exact error attribution. `base` is the
/// absolute file offset of the view's first byte; `block` the 1-based
/// block being decoded (0 = header).
struct Cursor {
  std::string_view body;
  std::size_t pos = 0;
  std::size_t base = 0;
  std::size_t block = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw BinaryParseError(block, base + pos, what);
  }
  [[nodiscard]] bool done() const { return pos >= body.size(); }
  std::uint8_t u8() {
    if (pos >= body.size()) fail("truncated");
    return static_cast<std::uint8_t>(body[pos++]);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint64_t b = u8();
      v |= (b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    fail("bad varint");
  }
  std::uint32_t u32le() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::string_view take(std::size_t n) {
    if (body.size() - pos < n) fail("truncated");
    const std::string_view s = body.substr(pos, n);
    pos += n;
    return s;
  }
};

// ------------------------------------------------------------ column codecs

/// Delta + run-length: a stream of (zigzag delta, run count) pairs. A
/// constant column — or one advancing by a constant stride — costs one
/// pair per block.
std::string encode_numeric(std::span<const std::uint64_t> v) {
  std::string out;
  std::uint64_t prev = 0;
  std::size_t i = 0;
  while (i < v.size()) {
    const std::uint64_t d = v[i] - prev;
    std::size_t run = 1;
    while (i + run < v.size() && v[i + run] - v[i + run - 1] == d) ++run;
    put_varint(out, zigzag(d));
    put_varint(out, run);
    prev = v[i + run - 1];
    i += run;
  }
  return out;
}

/// Decode one delta-RLE column of `nrows` values, calling put(row, value)
/// in row order.
template <class Put>
void decode_numeric(Cursor c, std::uint64_t nrows, Put&& put) {
  std::uint64_t prev = 0;
  std::uint64_t i = 0;
  while (i < nrows) {
    const std::uint64_t d = unzigzag(c.varint());
    const std::uint64_t run = c.varint();
    if (run == 0 || run > nrows - i) c.fail("bad run length");
    for (std::uint64_t k = 0; k < run; ++k) {
      prev += d;
      put(i++, prev);
    }
  }
  if (!c.done()) c.fail("trailing bytes in column");
}

void decode_numeric(Cursor c, std::uint64_t nrows,
                    std::vector<std::uint64_t>& out) {
  out.clear();
  out.reserve(nrows);
  decode_numeric(c, nrows,
                 [&](std::uint64_t, std::uint64_t v) { out.push_back(v); });
}

/// Dictionary: varint entry count, entries (varint len + bytes), then the
/// per-row indices as a delta-RLE stream.
std::string encode_dict(const std::vector<std::string_view>& v) {
  std::string out;
  std::map<std::string_view, std::uint64_t> index;
  std::vector<std::string_view> entries;
  std::vector<std::uint64_t> idx;
  idx.reserve(v.size());
  for (const std::string_view s : v) {
    const auto [it, inserted] = index.try_emplace(s, entries.size());
    if (inserted) entries.push_back(s);
    idx.push_back(it->second);
  }
  put_varint(out, entries.size());
  for (const std::string_view e : entries) {
    put_varint(out, e.size());
    out.append(e);
  }
  out += encode_numeric(idx);
  return out;
}

/// Decode one dictionary column, calling put(row, text) in row order.
template <class Put>
void decode_dict(Cursor c, std::uint64_t nrows, Put&& put) {
  const std::uint64_t n_entries = c.varint();
  if (n_entries > c.body.size()) c.fail("bad dictionary size");
  std::vector<std::string_view> entries;
  entries.reserve(n_entries);
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    const std::uint64_t len = c.varint();
    if (len > c.body.size() - c.pos) c.fail("bad dictionary entry");
    entries.push_back(c.take(len));
  }
  std::vector<std::uint64_t> idx;
  decode_numeric(c, nrows, idx);  // consumes the remainder exactly
  for (std::uint64_t i = 0; i < nrows; ++i) {
    if (idx[i] >= entries.size()) c.fail("dictionary index out of range");
    put(i, entries[idx[i]]);
  }
}

// ------------------------------------------------------------- file framing

std::string header(std::uint8_t version, std::uint8_t kind,
                   std::uint8_t flags, std::size_t ncols,
                   std::string_view aux) {
  std::string out;
  out.append(kAptMagic);
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(kind));
  out.push_back(static_cast<char>(flags));
  out.push_back(static_cast<char>(ncols));
  put_varint(out, aux.size());
  out.append(aux);
  return out;
}

std::string header(BinKind kind, std::size_t ncols, std::string_view aux) {
  return header(kAptVersion, static_cast<std::uint8_t>(kind), kFlagCrc, ncols,
                aux);
}

/// Append one block: 'B', the row count, body(out) — the column sections,
/// or a version-2 block flag and its payload — then the CRC when `crc`.
template <class Body>
void emit_block(std::string& out, std::uint64_t nrows, bool crc,
                Body&& body) {
  const std::size_t start = out.size();
  out.push_back('B');
  put_varint(out, nrows);
  body(out);
  if (crc) put_u32le(out, crc32(out.data() + start, out.size() - start));
}

/// One column section of a block: encoding byte + payload.
void put_column(std::string& out, std::uint8_t encoding,
                std::string_view payload) {
  out.push_back(static_cast<char>(encoding));
  put_varint(out, payload.size());
  out.append(payload);
}

/// A parsed file header.
struct Header {
  std::uint8_t version = 0, kind = 0, flags = 0, ncols = 0;
  std::string_view aux;
};

/// Parse the header, leaving `c` at the first block. A nonzero `kind` /
/// `ncols` must match.
Header read_header(Cursor& c, std::uint8_t kind = 0, std::size_t ncols = 0) {
  if (c.body.size() < 8 || c.body.substr(0, 4) != kAptMagic)
    c.fail("bad .apt magic");
  c.pos = 4;
  Header h;
  h.version = c.u8();
  if (h.version != kAptVersion && h.version != kAptVersionCompressed)
    c.fail("unsupported .apt version");
  h.kind = c.u8();
  if (kind != 0 && h.kind != kind) c.fail("wrong record kind");
  h.flags = c.u8();
  h.ncols = c.u8();
  if (ncols != 0 && h.ncols != ncols) c.fail("unexpected column count");
  const std::uint64_t aux_len = c.varint();
  if (aux_len > c.body.size() - c.pos) c.fail("bad aux length");
  h.aux = c.take(aux_len);
  return h;
}

/// Walk the blocks after the header. Each block's CRC is verified, then
/// on_block(block_index, block_start, nrows, sections, sections_offset, lz)
/// gets its column sections: as stored, or decompressed from a version-2
/// LZ block (whose bytes map to no file offset; sections_offset is then
/// the block start). Errors carry (block, offset) attribution.
template <class OnBlock>
void for_each_block(Cursor& c, const Header& h, OnBlock&& on_block) {
  std::string scratch;  // decompressed column sections; reused per block
  std::size_t block = 0;
  while (!c.done()) {
    c.block = ++block;
    const std::size_t block_start = c.pos;
    if (c.u8() != 'B') {
      c.pos = block_start;
      c.fail("bad block marker");
    }
    const std::uint64_t nrows = c.varint();
    if (nrows > kMaxRowsSanity) c.fail("implausible row count");
    std::uint8_t bflag = kBlockStored;
    if (h.version == kAptVersionCompressed) bflag = c.u8();
    std::uint64_t raw_len = 0;
    std::size_t sections_off = c.pos;
    std::string_view sections;
    if (bflag == kBlockLz) {
      raw_len = c.varint();
      const std::uint64_t comp_len = c.varint();
      if (raw_len > kMaxRawBlockSanity) c.fail("implausible block size");
      if (comp_len > c.body.size() - c.pos)
        c.fail("truncated compressed block");
      sections_off = c.pos;
      sections = c.take(comp_len);
    } else if (bflag == kBlockStored) {
      for (std::size_t k = 0; k < h.ncols; ++k) {
        c.u8();  // encoding
        const std::uint64_t len = c.varint();
        if (len > c.body.size() - c.pos) c.fail("truncated column payload");
        c.take(len);
      }
      sections = c.body.substr(sections_off, c.pos - sections_off);
    } else {
      c.fail("unknown block flag");
    }
    if ((h.flags & kFlagCrc) != 0) {
      const std::size_t crc_pos = c.pos;
      const std::uint32_t stored = c.u32le();
      if (stored != crc32(c.body.data() + block_start, crc_pos - block_start))
        throw BinaryParseError(block, block_start, "block CRC mismatch");
    }
    if (bflag == kBlockLz) {
      // CRC already vouched for the stored bytes; a decompression failure
      // here means the frame itself was encoded wrong.
      try {
        scratch = lz_decompress(sections, raw_len);
      } catch (const std::exception& e) {
        throw BinaryParseError(block, sections_off,
                               std::string("bad compressed block: ") +
                                   e.what());
      }
      sections = scratch;
      sections_off = block_start;
    }
    on_block(block, block_start, nrows, sections, sections_off,
             bflag == kBlockLz);
  }
}

/// One structurally-parsed (and CRC-verified) block handed to a decoder.
struct RawColumn {
  std::uint8_t encoding = 0;
  std::string_view payload;
  std::size_t abs_offset = 0;  ///< file offset of the payload
};

/// Parse header + iterate blocks. For each block: verify the CRC, then
/// call on_block(block_index, nrows, cols). Errors — structural, CRC, or
/// thrown by on_block — carry (block, offset) attribution.
template <class OnBlock>
void decode_file(std::string_view body, BinKind expect, std::size_t ncols,
                 std::string_view& aux_out, OnBlock&& on_block) {
  Cursor c{body};
  const Header h = read_header(c, static_cast<std::uint8_t>(expect), ncols);
  aux_out = h.aux;
  std::vector<RawColumn> cols(ncols);
  for_each_block(c, h,
                 [&](std::size_t block, std::size_t, std::uint64_t nrows,
                     std::string_view sections, std::size_t base, bool lz) {
                   // Column offsets inside a compressed block cannot map to
                   // file bytes; attribute them to the block start.
                   Cursor sc{sections, 0, base, block};
                   for (std::size_t k = 0; k < ncols; ++k) {
                     const std::uint8_t enc = sc.u8();
                     const std::uint64_t len = sc.varint();
                     if (len > sections.size() - sc.pos)
                       sc.fail("truncated column payload");
                     const std::size_t off = lz ? base : base + sc.pos;
                     cols[k] = {enc, sc.take(len), off};
                   }
                   if (!sc.done())
                     sc.fail("trailing bytes in compressed block");
                   on_block(block, nrows, cols);
                 });
}

}  // namespace

// ------------------------------------------------------------------- public

bool is_binary_trace(std::string_view body) {
  return body.size() >= kAptMagic.size() &&
         body.substr(0, kAptMagic.size()) == kAptMagic;
}

std::uint32_t crc32_bytes(std::string_view data) {
  return crc32(data.data(), data.size());
}

bool is_compressed_trace(std::string_view body) {
  return is_binary_trace(body) && body.size() > kAptMagic.size() &&
         static_cast<std::uint8_t>(body[kAptMagic.size()]) ==
             kAptVersionCompressed;
}

// ---- LZ codec --------------------------------------------------------------
// Greedy LZ77 over a 64 KiB window with an 8K-entry position hash, emitted
// as an LZ4-style token stream: per sequence one token byte (high nibble =
// literal length, low nibble = match length - 4, 15 meaning "255-run
// extension bytes follow"), the literals, then a 2-byte little-endian
// back-offset. The final sequence may be literals only. Decompression
// needs the exact uncompressed size, which the block frame records.

namespace {

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzHashBits = 13;

std::uint32_t lz_read32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void lz_put_ext(std::string& out, std::size_t rest) {
  while (rest >= 255) {
    out.push_back(static_cast<char>(0xff));
    rest -= 255;
  }
  out.push_back(static_cast<char>(rest));
}

void lz_emit(std::string& out, std::string_view in, std::size_t lit_start,
             std::size_t lit_len, std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nib = std::min<std::size_t>(lit_len, 15);
  const std::size_t match_nib =
      match_len == 0 ? 0 : std::min<std::size_t>(match_len - kLzMinMatch, 15);
  out.push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) lz_put_ext(out, lit_len - 15);
  out.append(in.substr(lit_start, lit_len));
  if (match_len > 0) {
    out.push_back(static_cast<char>(offset & 0xff));
    out.push_back(static_cast<char>((offset >> 8) & 0xff));
    if (match_nib == 15) lz_put_ext(out, match_len - kLzMinMatch - 15);
  }
}

}  // namespace

std::string lz_compress(std::string_view in) {
  std::string out;
  out.reserve(in.size() / 2 + 16);
  const std::size_t n = in.size();
  std::vector<std::uint32_t> table(std::size_t{1} << kLzHashBits, 0);
  const auto hash = [](std::uint32_t v) {
    return (v * 2654435761u) >> (32 - kLzHashBits);
  };
  std::size_t anchor = 0;
  std::size_t i = 0;
  while (n >= kLzMinMatch && i + kLzMinMatch <= n) {
    const std::uint32_t h = hash(lz_read32(in.data() + i));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i + 1);
    if (cand != 0 && i - (cand - 1) <= 0xffff &&
        lz_read32(in.data() + (cand - 1)) == lz_read32(in.data() + i)) {
      const std::size_t m = cand - 1;
      std::size_t len = kLzMinMatch;
      while (i + len < n && in[m + len] == in[i + len]) ++len;
      lz_emit(out, in, anchor, i - anchor, len, i - m);
      i += len;
      anchor = i;
    } else {
      ++i;
    }
  }
  if (anchor < n) lz_emit(out, in, anchor, n - anchor, 0, 0);
  return out;
}

std::string lz_decompress(std::string_view comp, std::size_t raw_len) {
  std::string out;
  out.reserve(raw_len);
  std::size_t pos = 0;
  const auto need = [&](std::size_t k) {
    if (comp.size() - pos < k) throw std::runtime_error("truncated LZ stream");
  };
  const auto read_len = [&](std::size_t nibble) {
    std::size_t len = nibble;
    if (nibble == 15) {
      std::uint8_t b = 0;
      do {
        need(1);
        b = static_cast<std::uint8_t>(comp[pos++]);
        len += b;
      } while (b == 0xff);
    }
    return len;
  };
  while (pos < comp.size()) {
    const std::uint8_t token = static_cast<std::uint8_t>(comp[pos++]);
    const std::size_t lit_len = read_len(token >> 4);
    need(lit_len);
    if (raw_len - out.size() < lit_len)
      throw std::runtime_error("LZ output overrun");
    out.append(comp.substr(pos, lit_len));
    pos += lit_len;
    if (pos >= comp.size()) break;  // final literal-only sequence
    need(2);
    const std::size_t offset =
        static_cast<std::size_t>(static_cast<std::uint8_t>(comp[pos])) |
        (static_cast<std::size_t>(static_cast<std::uint8_t>(comp[pos + 1]))
         << 8);
    pos += 2;
    if (offset == 0 || offset > out.size())
      throw std::runtime_error("bad LZ match offset");
    const std::size_t match_len = read_len(token & 0x0f) + kLzMinMatch;
    if (raw_len - out.size() < match_len)
      throw std::runtime_error("LZ output overrun");
    const std::size_t src = out.size() - offset;
    for (std::size_t k = 0; k < match_len; ++k)
      out.push_back(out[src + k]);  // may overlap the bytes just written
  }
  if (out.size() != raw_len) throw std::runtime_error("LZ size mismatch");
  return out;
}

// ---- container re-framing --------------------------------------------------

std::string compress_trace(std::string_view body) {
  if (is_compressed_trace(body)) return std::string(body);
  Cursor c{body};
  const Header h = read_header(c);
  std::string out = header(kAptVersionCompressed, h.kind,
                           h.flags | kFlagCompressed, h.ncols, h.aux);
  out.reserve(body.size());
  for_each_block(c, h,
                 [&](std::size_t, std::size_t, std::uint64_t nrows,
                     std::string_view raw, std::size_t, bool) {
                   const std::string comp = lz_compress(raw);
                   emit_block(out, nrows, (h.flags & kFlagCrc) != 0,
                              [&](std::string& o) {
                                if (comp.size() < raw.size()) {
                                  o.push_back(static_cast<char>(kBlockLz));
                                  put_varint(o, raw.size());
                                  put_varint(o, comp.size());
                                  o.append(comp);
                                } else {  // incompressible: store verbatim
                                  o.push_back(static_cast<char>(kBlockStored));
                                  o.append(raw);
                                }
                              });
                 });
  return out;
}

std::string decompress_trace(std::string_view body) {
  Cursor c{body};
  if (body.size() < 8 || body.substr(0, 4) != kAptMagic)
    c.fail("bad .apt magic");
  if (!is_compressed_trace(body)) return std::string(body);
  const Header h = read_header(c);
  std::string out = header(kAptVersion, h.kind, h.flags & ~kFlagCompressed,
                           h.ncols, h.aux);
  out.reserve(body.size() * 2);
  for_each_block(c, h,
                 [&](std::size_t, std::size_t, std::uint64_t nrows,
                     std::string_view raw, std::size_t, bool) {
                   emit_block(out, nrows, (h.flags & kFlagCrc) != 0,
                              [&](std::string& o) { o.append(raw); });
                 });
  return out;
}

std::string binary_file_name(std::string_view csv_name) {
  const std::size_t dot = csv_name.rfind('.');
  std::string out(dot == std::string_view::npos ? csv_name
                                                : csv_name.substr(0, dot));
  out += ".apt";
  return out;
}

BinaryParseError::BinaryParseError(std::size_t block, std::size_t offset,
                                   const std::string& what)
    : TraceParseError(block, "binary trace parse error at block " +
                                 std::to_string(block) + " offset " +
                                 std::to_string(offset) + ": " + what),
      offset_(offset) {}

// ---- schema-driven codec ---------------------------------------------------

template <class Rec>
std::string encode_apt(const std::vector<Rec>& rows, const ShardAux& aux) {
  using K = schema::KindOf<Rec>;
  using schema::Store;
  std::string aux_bytes;
  if constexpr (K::spec.aux == schema::Aux::papi_events) {
    const std::size_t n = std::min<std::size_t>(aux.papi_events.size(),
                                                papi::kMaxEventsPerSet);
    aux_bytes.push_back(static_cast<char>(n));
    for (std::size_t i = 0; i < n; ++i)
      aux_bytes.push_back(static_cast<char>(aux.papi_events[i]));
  } else if constexpr (K::spec.aux == schema::Aux::dropped) {
    put_varint(aux_bytes, aux.dropped);
  }
  std::string out = header(K::spec.bin, schema::apt_columns<K>(), aux_bytes);
  // Each block's rows are gathered in one row-major pass into per-column
  // slices of `nums` (dictionary columns into `strs`), then each column
  // is encoded.
  constexpr std::size_t kCols = schema::apt_columns<K>();
  const std::size_t cap = std::min(rows.size(), kRowsPerBlock);
  std::vector<std::uint64_t> nums(kCols * cap);
  std::array<std::vector<std::string_view>, kCols> strs;
  for (std::size_t base = 0; base < rows.size(); base += kRowsPerBlock) {
    const std::size_t n = std::min(kRowsPerBlock, rows.size() - base);
    for (auto& v : strs) v.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const Rec& r = rows[base + i];
      std::uint64_t* num = nums.data() + i;
      std::size_t k = 0;
      schema::for_each_column<K>([&](const auto& c, auto) {
        using C = std::decay_t<decltype(c)>;
        const auto& v = r.*C::member;
        if constexpr (C::store == Store::dict)
          strs[k++].push_back(v);
        else if constexpr (C::store == Store::counters)
          for (const std::uint64_t x : v) num[cap * k++] = x;
        else if constexpr (C::store == Store::enumeration)
          num[cap * k++] = C::W::to_u64(v);
        else
          num[cap * k++] = static_cast<std::uint64_t>(v);
      });
    }
    emit_block(out, n, true, [&](std::string& o) {
      std::size_t k = 0;
      schema::for_each_column<K>([&](const auto& c, auto) {
        if constexpr (std::decay_t<decltype(c)>::store == Store::dict) {
          put_column(o, kEncDict, encode_dict(strs[k++]));
        } else {
          for (std::size_t j = 0; j < c.apt_cols; ++j, ++k)
            put_column(o, kEncDeltaRle,
                       encode_numeric({nums.data() + cap * k, n}));
        }
      });
    });
  }
  return out;
}

template <class Rec>
void decode_apt(std::string_view body, std::vector<Rec>& out,
                ShardAux* aux) {
  using K = schema::KindOf<Rec>;
  using schema::Store;
  constexpr std::size_t kCols = schema::apt_columns<K>();
  std::string_view aux_bytes;
  decode_file(
      body, K::spec.bin, kCols, aux_bytes,
      [&](std::size_t block, std::uint64_t nrows,
          const std::vector<RawColumn>& cols) {
        // Columns decode straight into the block's rows; the rows only
        // stay once every column of the block decoded.
        const std::size_t base = out.size();
        out.resize(base + nrows);
        Rec* rows = out.data() + base;
        std::uint64_t bad_row = nrows;  // first out-of-range enum value
        std::size_t bad_col = 0;
        std::string_view bad_what;
        std::size_t k = 0;
        const auto column = [&](std::uint8_t encoding) {
          const RawColumn& rc = cols[k++];
          Cursor cc{rc.payload, 0, rc.abs_offset, block};
          if (rc.encoding != encoding) cc.fail("unexpected column encoding");
          return cc;
        };
        try {
          schema::for_each_column<K>([&](const auto& c, auto) {
            using C = std::decay_t<decltype(c)>;
            if constexpr (C::store == Store::dict) {
              decode_dict(column(kEncDict), nrows,
                          [&](std::uint64_t i, std::string_view v) {
                            rows[i].*C::member = std::string(v);
                          });
            } else if constexpr (C::store == Store::counters) {
              for (std::size_t slot = 0; slot < papi::kMaxEventsPerSet;
                   ++slot)
                decode_numeric(column(kEncDeltaRle), nrows,
                               [&](std::uint64_t i, std::uint64_t v) {
                                 (rows[i].*C::member)[slot] = v;
                               });
            } else if constexpr (C::store == Store::enumeration) {
              const std::size_t col = k;
              decode_numeric(column(kEncDeltaRle), nrows,
                             [&](std::uint64_t i, std::uint64_t v) {
                               if (!C::W::from_u64(v, rows[i].*C::member) &&
                                   i < bad_row) {
                                 bad_row = i;
                                 bad_col = col;
                                 bad_what = C::W::what;
                               }
                             });
            } else {
              decode_numeric(column(kEncDeltaRle), nrows,
                             [&](std::uint64_t i, std::uint64_t v) {
                               rows[i].*C::member =
                                   static_cast<typename C::Type>(v);
                             });
            }
          });
        } catch (...) {
          out.resize(base);
          throw;
        }
        if (bad_row < nrows) {
          out.resize(base + bad_row);
          Cursor{cols[bad_col].payload, 0, cols[bad_col].abs_offset, block}
              .fail(std::string(bad_what) + " value");
        }
      });
  if constexpr (K::spec.aux == schema::Aux::papi_events) {
    if (aux != nullptr) {
      aux->papi_events.clear();
      if (!aux_bytes.empty()) {
        const auto n = static_cast<std::size_t>(
            static_cast<unsigned char>(aux_bytes[0]));
        for (std::size_t i = 0; i + 1 < aux_bytes.size() && i < n; ++i) {
          const int e = static_cast<unsigned char>(aux_bytes[1 + i]);
          if (e < static_cast<int>(papi::Event::kCount))
            aux->papi_events.push_back(static_cast<papi::Event>(e));
        }
      }
    }
  } else if constexpr (K::spec.aux == schema::Aux::dropped) {
    Cursor ac{aux_bytes};
    const std::uint64_t dropped = ac.varint();
    if (aux != nullptr) aux->dropped = dropped;
  }
}

template std::string encode_apt(const std::vector<LogicalSendRecord>&,
                                const ShardAux&);
template std::string encode_apt(const std::vector<PapiSegmentRecord>&,
                                const ShardAux&);
template std::string encode_apt(const std::vector<SuperstepRecord>&,
                                const ShardAux&);
template std::string encode_apt(const std::vector<check::Violation>&,
                                const ShardAux&);
template std::string encode_apt(const std::vector<PhysicalRecord>&,
                                const ShardAux&);
template void decode_apt(std::string_view, std::vector<LogicalSendRecord>&,
                         ShardAux*);
template void decode_apt(std::string_view, std::vector<PapiSegmentRecord>&,
                         ShardAux*);
template void decode_apt(std::string_view, std::vector<SuperstepRecord>&,
                         ShardAux*);
template void decode_apt(std::string_view, std::vector<check::Violation>&,
                         ShardAux*);
template void decode_apt(std::string_view, std::vector<PhysicalRecord>&,
                         ShardAux*);

// ---- metric samples --------------------------------------------------------

std::string encode_metric_samples(const metrics::SampleRing& r) {
  std::string aux;
  put_varint(aux, static_cast<std::uint64_t>(r.num_pes()));
  put_varint(aux, r.num_series());
  std::string out = header(BinKind::metrics, 2, aux);
  const std::size_t per_row =
      static_cast<std::size_t>(r.num_pes()) * r.num_series();
  std::vector<std::uint64_t> times;
  std::vector<std::uint64_t> values;
  for (std::size_t base = 0; base < r.size(); base += kRowsPerBlock) {
    const std::size_t n = std::min(kRowsPerBlock, r.size() - base);
    times.clear();
    values.clear();
    values.reserve(n * per_row);
    for (std::size_t i = 0; i < n; ++i) {
      const metrics::SampleRing::View v = r.at(base + i);
      times.push_back(v.t_cycles);
      for (std::size_t k = 0; k < per_row; ++k)
        values.push_back(static_cast<std::uint64_t>(v.row[k]));
    }
    emit_block(out, n, true, [&](std::string& o) {
      put_column(o, kEncDeltaRle, encode_numeric(times));
      put_column(o, kEncDeltaRle, encode_numeric(values));
    });
  }
  return out;
}

void decode_metric_samples_into(std::string_view body, MetricSamples& out) {
  std::string_view aux;
  std::vector<std::uint64_t> times;
  std::vector<std::uint64_t> values;
  bool have_aux = false;
  std::uint64_t per_row = 0;
  decode_file(
      body, BinKind::metrics, 2, aux,
      [&](std::size_t block, std::uint64_t nrows,
          const std::vector<RawColumn>& cols) {
        if (!have_aux) {
          Cursor ac{aux};
          out.num_pes = static_cast<int>(ac.varint());
          out.num_series = ac.varint();
          per_row = static_cast<std::uint64_t>(out.num_pes) * out.num_series;
          have_aux = true;
        }
        if (nrows * per_row > kMaxValuesSanity) {
          Cursor cc{cols[1].payload, 0, cols[1].abs_offset, block};
          cc.fail("implausible sample volume");
        }
        Cursor ct{cols[0].payload, 0, cols[0].abs_offset, block};
        decode_numeric(ct, nrows, times);
        Cursor cv{cols[1].payload, 0, cols[1].abs_offset, block};
        decode_numeric(cv, nrows * per_row, values);
        out.t_cycles.insert(out.t_cycles.end(), times.begin(), times.end());
        out.values.reserve(out.values.size() + values.size());
        for (const std::uint64_t v : values)
          out.values.push_back(static_cast<std::int64_t>(v));
      });
  if (!have_aux) {  // zero-block file: still surface the shape
    Cursor ac{aux};
    out.num_pes = static_cast<int>(ac.varint());
    out.num_series = ac.varint();
  }
}

}  // namespace ap::prof::io
