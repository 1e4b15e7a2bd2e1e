// Golden bytes of every two-format trace kind: for a fixed row set per
// kind, the FNV-1a of the CSV body, of the .apt body and of the compressed
// .apt body are pinned. Round-trip tests only prove the codecs agree with
// each other; these prove the files themselves did not change — a
// reordered column, an edited header comment or a different block framing
// all fail here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/config.hpp"
#include "core/records.hpp"
#include "core/sink.hpp"
#include "core/trace_binary.hpp"
#include "core/trace_io.hpp"
#include "core/trace_schema.hpp"

namespace {

namespace io = ap::prof::io;
using ap::prof::LogicalSendRecord;
using ap::prof::PapiSegmentRecord;
using ap::prof::PhysicalRecord;
using ap::prof::SuperstepRecord;
using ap::check::Violation;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();

// ---- codec shim: the only lines that name the codec API -------------------

io::ShardAux aux_of(const std::vector<PapiSegmentRecord>&) {
  ap::prof::Config cfg;
  cfg.papi_events = {ap::papi::Event::TOT_INS, ap::papi::Event::LST_INS,
                     ap::papi::Event::L1_DCM, ap::papi::Event::kCount};
  return io::papi_aux(cfg);
}
template <class Rec>
io::ShardAux aux_of(const std::vector<Rec>&) {
  return {};
}

template <class Rec>
std::string csv_of(const std::vector<Rec>& r) {
  io::Sink s;
  io::write_csv(s, r, aux_of(r));
  return std::move(s).str();
}
std::string csv_of(const std::vector<Violation>& r, std::uint64_t dropped) {
  io::ShardAux aux;
  aux.dropped = dropped;
  io::Sink s;
  io::write_csv(s, r, aux);
  return std::move(s).str();
}

template <class Rec>
std::string apt_of(const std::vector<Rec>& r) {
  return io::encode_apt(r, aux_of(r));
}
std::string apt_of(const std::vector<Violation>& r, std::uint64_t dropped) {
  io::ShardAux aux;
  aux.dropped = dropped;
  return io::encode_apt(r, aux);
}

// ---- fixed row sets ---------------------------------------------------------

std::vector<LogicalSendRecord> send_rows() {
  std::vector<LogicalSendRecord> v{{0, 0, 1, 5, 64},
                                   {1, 5, 0, 0, 4096},
                                   {0, 0, 0, 0, 0},
                                   {3, 15, 2, 9, kU32Max}};
  // Past one 4096-row block, so the block framing is pinned too.
  for (int i = 0; i < 4100; ++i)
    v.push_back({i % 4, i % 16, (i / 16) % 4, (i * 7) % 16,
                 static_cast<std::uint32_t>(8 + (i * 37) % 1024)});
  return v;
}

std::vector<PapiSegmentRecord> papi_rows() {
  std::vector<PapiSegmentRecord> v;
  PapiSegmentRecord r;
  r.src_node = 0;
  r.src_pe = 1;
  r.dst_node = 1;
  r.dst_pe = 6;
  r.pkt_bytes = 16;
  r.mailbox_id = 0;
  r.num_sends = 12;
  r.counters = {1000, 250, 3, 0};
  r.is_proc = false;
  v.push_back(r);
  r.dst_node = 0;
  r.dst_pe = 1;
  r.mailbox_id = 1;
  r.num_sends = kU64Max;
  r.counters = {kU64Max, 0, kU64Max, 0};
  r.is_proc = true;
  v.push_back(r);
  r = PapiSegmentRecord{};
  r.is_proc = true;
  v.push_back(r);
  return v;
}

std::vector<SuperstepRecord> steps_rows() {
  std::vector<SuperstepRecord> v;
  SuperstepRecord r;
  r.pe = 3;
  r.epoch = 0;
  r.step = 0;
  r.t_main = 120;
  r.t_proc = 40;
  r.t_comm = 9;
  r.msgs_sent = 7;
  r.bytes_sent = 56;
  r.msgs_handled = 5;
  r.barrier_arrive = 169;
  r.barrier_release = 200;
  v.push_back(r);
  r.step = 1;
  r.t_main = kU64Max;
  r.barrier_arrive = kU64Max;
  r.barrier_release = kU64Max;
  v.push_back(r);
  r.epoch = kU32Max;
  r.step = kU32Max;
  r.t_main = 0;
  r.barrier_arrive = 0;
  r.barrier_release = 1;
  v.push_back(r);
  return v;
}

std::vector<PhysicalRecord> physical_rows() {
  using ap::convey::SendType;
  std::vector<PhysicalRecord> v{{SendType::local_send, 4096, 0, 1},
                                {SendType::nonblock_send, 65536, 1, 7},
                                {SendType::nonblock_progress, 0, 7, 0},
                                {SendType::nonblock_send, kU64Max, 2, 2}};
  for (int i = 0; i < 4100; ++i)
    v.push_back({static_cast<SendType>(i % 3),
                 static_cast<std::uint64_t>(64 * (1 + i % 32)), i % 8,
                 (i * 3) % 8});
  return v;
}

std::vector<Violation> check_rows() {
  std::vector<Violation> v;
  Violation x;
  x.kind = Violation::Kind::WriteReadRace;
  x.pe = 2;
  x.other_pe = 5;
  x.superstep = 3;
  x.offset = 128;
  x.bytes = 8;
  x.callsite = "app.cpp:42";
  x.detail = "read overlaps peer write";
  v.push_back(x);
  x.kind = Violation::Kind::UnquiescedAtBarrier;
  x.other_pe = -1;
  x.offset = kU64Max;
  x.bytes = 0;
  x.callsite = "kernel.cpp:7";
  x.detail = "2 staged puts";
  v.push_back(x);
  x.kind = Violation::Kind::ApiMisuse;
  x.pe = 0;
  x.superstep = kU32Max;
  x.offset = 0;
  x.callsite = "app.cpp:42";
  x.detail = "";
  v.push_back(x);
  return v;
}

constexpr std::uint64_t kCheckDropped = 17;

// ---- the pins -----------------------------------------------------------------

struct Pins {
  std::uint64_t csv, apt, apt_compressed;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_pins(const char* kind, const std::string& csv,
                 const std::string& apt, const Pins& want) {
  const std::string comp = io::compress_trace(apt);
  const Pins got{io::fnv1a64(csv.data(), csv.size()),
                 io::fnv1a64(apt.data(), apt.size()),
                 io::fnv1a64(comp.data(), comp.size())};
  EXPECT_EQ(hex(got.csv), hex(want.csv)) << kind << " CSV body changed";
  EXPECT_EQ(hex(got.apt), hex(want.apt)) << kind << " .apt body changed";
  EXPECT_EQ(hex(got.apt_compressed), hex(want.apt_compressed))
      << kind << " compressed .apt body changed";
}

TEST(TraceGolden, Send) {
  const auto rows = send_rows();
  expect_pins("send", csv_of(rows), apt_of(rows),
              {0xe0f44a880d8145f9ull, 0x7554f3035b42ebe0ull,
               0x7bc661902c649d7bull});
}

TEST(TraceGolden, Papi) {
  const auto rows = papi_rows();
  expect_pins("papi", csv_of(rows), apt_of(rows),
              {0xadf25e2cb0f4ae8dull, 0xd47ac8a588b32157ull,
               0x26751d703e0676d5ull});
}

TEST(TraceGolden, Steps) {
  const auto rows = steps_rows();
  expect_pins("steps", csv_of(rows), apt_of(rows),
              {0x4f9d4771da19b9e1ull, 0x6005ac1d38166425ull,
               0xbe7074d9074fae48ull});
}

TEST(TraceGolden, Physical) {
  const auto rows = physical_rows();
  expect_pins("physical", csv_of(rows), apt_of(rows),
              {0xdf29b071dfd33214ull, 0x594fce738b0606b5ull,
               0x96795b7c0ee6777cull});
}

TEST(TraceGolden, Check) {
  const auto rows = check_rows();
  expect_pins("check", csv_of(rows, kCheckDropped),
              apt_of(rows, kCheckDropped),
              {0x2cb0fad020c2214dull, 0x50a8dd51314a65b0ull,
               0x111b84e6f2fdef05ull});
}

TEST(TraceGolden, EmptyShards) {
  // Header-only files: what a PE with no rows (or a clean checked run)
  // leaves on disk.
  const std::string send_csv = csv_of(std::vector<LogicalSendRecord>{});
  const std::string check_csv = csv_of(std::vector<Violation>{}, 0);
  EXPECT_EQ(send_csv,
            "# source node, source PE, destination node, destination PE, "
            "message size\n");
  EXPECT_EQ(check_csv,
            "# kind, pe, other_pe, superstep, offset, bytes, callsite, "
            "detail\n");
  expect_pins("empty papi", csv_of(std::vector<PapiSegmentRecord>{}),
              apt_of(std::vector<PapiSegmentRecord>{}),
              {0x02aa925692106a3aull, 0x36f01b7ee88f1a2dull,
               0xcd4a4e6d96ee92baull});
}

// ---- docs/TRACE_FORMAT.md ----------------------------------------------------

/// The "Record kinds" table of kind K, rendered from the schema.
template <class K>
std::string doc_table() {
  namespace schema = io::schema;
  constexpr const char* kAux[] = {"none", "PAPI event ids", "dropped count"};
  std::string t = "#### `";
  t += K::spec.per_pe ? "PE<i>_" : "";
  t += std::string(K::spec.stem) + std::string(K::spec.text_ext) +
       "` / `.apt` kind " + std::to_string(static_cast<int>(K::spec.bin)) +
       ", aux: " +
       kAux[static_cast<int>(K::spec.aux)] +
       "\n\n| column | CSV | .apt |\n|---|---|---|\n";
  schema::for_each_column<K>([&](const auto& c, auto) {
    using C = std::decay_t<decltype(c)>;
    constexpr const char* kCsv[] = {"integer", "word", "text",
                                    "one integer per event"};
    constexpr const char* kApt[] = {"delta-RLE", "delta-RLE, validated",
                                    "dictionary", "4 x delta-RLE"};
    const auto store = static_cast<int>(C::store);
    t += "| " + std::string(c.name) + " | " + kCsv[store] + " | " +
         kApt[store] + " |\n";
  });
  return t;
}

TEST(TraceSchema, DocTablesMatchSchema) {
  std::ifstream is(std::string(ACTORPROF_SOURCE_DIR) +
                   "/docs/TRACE_FORMAT.md");
  ASSERT_TRUE(is.is_open());
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string doc = ss.str();
  io::schema::for_each_kind([&]<class K>(std::type_identity<K>) {
    const std::string table = doc_table<K>();
    EXPECT_NE(doc.find(table), std::string::npos)
        << "docs/TRACE_FORMAT.md must carry the schema's table:\n" << table;
  });
}

}  // namespace
