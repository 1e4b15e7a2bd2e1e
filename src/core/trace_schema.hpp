// The trace record schema: one compile-time column list per two-format
// record kind (docs/TRACE_FORMAT.md, "Record kinds").
//
// A column names its CSV header text, the record member it reads and
// writes, and how it is stored. The CSV writer and parser (trace_io.cpp)
// and the .apt encoder and decoder (trace_binary.cpp) fold over these
// lists, so the four directions cannot disagree about which columns a
// kind has or in what order. The folds are resolved at compile time: no
// per-field virtual call or std::function on the hot loops.
//
// A new record kind is one more struct here, appended to `Kinds`, plus its
// TraceDir member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "core/records.hpp"
#include "core/trace_binary.hpp"

namespace ap::prof::io::schema {

/// How a column is stored.
///   num         CSV: base-10.          .apt: one delta-RLE column.
///   enumeration CSV: a word.           .apt: its integer value.
///   dict        CSV: the raw text.     .apt: one dictionary column.
///   counters    CSV: one field per configured PAPI counter (ShardAux),
///               .apt: papi::kMaxEventsPerSet delta-RLE columns.
enum class Store : std::uint8_t { num, enumeration, dict, counters };

/// Which ShardAux field a kind carries beside its rows.
enum class Aux : std::uint8_t { none, papi_events, dropped };

template <class T>
struct MemberOf;
template <class R, class T>
struct MemberOf<T R::*> {
  using Type = T;
};

template <Store S, auto M, class Words = void>
struct Column {
  static constexpr Store store = S;
  static constexpr auto member = M;
  using Type = typename MemberOf<decltype(M)>::Type;
  using W = Words;
  /// Fields of a CSV row (the counter group's vary, see ShardAux) and
  /// columns of an .apt block.
  static constexpr std::size_t csv_fields = S == Store::counters ? 0 : 1;
  static constexpr std::size_t apt_cols =
      S == Store::counters ? papi::kMaxEventsPerSet : 1;
  std::string_view name;  ///< CSV header text
};

template <auto M>
using Num = Column<Store::num, M>;
template <auto M>
using Dict = Column<Store::dict, M>;
/// The PAPI counter group. Its CSV header expands to the event names of
/// ShardAux::papi_events; `name` only labels it in docs.
template <auto M>
using Counters = Column<Store::counters, M>;

/// An enum column; `Words` converts between the value, its CSV word and
/// its .apt integer.
template <auto M, class Words>
using Enum = Column<Store::enumeration, M, Words>;

/// Words of an enum whose values run 0..Last, spelled by ToString (a
/// function pointer). The .apt integer must name a value in range. A
/// derived struct names the error, `what`: a CSV word outside the set
/// fails with it, an .apt integer out of range with `what` + " value".
template <class E, auto ToString, E Last>
struct Words {
  using T = E;
  static constexpr std::size_t kCount = static_cast<std::size_t>(Last) + 1;
  static std::string_view word(T v) { return ToString(v); }
  static bool parse(std::string_view s, T& out) {
    for (std::size_t i = 0; i < kCount; ++i)
      if (s == ToString(static_cast<T>(i))) {
        out = static_cast<T>(i);
        return true;
      }
    return false;
  }
  static std::uint64_t to_u64(T v) {
    return static_cast<std::uint64_t>(static_cast<int>(v));
  }
  static bool from_u64(std::uint64_t v, T& out) {
    const int i = static_cast<int>(v);
    if (i < 0 || static_cast<std::size_t>(i) >= kCount) return false;
    out = static_cast<T>(i);
    return true;
  }
};

inline std::string_view region_word(bool proc) {
  return proc ? "PROC" : "MAIN";
}

struct SendTypeWords
    : Words<convey::SendType,
            static_cast<std::string_view (*)(convey::SendType)>(
                &convey::to_string),
            convey::SendType::nonblock_progress> {
  static constexpr std::string_view what = "unknown send type";
};

/// PapiSegmentRecord::is_proc: a PROC (handler) or MAIN (send) row.
struct RegionWords : Words<bool, &region_word, true> {
  static constexpr std::string_view what = "unknown region";
};

struct ViolationKindWords
    : Words<check::Violation::Kind,
            static_cast<const char* (*)(check::Violation::Kind)>(
                &check::to_string),
            check::Violation::Kind::ApiMisuse> {
  static constexpr std::string_view what = "unknown violation kind";
};

// ---- the kinds -------------------------------------------------------------
// Per kind: the record type, its registry row (Spec), its TraceDir member
// and its columns.

/// One registry row.
struct Spec {
  BinKind bin;  ///< the .apt header's kind byte
  Aux aux;
  std::string_view stem;  ///< file stem: "PE<i>_<stem>" per PE, else "<stem>"
  bool per_pe;
  std::string_view text_ext;  ///< ".csv" or ".txt"; the binary twin is ".apt"
  std::size_t csv_row_bytes;  ///< sizes the CSV writer's buffer up front
};

struct Send {
  using Rec = LogicalSendRecord;
  static constexpr Spec spec{BinKind::send, Aux::none,
                              "send", true, ".csv", 12};
  static auto& table(TraceDir& t) { return t.logical; }
  static constexpr std::tuple cols{
      Num<&Rec::src_node>{"source node"},
      Num<&Rec::src_pe>{"source PE"},
      Num<&Rec::dst_node>{"destination node"},
      Num<&Rec::dst_pe>{"destination PE"},
      Num<&Rec::msg_bytes>{"message size"}};
};

struct Papi {
  using Rec = PapiSegmentRecord;
  static constexpr Spec spec{BinKind::papi, Aux::papi_events,
                              "PAPI", true, ".csv", 32};
  static auto& table(TraceDir& t) { return t.papi; }
  static constexpr std::tuple cols{
      Num<&Rec::src_node>{"source node"},
      Num<&Rec::src_pe>{"source PE"},
      Num<&Rec::dst_node>{"dst node"},
      Num<&Rec::dst_pe>{"dst PE"},
      Num<&Rec::pkt_bytes>{"pkt size"},
      Num<&Rec::mailbox_id>{"MAILBOXID"},
      Num<&Rec::num_sends>{"NUM_SENDS"},
      Counters<&Rec::counters>{"<PAPI event names>"},
      Enum<&Rec::is_proc, RegionWords>{"REGION"}};
};

struct Steps {
  using Rec = SuperstepRecord;
  static constexpr Spec spec{BinKind::steps, Aux::none,
                              "steps", true, ".csv", 40};
  static auto& table(TraceDir& t) { return t.steps; }
  static constexpr std::tuple cols{
      Num<&Rec::pe>{"pe"},
      Num<&Rec::epoch>{"epoch"},
      Num<&Rec::step>{"step"},
      Num<&Rec::t_main>{"t_main"},
      Num<&Rec::t_proc>{"t_proc"},
      Num<&Rec::t_comm>{"t_comm"},
      Num<&Rec::msgs_sent>{"msgs_sent"},
      Num<&Rec::bytes_sent>{"bytes_sent"},
      Num<&Rec::msgs_handled>{"msgs_handled"},
      Num<&Rec::barrier_arrive>{"barrier_arrive"},
      Num<&Rec::barrier_release>{"barrier_release"}};
};

struct Check {
  using Rec = check::Violation;
  static constexpr Spec spec{BinKind::check, Aux::dropped,
                              "check", false, ".csv", 48};
  static auto& table(TraceDir& t) { return t.check; }
  static constexpr std::tuple cols{
      Enum<&Rec::kind, ViolationKindWords>{"kind"},
      Num<&Rec::pe>{"pe"},
      Num<&Rec::other_pe>{"other_pe"},
      Num<&Rec::superstep>{"superstep"},
      Num<&Rec::offset>{"offset"},
      Num<&Rec::bytes>{"bytes"},
      Dict<&Rec::callsite>{"callsite"},
      Dict<&Rec::detail>{"detail"}};
};

struct Physical {
  using Rec = PhysicalRecord;
  static constexpr Spec spec{BinKind::physical, Aux::none,
                              "physical", false, ".txt", 24};
  static auto& table(TraceDir& t) { return t.physical; }
  static constexpr std::tuple cols{
      Enum<&Rec::type, SendTypeWords>{"send type"},
      Num<&Rec::buffer_bytes>{"buffer size"},
      Num<&Rec::src_pe>{"source PE"},
      Num<&Rec::dst_pe>{"destination PE"}};
};

/// The kind registry, in write_all's file order (overall.txt, which has
/// no schema, is written between the per-PE and the global kinds).
using Kinds = std::tuple<Send, Papi, Steps, Check, Physical>;
inline constexpr std::size_t kNumKinds = std::tuple_size_v<Kinds>;

template <class Rec, std::size_t I = 0>
constexpr std::size_t index_of() {
  static_assert(I < kNumKinds, "not a two-format trace record type");
  if constexpr (std::is_same_v<typename std::tuple_element_t<I, Kinds>::Rec,
                               Rec>)
    return I;
  else
    return index_of<Rec, I + 1>();
}

/// The schema of record type `Rec`.
template <class Rec>
using KindOf = std::tuple_element_t<index_of<Rec>(), Kinds>;

/// Call f(std::type_identity<K>{}) for every kind K, in registry order.
template <class F>
void for_each_kind(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::type_identity<std::tuple_element_t<I, Kinds>>{}), ...);
  }(std::make_index_sequence<kNumKinds>{});
}

/// Call f(std::type_identity<K>{}) for the kind at registry index `i`.
template <class F>
void visit_kind(std::size_t i, F&& f) {
  std::size_t k = 0;
  for_each_kind([&](auto kind) {
    if (k++ == i) f(kind);
  });
}

/// Call f(column, std::integral_constant<size_t, index>) for each column
/// of kind K, in order.
template <class K, class F>
constexpr void for_each_column(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::get<I>(K::cols), std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(K::cols)>>{});
}

/// CSV fields of a row, not counting the counter group.
template <class K>
constexpr std::size_t fixed_fields() {
  return std::apply(
      [](const auto&... c) {
        return (std::decay_t<decltype(c)>::csv_fields + ...);
      },
      K::cols);
}

/// .apt columns per block.
template <class K>
constexpr std::size_t apt_columns() {
  return std::apply(
      [](const auto&... c) {
        return (std::decay_t<decltype(c)>::apt_cols + ...);
      },
      K::cols);
}

template <class K>
constexpr bool has_counters() {
  return fixed_fields<K>() != std::tuple_size_v<decltype(K::cols)>;
}

}  // namespace ap::prof::io::schema
