#include "control/codec.hpp"

namespace switchboard::control {
namespace codec {

bool parse(std::string_view text, std::string& out) {
  if (!journal_safe_name(text)) return false;
  out = text;
  return true;
}

std::optional<std::string_view> Fields::find(std::string_view key) const {
  std::string_view rest = text_;
  while (!rest.empty()) {
    const std::size_t end = std::min(rest.find(';'), rest.size());
    const std::string_view pair = rest.substr(0, end);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    rest.remove_prefix(std::min(end + 1, rest.size()));
  }
  return std::nullopt;
}

void put_double(std::string& out, double value, int digits) {
  std::array<char, 32> buf{};
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(),
                                    value, std::chars_format::general, digits);
  out.append(buf.data(), result.ptr);
}

}  // namespace codec

bool journal_safe_name(std::string_view name) {
  return name.find_first_of(";\n") == std::string_view::npos;
}

namespace {

/// Decodes `fields` as alternative I if its kind is `type`, else tries
/// the next alternative.
template <std::size_t I = 0>
std::optional<JournalRecord> decode_kind(std::string_view type,
                                         const codec::Fields& fields) {
  if constexpr (I == std::variant_size_v<JournalRecord>) {
    return std::nullopt;
  } else {
    using R = std::variant_alternative_t<I, JournalRecord>;
    if (type != R::kType) return decode_kind<I + 1>(type, fields);
    R record;
    if (!fields.get_all(record)) return std::nullopt;
    return JournalRecord{std::move(record)};
  }
}

}  // namespace

Result<JournalRecord> decode_record(std::string_view line) {
  const codec::Fields fields{line};
  const std::optional<std::string_view> type = fields.find("t");
  std::optional<JournalRecord> record =
      type ? decode_kind(*type, fields) : std::nullopt;
  if (!record) {
    return Error{ErrorCode::kInvalidArgument,
                 "malformed journal record: " + std::string{line}};
  }
  return std::move(*record);
}

}  // namespace switchboard::control
