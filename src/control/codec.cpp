#include "control/codec.hpp"

namespace switchboard::control {
namespace codec {

bool parse(std::string_view text, std::string& out) {
  if (!journal_safe_name(text)) return false;
  out = text;
  return true;
}

namespace {

/// Splits the first pair off `rest`; false when it holds no '='.
bool next_pair(std::string_view& rest, std::string_view& key,
               std::string_view& value) {
  const std::size_t end = std::min(rest.find(';'), rest.size());
  const std::string_view pair = rest.substr(0, end);
  rest.remove_prefix(std::min(end + 1, rest.size()));
  const std::size_t eq = pair.find('=');
  if (eq == std::string_view::npos) return false;
  key = pair.substr(0, eq);
  value = pair.substr(eq + 1);
  return true;
}

}  // namespace

Fields::Fields(std::string_view text) : rest_{text} {
  while (!rest_.empty() && count_ < kInlinePairs) {
    Pair& pair = pairs_[count_];
    if (next_pair(rest_, pair.key, pair.value)) ++count_;
  }
}

std::optional<std::string_view> Fields::find(std::string_view key) const {
  for (std::size_t i = 0; i < count_; ++i) {
    if (pairs_[i].key == key) return pairs_[i].value;
  }
  std::string_view rest = rest_;
  std::string_view pair_key;
  std::string_view value;
  while (!rest.empty()) {
    if (next_pair(rest, pair_key, value) && pair_key == key) return value;
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
