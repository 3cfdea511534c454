#ifndef MLDS_COMMON_STRINGS_H_
#define MLDS_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace mlds {

/// Returns `s` with ASCII letters lowercased.
std::string ToLower(std::string_view s);

/// Returns `s` with ASCII letters uppercased.
std::string ToUpper(std::string_view s);

/// Returns `s` without leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// Splits `s` on `sep`, trimming each piece; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// The statements of a program separated by newlines or ';': each piece
/// trimmed, with blank pieces and "--" comment lines dropped.
std::vector<std::string_view> ProgramStatements(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`, comparing case-insensitively.
bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix);

}  // namespace mlds

#endif  // MLDS_COMMON_STRINGS_H_
