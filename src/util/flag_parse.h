#ifndef ESD_UTIL_FLAG_PARSE_H_
#define ESD_UTIL_FLAG_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace esd::util {

/// Strict parse of one command-line flag value into *out, shared by the
/// binaries. An unsigned integer must be a whole decimal that fits T; a
/// double a positive finite decimal; a string takes the text as is. An
/// empty value, a sign, trailing junk or overflow returns false.
template <typename T>
bool ParseFlagValue(const char* text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
    return true;
  } else if constexpr (std::is_same_v<T, double>) {
    char* end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(*out) && *out > 0;
  } else {
    static_assert(std::is_unsigned_v<T>, "flag integers are unsigned");
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, *out);
    return ptr != text && ec == std::errc() && ptr == end;
  }
}

}  // namespace esd::util

#endif  // ESD_UTIL_FLAG_PARSE_H_
