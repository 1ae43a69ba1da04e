/**
 * @file
 * The one number rule. Every integer the program reads from outside —
 * a wire frame, a store event, a store verb, a command-line flag, a
 * fault spec, a registry label — is parsed here, as a canonical
 * decimal in the range of the value it becomes: digits only, with no
 * '+', no space and no leading zero; a leading '-' only where the
 * range admits negatives, and never "-0". The range is checked before
 * narrowing, so a value out of range is an error, never a wrap or a
 * truncation, and exactly one spelling names each value.
 */

#ifndef L0VLIW_COMMON_DECIMAL_HH
#define L0VLIW_COMMON_DECIMAL_HH

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace l0vliw
{

/** Parse @p s as a canonical decimal in [@p lo, @p hi] (lo <= hi). */
inline bool
parseDecimal(std::string_view s, std::uint64_t lo, std::uint64_t hi,
             std::uint64_t &out)
{
    if (s.empty() || (s[0] == '0' && s.size() > 1))
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (digit > hi || v > (hi - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (v < lo)
        return false;
    out = v;
    return true;
}

/**
 * The signed form, for any signed type: "-<magnitude>" is accepted
 * only when @p lo < 0, and a negative's magnitude must lie in
 * [max(1, -hi), -lo].
 */
template <typename Int,
          typename = std::enable_if_t<std::is_signed_v<Int>>>
bool
parseDecimal(std::string_view s, Int lo, Int hi, Int &out)
{
    const bool neg = !s.empty() && s[0] == '-';
    // Two's-complement conversion: 0 - ulo is -lo for a negative lo.
    const std::uint64_t ulo = static_cast<std::uint64_t>(lo);
    const std::uint64_t uhi = static_cast<std::uint64_t>(hi);
    std::uint64_t mag = 0;
    if (neg ? lo >= 0
                  || !parseDecimal(s.substr(1), hi < 0 ? 0 - uhi : 1,
                                   0 - ulo, mag)
            : hi < 0 || !parseDecimal(s, lo < 0 ? 0 : ulo, uhi, mag))
        return false;
    out = neg ? static_cast<Int>(-static_cast<std::int64_t>(mag - 1) - 1)
              : static_cast<Int>(mag);
    return true;
}

} // namespace l0vliw

#endif // L0VLIW_COMMON_DECIMAL_HH
