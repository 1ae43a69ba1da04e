/**
 * @file
 * Little-endian byte fields inside 64-bit words, for per-access hot
 * paths.
 *
 * Simulated accesses move 1/2/4/8 bytes. Memory content is held in
 * 64-bit words, byte i of a word being bits [8i, 8i+8), so an access
 * is a shift and a mask of one word — two when it straddles a word
 * boundary — never a byte-buffer copy.
 */

#ifndef L0VLIW_COMMON_BYTES_HH
#define L0VLIW_COMMON_BYTES_HH

#include <cstdint>

namespace l0vliw
{

/** Mask of the low @p size bytes of a word (1 <= size <= 8). */
inline std::uint64_t
sizeMask(int size)
{
    return size >= 8 ? ~0ULL : (1ULL << (8 * size)) - 1;
}

/** The @p size bytes at byte offset @p off of @p words, as a
 *  little-endian value (1 <= size <= 8). */
inline std::uint64_t
loadBytes(const std::uint64_t *words, unsigned off, int size)
{
    const std::uint64_t *w = words + (off >> 3);
    const unsigned shift = (off & 7) * 8;
    std::uint64_t v = w[0] >> shift;
    if (shift + 8 * static_cast<unsigned>(size) > 64)
        v |= w[1] << (64 - shift);
    return v & sizeMask(size);
}

/** Write the low @p size bytes of @p value at byte offset @p off of
 *  @p words (1 <= size <= 8). */
inline void
storeBytes(std::uint64_t *words, unsigned off, std::uint64_t value,
           int size)
{
    std::uint64_t *w = words + (off >> 3);
    const unsigned shift = (off & 7) * 8;
    const std::uint64_t mask = sizeMask(size);
    value &= mask;
    w[0] = (w[0] & ~(mask << shift)) | (value << shift);
    if (shift + 8 * static_cast<unsigned>(size) > 64) {
        const unsigned rest = 64 - shift;
        w[1] = (w[1] & ~(mask >> rest)) | (value >> rest);
    }
}

} // namespace l0vliw

#endif // L0VLIW_COMMON_BYTES_HH
