/**
 * @file
 * CRC-64/XZ (ECMA-182 polynomial, reflected) for corruption
 * detection on every durable byte the serving tier owns: disk cache
 * entries (cache/store), request-journal records (serve/journal) and
 * wire frames between a process slot and its worker (serve/wire).
 *
 * The checksum is a pure function of the bytes — no seeds from
 * wall-clock or addresses — so a checksummed artifact verifies
 * identically across processes, runs and machines, which is what lets
 * a chaos scenario assert "this corruption was detected" bit-replayably.
 *
 * Check value: crc64("123456789") == 0x995DC9BBDF1939FA.
 */

#ifndef TAPACS_COMMON_CRC64_HH
#define TAPACS_COMMON_CRC64_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace tapacs
{

/**
 * CRC-64/XZ of @p size bytes at @p data.
 *
 * @param prior chain value: crc64(b, crc64(a)) == crc64(a ++ b),
 *        so a digest can be built incrementally. 0 starts a fresh
 *        checksum (and is also the checksum of the empty string).
 */
std::uint64_t crc64(const void *data, std::size_t size,
                    std::uint64_t prior = 0);

inline std::uint64_t
crc64(const std::string &bytes, std::uint64_t prior = 0)
{
    return crc64(bytes.data(), bytes.size(), prior);
}

} // namespace tapacs

#endif // TAPACS_COMMON_CRC64_HH
