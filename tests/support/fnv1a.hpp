// FNV-1a 64 over the raw bytes of a contiguous range: a compact fingerprint
// that pins a golden oracle's output bit for bit across refactors.
#pragma once

#include <cstdint>
#include <span>

namespace support {

template <typename T>
[[nodiscard]] std::uint64_t fnv1a(std::span<const T> values) {
    const auto bytes = std::as_bytes(values);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::byte b : bytes) {
        h ^= static_cast<std::uint64_t>(b);
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace support
