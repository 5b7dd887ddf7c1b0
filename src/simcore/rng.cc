#include "simcore/rng.h"

namespace grit::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    const std::uint64_t z = mix64(x);
    x += 0x9E3779B97F4A7C15ULL;
    return z;
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &lane : s_)
        lane = splitmix64(sm);
    // Ensure nonzero state even for adversarial seeds.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = next();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = -bound % bound;
        while (l < t) {
            x = next();
            m = static_cast<unsigned __int128>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

}  // namespace grit::sim
