#include "common/gadget.h"

#include "common/logging.h"

namespace trinity {

Gadget::Gadget(u64 q, u32 log_b, u32 levels)
    : q_(q), log_b_(log_b), levels_(levels), shift_(log_b * levels)
{
    trinity_assert(log_b >= 1 && log_b <= 32 && levels >= 1 &&
                       u64(log_b) * levels <= 64,
                   "unsupported gadget shape logB=%u levels=%u", log_b,
                   levels);
    Modulus mod(q);
    half_q_ = q / 2;
    recip_ = static_cast<u64>((u128(1) << 64) / q);
    b_hi_ = mod.barrettHi();
    b_lo_ = mod.barrettLo();
    wide_ = (u128(q - 1) << shift_) + half_q_ >= (u128(1) << 64);
    g_.resize(levels);
    for (u32 l = 0; l < levels; ++l) {
        u128 denom = u128(1) << (log_b * (l + 1));
        g_[l] = static_cast<u64>((u128(q) + denom / 2) / denom);
    }
}

} // namespace trinity
