/**
 * @file
 * The one signed gadget decomposition of the repo, parameterized on
 * (q, logB, levels): the TFHE external product (Bg, lb), the LWE
 * keyswitch (Bks, lk), and both PIR gadgets all instantiate it.
 *
 * A residue x is rounded to y = round(x * B^levels / q) and written in
 * balanced base-B digits d_l in [-B/2, B/2), most significant first,
 * the final carry wrapping modulo B^levels. The rounding quotient is
 * computed without a division: one precomputed reciprocal floor(2^64/q)
 * and a single correction step when the numerator fits 64 bits, the
 * exact floor(2^128/q) Barrett estimate of Modulus::reduce128 (plus the
 * same single correction) when it does not (e.g. q ~ 2^60 with 40
 * covered bits). Both return exactly the quotient the u128 division
 * would, so digits are bit-identical to the textbook formula.
 */

#ifndef TRINITY_COMMON_GADGET_H
#define TRINITY_COMMON_GADGET_H

#include <vector>

#include "common/modarith.h"
#include "common/types.h"

namespace trinity {

/** Gadget vector g_l = round(q / B^(l+1)) with its decomposition. */
class Gadget
{
  public:
    Gadget(u64 q, u32 log_b, u32 levels);

    u64 q() const { return q_; }
    u32 levels() const { return levels_; }
    u32 logBase() const { return log_b_; }
    /** Covered bits S = logB * levels. */
    u32 shift() const { return shift_; }
    u64 element(u32 l) const { return g_[l]; }

    /** floor(q / 2), the rounding offset of the quotient. */
    u64 halfQ() const { return half_q_; }
    /** floor(2^64 / q), the narrow-path reciprocal. */
    u64 recip() const { return recip_; }
    /** floor(2^128 / q) words, the wide-path Barrett constant. */
    u64 barrettHi() const { return b_hi_; }
    u64 barrettLo() const { return b_lo_; }
    /** True when (q-1) * 2^S + q/2 overflows 64 bits, so the quotient
     *  numerator needs the 128-bit path. */
    bool wide() const { return wide_; }

    /**
     * round(x * 2^S / q) mod 2^64 for a reduced x < q — the only bits
     * the digits consume (S <= 64). No division.
     */
    u64
    quotient(u64 x) const
    {
        if (!wide_) {
            u64 num = (x << shift_) + half_q_;
            u64 est = static_cast<u64>(
                (static_cast<u128>(num) * recip_) >> 64);
            // est is floor(num / q) or one below it.
            return num - est * q_ >= q_ ? est + 1 : est;
        }
        u128 num = (static_cast<u128>(x) << shift_) + half_q_;
        u64 n_lo = static_cast<u64>(num);
        u64 n_hi = static_cast<u64>(num >> 64);
        // floor(num * floor(2^128/q) / 2^128), low word — the
        // Modulus::reduce128 estimate, also at most one below.
        u128 p_ll = static_cast<u128>(n_lo) * b_lo_;
        u128 p_lh = static_cast<u128>(n_lo) * b_hi_;
        u128 p_hl = static_cast<u128>(n_hi) * b_lo_;
        u128 mid = (p_ll >> 64) + static_cast<u64>(p_lh) +
                   static_cast<u64>(p_hl);
        u64 est = n_hi * b_hi_ + static_cast<u64>(p_lh >> 64) +
                  static_cast<u64>(p_hl >> 64) +
                  static_cast<u64>(mid >> 64);
        // The true remainder is < 2q < 2^64, so low words suffice.
        return n_lo - est * q_ >= q_ ? est + 1 : est;
    }

    /**
     * Balanced digits of a reduced x < q: digits[l] in [-B/2, B/2)
     * with sum_l digits[l] * g_l ~ x. Full-width gadgets (S covering
     * all of q) leave only the per-level rounding of the prime;
     * truncated ones add a q / B^levels approximation term.
     */
    void
    decompose(u64 x, i64 *digits) const
    {
        u64 y = quotient(x);
        u64 mask = (u64(1) << log_b_) - 1;
        u64 half_b = u64(1) << (log_b_ - 1);
        u64 carry = 0;
        for (u32 l = levels_; l-- > 0;) {
            u64 r = (y & mask) + carry;
            y >>= log_b_;
            carry = r >= half_b ? 1 : 0;
            digits[l] = static_cast<i64>(r) -
                        static_cast<i64>(carry << log_b_);
        }
    }

  private:
    u64 q_ = 0;
    u32 log_b_ = 0;
    u32 levels_ = 0;
    u32 shift_ = 0;
    bool wide_ = false;
    u64 half_q_ = 0;
    u64 recip_ = 0;
    u64 b_hi_ = 0;
    u64 b_lo_ = 0;
    std::vector<u64> g_;
};

} // namespace trinity

#endif // TRINITY_COMMON_GADGET_H
