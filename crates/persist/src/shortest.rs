//! The shortest round-trip decimal of an `f64`, laid out like Rust's
//! `Display` (Ryū, Adams 2018).
//!
//! `Display` for `f64` prints the shortest digit string that parses back
//! to the same value, choosing the one closest to the exact value and
//! rounding an exact tie up, through the general `fmt` machinery. Ryū
//! finds the same digits with a few 128-bit multiplications by a table
//! of powers of five, which is several times cheaper, and [`write_finite`]
//! lays them out as `Display` does: no exponent, a decimal point only
//! when there are fractional digits. The crate's test oracle holds the
//! two to the same bytes on every float class.
//!
//! The entries of the two power-of-five tables are computed on first use,
//! with a small big-integer routine, instead of being spelled out in
//! source; a run's floats touch only a few of them.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Bits kept of each `5^i` (and of each `2^k / 5^i`) in the tables.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// `5^i` for `i < POW5_LEN` and `2^k / 5^i` for `i < POW5_INV_LEN` cover
/// every finite `f64`.
const POW5_LEN: usize = 326;
const POW5_INV_LEN: usize = 342;

/// `5^i` shifted to exactly [`POW5_BITCOUNT`] bits.
fn pow5(i: usize) -> u128 {
    static TABLE: [OnceLock<u128>; POW5_LEN] = [const { OnceLock::new() }; POW5_LEN];
    *TABLE[i].get_or_init(|| {
        let p = pow5_big(i);
        top_bits(&p, bit_len(&p) as i32 - POW5_BITCOUNT)
    })
}

/// `⌊2^(bits(5^q) - 1 + POW5_INV_BITCOUNT) / 5^q⌋ + 1`.
fn pow5_inv(q: usize) -> u128 {
    static TABLE: [OnceLock<u128>; POW5_INV_LEN] = [const { OnceLock::new() }; POW5_INV_LEN];
    *TABLE[q].get_or_init(|| {
        let p = pow5_big(q);
        inverse(&p, bit_len(&p) as i32) + 1
    })
}

/// `5^i` as little-endian 64-bit limbs.
fn pow5_big(i: usize) -> Vec<u64> {
    let mut p = vec![1];
    (0..i).for_each(|_| mul_small(&mut p, 5));
    p
}

fn bit_len(p: &[u64]) -> u32 {
    let top = p.len() - 1;
    top as u32 * 64 + (64 - p[top].leading_zeros())
}

fn bit(p: &[u64], i: i32) -> u128 {
    let i = i as usize;
    p.get(i / 64).map_or(0, |limb| u128::from(limb >> (i % 64) & 1))
}

/// `p >> shift` (a left shift when `shift` is negative); the result must
/// fit 128 bits.
fn top_bits(p: &[u64], shift: i32) -> u128 {
    let len = bit_len(p) as i32;
    (shift.max(0)..len).rev().fold(0u128, |acc, i| acc << 1 | bit(p, i)) << (-shift).max(0)
}

/// `⌊2^(len - 1 + POW5_INV_BITCOUNT) / p⌋` for `p` of `len` bits, by
/// long division one quotient bit at a time: the dividend's top
/// `len` bits are `2^(len - 1)`, the rest are zeros.
fn inverse(p: &[u64], len: i32) -> u128 {
    let mut rem = vec![0u64; p.len() + 1];
    let top = (len - 1) as usize;
    rem[top / 64] = 1 << (top % 64);
    let mut quotient = 0u128;
    for step in 0..=POW5_INV_BITCOUNT {
        if step > 0 {
            shl1(&mut rem);
        }
        quotient <<= 1;
        if !less(&rem, p) {
            sub(&mut rem, p);
            quotient |= 1;
        }
    }
    quotient
}

fn mul_small(p: &mut Vec<u64>, m: u64) {
    let mut carry = 0u128;
    for limb in p.iter_mut() {
        let v = u128::from(*limb) * u128::from(m) + carry;
        *limb = v as u64;
        carry = v >> 64;
    }
    if carry > 0 {
        p.push(carry as u64);
    }
}

fn shl1(p: &mut [u64]) {
    let mut carry = 0;
    for limb in p.iter_mut() {
        let next = *limb >> 63;
        *limb = *limb << 1 | carry;
        carry = next;
    }
}

/// `a < b`, where `a` may have more limbs than `b`.
fn less(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len().max(b.len())).rev() {
        let (x, y) = (a.get(i).copied().unwrap_or(0), b.get(i).copied().unwrap_or(0));
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a -= b`, for `a >= b`.
fn sub(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (i, limb) in a.iter_mut().enumerate() {
        let (d, b1) = limb.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *limb = d;
        borrow = b1 || b2;
    }
}

/// `⌈log2 5^e⌉` (1 for `e == 0`), for `0 <= e <= 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul`, `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest decimal `digits · 10^exponent` that reads back as the
/// finite, nonzero value with these IEEE fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2, 1 << MANTISSA_BITS | ieee_mantissa)
    };
    let accept_bounds = m2 % 2 == 0;
    // The value is mv · 2^e2; its rounding interval is (mm, mp) · 2^e2.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let at = |mul: u128, j: i32| {
        (mul_shift(mv, mul, j), mul_shift(mv + 2, mul, j), mul_shift(mv - 1 - mm_shift, mul, j))
    };
    let (mut vr, mut vp, mut vm, e10);
    // Whether the exact lower bound mm · 2^e2 ends in the digits still
    // to be removed (then it is a candidate itself when bounds count).
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        (vr, vp, vm) = at(pow5_inv(q as usize), -e2 + q as i32 + k);
        // Only one of mp, mv and mm can be a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        (vr, vp, vm) = at(pow5(i as usize), q as i32 - k);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number, then
    // round on the last digit dropped. `Display` rounds an exact tie
    // (…5000) up, where Ryū's reference code rounds it to even; the
    // oracle test pins the `Display` rule.
    let mut removed = 0;
    let mut last_removed = 0;
    if vp / 100 > vm / 100 {
        // Two digits at once, as the one-digit loop would drop them.
        vm_trailing_zeros &= vm % 100 == 0;
        last_removed = vr % 100 / 10;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_trailing_zeros {
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    let outside = vr == vm && (!accept_bounds || !vm_trailing_zeros);
    (vr + u64::from(outside || last_removed >= 5), e10 + removed)
}

/// Appends finite `v` exactly as `write!(out, "{v}")` would, and returns
/// whether that text has a decimal point.
pub(crate) fn write_finite(out: &mut String, v: f64) -> bool {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7FF;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push('0');
        return false;
    }
    let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0u8; 20];
    let text = decimal(digits, &mut buf);
    // The value is 0.text · 10^point.
    let point = text.len() as i32 + exponent;
    let zeros = |out: &mut String, n: i32| out.extend((0..n).map(|_| '0'));
    if point <= 0 {
        out.push_str("0.");
        zeros(out, -point);
        out.push_str(text);
        true
    } else if (point as usize) < text.len() {
        out.push_str(&text[..point as usize]);
        out.push('.');
        out.push_str(&text[point as usize..]);
        true
    } else {
        out.push_str(text);
        zeros(out, exponent);
        false
    }
}

/// `"00"`, `"01"`, …, `"99"`.
const PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The decimal digits of `v`, written two at a time into the tail of
/// `buf`.
pub(crate) fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    while v >= 10 {
        let pair = if v >= 100 { (v % 100) as usize } else { v as usize };
        v = if v >= 100 { v / 100 } else { 0 };
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[2 * pair..2 * pair + 2]);
    }
    if v > 0 || at == buf.len() {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_match_their_known_entries() {
        // 5^0 and 5^1 at 125 bits, 2^125 / 5^0 + 1 and 2^127 / 5^1 + 1,
        // as in Ryū's published tables.
        assert_eq!(pow5(0), 1 << 124);
        assert_eq!(pow5(1), 5 << 122);
        assert_eq!(pow5_inv(0), (1 << 125) + 1);
        assert_eq!(pow5_inv(1), (1 << 127) / 5 + 1);
        for i in 0..POW5_LEN {
            assert_eq!(128 - pow5(i).leading_zeros(), POW5_BITCOUNT as u32, "5^{i}");
        }
        for q in 1..POW5_INV_LEN {
            assert_eq!(128 - pow5_inv(q).leading_zeros(), POW5_INV_BITCOUNT as u32, "5^-{q}");
        }
    }

    #[test]
    fn writes_like_display() {
        for v in [1.0, 0.1, 2.5e-7, 1e21, 123456.789, 5e-324, f64::MAX, -0.0, 1e16, 0.3] {
            let mut out = String::new();
            let point = write_finite(&mut out, v);
            assert_eq!(out, v.to_string(), "{v:e}");
            assert_eq!(point, out.contains('.'), "{v:e}");
        }
    }
}
