//! Hidden-layer activation: `tanh` without the host's libm.
//!
//! [`tanh`] is a line-for-line port of the fdlibm `tanhf` and `expm1f`
//! (`s_tanhf.c`, `s_expm1f.c`) that glibc ships as its `tanhf`: every
//! constant is written by bit pattern and every operation is the C one, in
//! the C order (Rust never contracts `a * b + c` into a fused multiply-add).
//! On glibc builds whose `tanhf` is this fdlibm code (glibc 2.36 is) it
//! returns exactly the bits of `f32::tanh` for every f32 input, NaN giving
//! NaN; a libm with a different `tanhf` can differ in the last bit, which
//! the exhaustive test below reports.
//!
//! [`tanh_in_place`] is the form the MLP runs. It takes eight lanes at a
//! time through one branch-free straight line that the compiler vectorizes:
//! the port's three `expm1f` argument reductions are folded into its general
//! one by forcing `k` per lane, `k` is truncated without a float→int
//! conversion, and all five reconstructions are computed and one is
//! selected per lane. A chunk with any lane outside `2⁻²⁶ ≤ |x| < 22`
//! (zero, tiny, saturated, infinite or NaN) and the tail of fewer than eight
//! values go through [`tanh`]. Both forms return the same bits for every
//! input (`exhaustive_agreement_with_libm`).

/// Lanes per chunk of [`tanh_in_place`]: two 128-bit or one 256-bit vector.
const LANES: usize = 8;

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const TINY: f32 = f32::from_bits(0x0da2_4260); // 1.0e-30
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// 1.5·2²³: adding it to a float below 2²² in magnitude rounds that float
/// to an integer and leaves the integer in the low mantissa bits.
const ROUNDER: f32 = f32::from_bits(0x4b40_0000);

/// `v` truncated toward zero, as a float and as C's `(int32_t) v`, for
/// `|v| < 2²²`. Adding and subtracting [`ROUNDER`] rounds to the nearest
/// integer; a result that rounded away from zero steps back by one. No
/// float→int conversion, which LLVM scalarizes on vector lanes.
#[inline(always)]
fn trunc_small(v: f32) -> (f32, i32) {
    let r = (v + ROUNDER) - ROUNDER;
    let t = if r.abs() > v.abs() {
        r - 1.0f32.copysign(v)
    } else {
        r
    };
    let k = (t + ROUNDER).to_bits().wrapping_sub(ROUNDER.to_bits());
    (t, k.cast_signed())
}

/// `y` with `k` added to its exponent field (C's
/// `SET_FLOAT_WORD(y, i + (k << 23))`).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add(k.cast_unsigned() << 23))
}

/// fdlibm `tanhf`.
pub(crate) fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = x.is_sign_negative();

    // x is INF or NaN
    if ix >= 0x7f80_0000 {
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }

    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix == 0 {
            return x; // x == +-0
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x); // |x| < 2**-55: tanh(small) = small
        }
        if ix >= 0x3f80_0000 {
            // |x| >= 1
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY // |x| >= 22: +-1, inexact
    };
    if negative {
        -z
    } else {
        z
    }
}

/// fdlibm `expm1f`.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = x.is_sign_negative();

    // filter out huge and non-finite argument
    if hx >= 0x4195_b844 {
        // |x| >= 27*ln2
        if hx >= 0x42b1_7218 {
            // |x| >= 88.721...
            if hx > 0x7f80_0000 {
                return x + x; // NaN
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x }; // exp(+-inf) = {inf, -1}
            }
            if x > O_THRESHOLD {
                return f32::INFINITY; // overflow
            }
        }
        if negative {
            return TINY - 1.0; // x < -27*ln2: -1, inexact
        }
    }

    // argument reduction
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5 ln2
            if negative {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let (t, k) = trunc_small(INVLN2 * x + if negative { -0.5 } else { 0.5 });
            (x - t * LN2_HI, t * LN2_LO, k) // t*ln2_hi is exact here
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        return x; // |x| < 2**-25: expm1(x) = x, inexact
    } else {
        (x, 0.0, 0)
    };

    // x is now in primary range
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // suffice to return exp(x)-1
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // t = 1-2^-k
        add_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits((0x7f - k).cast_unsigned() << 23); // 2^-k
        add_exponent((x - (e + t)) + 1.0, k)
    }
}

/// True for the inputs the lane form takes: `2⁻²⁶ ≤ |x| < 22`. Below, the
/// port's `expm1f` returns its argument unchanged; above, `tanhf` returns
/// ±1; NaN is neither.
#[inline(always)]
fn in_lane_range(x: f32) -> bool {
    (0x3280_0000..0x41b0_0000).contains(&(x.to_bits() & 0x7fff_ffff))
}

/// [`tanh`] for `2⁻²⁶ ≤ |x| < 22` with every branch turned into a select.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ax = x.abs();
    let big = ax >= 1.0;
    // expm1f's argument: 2|x| for |x| >= 1, -2|x| below; 2⁻²⁵ ≤ |a| < 44.
    let a2 = 2.0 * ax;
    let a = if big { a2 } else { -a2 };

    // The reduction with k forced per lane: 0 up to 0.5 ln2, -1 below
    // 1.5 ln2 (a positive argument is at least 2, so k = 1 never occurs),
    // the general k beyond. The general formulas then reproduce the special
    // cases bit for bit: a - (-1)·ln2_hi is a + ln2_hi, a - 0·ln2_hi is a.
    let (kg, kgi) = trunc_small(INVLN2 * a + 0.5f32.copysign(a));
    let (kf, k) = if a2 <= f32::from_bits(0x3eb1_7218) {
        (0.0, 0)
    } else if a2 < f32::from_bits(0x3f85_1592) {
        (-1.0, -1)
    } else {
        (kg, kgi)
    };
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x1 = hi - lo;
    let c = (hi - x1) - lo;

    let hfx = 0.5 * x1;
    let hxs = x1 * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - x1 * t));
    let e = (x1 * (e0 - c) - c) - hxs;

    // The five reconstructions, one selected. 1 - 2^-k is exact in f32 for
    // 2 <= k < 23, so it replaces the port's per-lane variable shift.
    let two_neg_k = f32::from_bits((0x7f - k).cast_unsigned() << 23);
    let at_zero = x1 - (x1 * e0 - hxs);
    let at_minus_one = 0.5 * (x1 - e) - 0.5;
    let far = add_exponent(1.0 - (e - x1), k) - 1.0;
    let low = add_exponent((1.0 - two_neg_k) - (e - x1), k);
    let high = add_exponent((x1 - (e + two_neg_k)) + 1.0, k);
    let em1 = if k == 0 {
        at_zero
    } else if k == -1 {
        at_minus_one
    } else if k <= -2 || k > 56 {
        far
    } else if k < 23 {
        low
    } else {
        high
    };

    // tanhf: 1 - 2/(em1 + 2) for |x| >= 1, -em1/(em1 + 2) below.
    let q = (if big { 2.0 } else { -em1 }) / (em1 + 2.0);
    let z = if big { 1.0 - q } else { q };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

/// Replaces every value of `xs` with its [`tanh`], eight lanes at a time.
pub(crate) fn tanh_in_place(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        if chunk.iter().all(|&x| in_lane_range(x)) {
            for v in chunk.iter_mut() {
                *v = tanh_lane(*v);
            }
        } else {
            for v in chunk.iter_mut() {
                *v = tanh(*v);
            }
        }
    }
    for v in chunks.into_remainder() {
        *v = tanh(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise equality, with every NaN equal to every NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Checks the scalar port and the slice kernel against `f32::tanh` on
    /// `inputs`, returning the first few mismatching inputs.
    fn mismatches(inputs: &[f32]) -> Vec<(u32, u32, u32, u32)> {
        let mut kernel = inputs.to_vec();
        tanh_in_place(&mut kernel);
        inputs
            .iter()
            .zip(&kernel)
            .filter_map(|(&x, &k)| {
                let (libm, port) = (x.tanh(), tanh(x));
                (!same(libm, port) || !same(libm, k))
                    .then(|| (x.to_bits(), libm.to_bits(), port.to_bits(), k.to_bits()))
            })
            .take(8)
            .collect()
    }

    fn assert_agree(inputs: &[f32]) {
        let bad = mismatches(inputs);
        assert!(bad.is_empty(), "(x, libm, port, kernel) bits: {bad:x?}");
    }

    /// Both signs of `bits - 2 ..= bits + 2`.
    fn around(bits: u32) -> Vec<f32> {
        (bits - 2..=bits + 2)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    /// The smallest positive `x` whose expm1f argument `2x` reduces with
    /// `k >= target` (the reduction is monotone in `x`).
    fn first_x_with_k(target: i32) -> u32 {
        let k_of = |bits: u32| trunc_small(INVLN2 * (2.0 * f32::from_bits(bits)) + 0.5).1;
        let (mut lo, mut hi) = (0x3f80_0000u32, 0x41b0_0000u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if k_of(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn strided_bit_patterns_agree() {
        let inputs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        assert!(inputs.len() > 1_000_000);
        assert_agree(&inputs);
    }

    /// The `expm1f` port on its own, all branches included (tanh reaches
    /// only some of them), against the host's `expm1f`.
    #[test]
    fn expm1_port_agrees_with_libm() {
        // Its special cases too: ±∞, NaN, the overflow threshold, -27 ln2.
        let specials = [
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0x42b1_7180,
            0x42b1_7181,
        ];
        let bad: Vec<u32> = (0..=u32::MAX)
            .step_by(4099)
            .chain(specials)
            .chain(0xc195_b842..=0xc195_b846)
            .filter(|&b| !same(expm1(f32::from_bits(b)), f32::from_bits(b).exp_m1()))
            .take(8)
            .collect();
        assert!(bad.is_empty(), "mismatching inputs: {bad:x?}");
    }

    #[test]
    fn branch_thresholds_agree() {
        // tanhf: 2**-55, 1, 22; the lane form's 2**-26 floor; expm1f's
        // 2**-25, 0.5 ln2 and 1.5 ln2 argument bounds, both as inputs and
        // halved (tanh passes 2|x|), and its k = 23 / k = 57 switches.
        let mut thresholds = vec![
            0x2400_0000,
            0x3280_0000,
            0x3f80_0000,
            0x41b0_0000,
            first_x_with_k(23),
            first_x_with_k(57),
        ];
        for bound in [0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592] {
            thresholds.extend([bound, bound - 0x0080_0000]);
        }
        assert!(first_x_with_k(57) < 0x41b0_0000, "k = 57 edge above 22");
        let inputs: Vec<f32> = thresholds.into_iter().flat_map(around).collect();
        assert_agree(&inputs);
    }

    #[test]
    fn special_values_agree() {
        let inputs: Vec<f32> = [
            0x0000_0000u32,
            0x0000_0001,
            0x0000_0400,
            0x007f_ffff,
            0x0080_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0x7fff_ffff,
        ]
        .into_iter()
        .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
        .collect();
        assert_agree(&inputs);
    }

    #[test]
    fn every_short_slice_length_agrees() {
        for len in 0..=17usize {
            let inputs: Vec<f32> = (0..len).map(|i| (i as f32 - 8.0) * 0.37).collect();
            assert_agree(&inputs);
        }
    }

    #[test]
    fn mixed_special_and_ordinary_lanes_agree() {
        let chunk = [
            0.5,
            0.0,
            -3.0,
            f32::NAN,
            25.0,
            1.0e-30,
            -0.7,
            f32::NEG_INFINITY,
        ];
        assert_agree(&chunk);
        // One special value in each lane position of an ordinary chunk:
        // wherever it sits, the whole chunk must take the scalar fallback.
        for special in [0.0, -1.0e-9, 22.0, -f32::INFINITY, f32::NAN] {
            for lane in 0..LANES {
                let mut inputs = [0.25f32, -1.5, 3.0, -0.01, 7.9, -19.0, 0.9, 1.1];
                inputs[lane] = special;
                assert_agree(&inputs);
            }
        }
    }

    /// Every f32 bit pattern, through the scalar port and the slice kernel
    /// (30–60 s in release on two cores; run with `--ignored`).
    #[test]
    #[ignore]
    fn exhaustive_agreement_with_libm() {
        // 2¹⁶ blocks of 2¹⁶ patterns, dealt round-robin to four threads.
        let bad: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|w| {
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        let mut inputs = Vec::with_capacity(1 << 16);
                        for block in (w..1 << 16).step_by(4) {
                            inputs.clear();
                            inputs.extend((0..1 << 16).map(|i| f32::from_bits(block << 16 | i)));
                            bad.extend(mismatches(&inputs));
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("exhaustive worker panicked"))
                .collect()
        });
        assert!(bad.is_empty(), "(x, libm, port, kernel) bits: {bad:x?}");
    }
}
