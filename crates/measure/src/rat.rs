//! Exact rational arithmetic.
//!
//! Every probability in the Halpern–Tuttle framework is a rational number
//! (1/2, 2/3, 1/2¹⁰, 1024/1025, …). Using exact rationals rather than
//! floating point makes "this matches the paper" a decidable equality test.
//!
//! [`Rat`] is an `i128`-backed fraction kept in canonical form: the
//! denominator is strictly positive and the fraction is fully reduced.
//! Comparison is exact for every pair of values (it widens to 256 bits
//! when the `i128` cross products overflow), so a client-supplied
//! threshold can always be compared. Arithmetic is checked; overflow
//! panics with a descriptive message
//! (the paper's computations stay far below `i128` range, so an overflow
//! indicates a logic error rather than a capacity problem).

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number backed by `i128`.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|numerator|, denominator) == 1`.
///
/// # Examples
///
/// ```
/// use kpa_measure::Rat;
///
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert_eq!(half * third, Rat::new(1, 6));
/// assert!(half > third);
/// assert_eq!(half.pow(10), Rat::new(1, 1024));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of two non-negative integers.
fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor over `u128`, used by [`Rat::new`] so that
/// `i128::MIN.unsigned_abs()` (which exceeds `i128::MAX`) reduces
/// correctly instead of wrapping negative when cast back to `i128`.
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational number zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates the rational `num / den` in canonical form.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
    /// assert_eq!(Rat::new(1, -2), Rat::new(-1, 2));
    /// ```
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let neg = (num < 0) != (den < 0) && num != 0;
        // Reduce over u128: `i128::MIN.unsigned_abs()` is 2¹²⁷, which a
        // naive `as i128` round-trip would wrap negative *before* the
        // gcd, yielding a non-canonical (or sign-flipped) fraction.
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u128(n, d).max(1);
        let (n, d) = (n / g, d / g);
        assert!(
            d <= i128::MAX as u128,
            "rational denominator overflow after reduction"
        );
        let num = if neg {
            assert!(
                n <= i128::MAX as u128 + 1,
                "rational numerator overflow after reduction"
            );
            // 2¹²⁷ wraps to `i128::MIN` under `as`, which is exactly
            // the negative value we want; smaller magnitudes negate
            // normally.
            (n as i128).wrapping_neg()
        } else {
            assert!(
                n <= i128::MAX as u128,
                "rational numerator overflow after reduction"
            );
            n as i128
        };
        Rat {
            num,
            den: d as i128,
        }
    }

    /// Creates the rational `num / den`, returning `None` if `den == 0`.
    #[must_use]
    pub fn checked_new(num: i128, den: i128) -> Option<Rat> {
        if den == 0 {
            None
        } else {
            Some(Rat::new(num, den))
        }
    }

    /// Creates the integer rational `n / 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::from_int(3), Rat::new(3, 1));
    /// ```
    #[must_use]
    pub const fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator of the canonical form (may be negative).
    #[must_use]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the canonical form (always positive).
    #[must_use]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is exactly one.
    #[must_use]
    pub const fn is_one(self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// Returns `true` if this rational lies in the closed interval `[0, 1]`,
    /// i.e. is a valid probability.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert!(Rat::new(2, 3).is_probability());
    /// assert!(!Rat::new(4, 3).is_probability());
    /// assert!(!Rat::new(-1, 3).is_probability());
    /// ```
    #[must_use]
    pub fn is_probability(self) -> bool {
        !self.is_negative() && self <= Rat::ONE
    }

    /// Returns `true` if this rational is strictly negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if this rational is strictly positive.
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// The absolute value.
    #[must_use]
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[must_use]
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Raises `self` to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero and `exp` is negative, or on overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::new(1, 2).pow(10), Rat::new(1, 1024));
    /// assert_eq!(Rat::new(2, 3).pow(-2), Rat::new(9, 4));
    /// assert_eq!(Rat::new(5, 7).pow(0), Rat::ONE);
    /// ```
    #[must_use]
    pub fn pow(self, exp: i32) -> Rat {
        if exp == 0 {
            return Rat::ONE;
        }
        let base = if exp < 0 { self.recip() } else { self };
        let mut out = Rat::ONE;
        for _ in 0..exp.unsigned_abs() {
            out *= base;
        }
        out
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// An `f64` approximation, for display and plotting only.
    ///
    /// All decision procedures in this workspace use exact arithmetic;
    /// this conversion exists so harnesses can print human-friendly values.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Checked addition, returning `None` on `i128` overflow.
    ///
    /// Fast paths skip the cross-denominator gcd when the denominators
    /// are already equal or one of them is 1 — the two shapes that
    /// dominate measure-kernel accumulation loops.
    #[must_use]
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        if self.den == rhs.den {
            // Common denominator: one canonicalizing gcd, no lcm work.
            return Some(Rat::new(self.num.checked_add(rhs.num)?, self.den));
        }
        if self.den == 1 {
            // Integer + fraction stays reduced: gcd(a·d + b, d) = gcd(b, d) = 1.
            let num = self.num.checked_mul(rhs.den)?.checked_add(rhs.num)?;
            return Some(Rat { num, den: rhs.den });
        }
        if rhs.den == 1 {
            let num = rhs.num.checked_mul(self.den)?.checked_add(self.num)?;
            return Some(Rat { num, den: self.den });
        }
        // The general cross-denominator path: rare in kernel-shaped
        // accumulation (the fast paths above dominate), so its count is
        // a direct health signal for the common-denominator tables.
        kpa_trace::count!("measure.rat_slow_add");
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)?
            .checked_add(rhs.num.checked_mul(rhs_scale)?)?;
        let den = self.den.checked_mul(lhs_scale)?;
        Some(Rat::new(num, den))
    }

    /// Sums integer numerators over the shared denominator `den`,
    /// canonicalizing once at the end instead of once per addition.
    ///
    /// This is the accumulation primitive of the dense measure kernel:
    /// block weights expressed over a common denominator are summed as
    /// plain integers and converted to an exact canonical [`Rat`] in a
    /// single final reduction — bit-identical to folding
    /// `Rat::new(nᵢ, den)` with `+`, but with one gcd total.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or the numerator sum overflows `i128`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// assert_eq!(Rat::sum_with_denom([1, 2, 3], 12), Rat::new(1, 2));
    /// assert_eq!(Rat::sum_with_denom([], 7), Rat::ZERO);
    /// ```
    #[must_use]
    pub fn sum_with_denom<I: IntoIterator<Item = i128>>(nums: I, den: i128) -> Rat {
        let mut acc: i128 = 0;
        for n in nums {
            acc = acc.checked_add(n).expect("rational numerator sum overflow");
        }
        Rat::new(acc, den)
    }

    /// Checked multiplication, returning `None` on `i128` overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num.unsigned_abs() as i128, rhs.den).max(1);
        let g2 = gcd(rhs.num.unsigned_abs() as i128, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rat::new(num, den))
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The exact 256-bit product `a · b` as `(high, low)` 128-bit halves,
/// built from four 64×64-bit partial products.
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    const LO: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LO);
    let (b1, b0) = (b >> 64, b & LO);
    let low = a0 * b0;
    let (mid_a, mid_b) = (a0 * b1, a1 * b0);
    // At most 3 · (2⁶⁴ − 1): no overflow.
    let mid = (low >> 64) + (mid_a & LO) + (mid_b & LO);
    let high = a1 * b1 + (mid_a >> 64) + (mid_b >> 64) + (mid >> 64);
    (high, (low & LO) | (mid << 64))
}

impl Ord for Rat {
    /// Compares `a/b` with `c/d` as `a·d` against `c·b` (denominators
    /// are positive). The `i128` cross products answer almost every
    /// comparison; when one overflows, the magnitudes are compared as
    /// exact 256-bit products, so ordering never fails.
    fn cmp(&self, other: &Rat) -> Ordering {
        if let (Some(lhs), Some(rhs)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return lhs.cmp(&rhs);
        }
        let sign = self.num.signum().cmp(&other.num.signum());
        if sign != Ordering::Equal || self.num == 0 {
            return sign;
        }
        let lhs = mul_wide(self.num.unsigned_abs(), other.den.unsigned_abs());
        let rhs = mul_wide(other.num.unsigned_abs(), self.den.unsigned_abs());
        if self.num > 0 {
            lhs.cmp(&rhs)
        } else {
            rhs.cmp(&lhs)
        }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rat {
    type Output = Rat;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // a/b = a * (1/b) by definition
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    /// Folds with `+`, skipping zero terms so runs of zeros (common in
    /// sparse weight tables) cost no gcd at all; the equal-denominator
    /// and integer fast paths in [`Rat::checked_add`] handle the rest.
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, x| {
            if x.is_zero() {
                acc
            } else if acc.is_zero() {
                x
            } else {
                acc + x
            }
        })
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.copied().sum()
    }
}

impl Product for Rat {
    fn product<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ONE, Mul::mul)
    }
}

impl<'a> Product<&'a Rat> for Rat {
    fn product<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.copied().product()
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::from_int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl From<usize> for Rat {
    fn from(n: usize) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"3"`, `"-3"`, `"3/4"`, or decimal notation like `"0.99"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kpa_measure::Rat;
    /// let p: Rat = "0.99".parse()?;
    /// assert_eq!(p, Rat::new(99, 100));
    /// let q: Rat = "-7/2".parse()?;
    /// assert_eq!(q, Rat::new(-7, 2));
    /// # Ok::<(), kpa_measure::ParseRatError>(())
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let err = || ParseRatError {
            input: s.to_owned(),
        };
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().map_err(|_| err())?;
            let d: i128 = d.trim().parse().map_err(|_| err())?;
            return Rat::checked_new(n, d).ok_or_else(err);
        }
        if let Some((whole, frac)) = s.split_once('.') {
            let neg = whole.trim_start().starts_with('-');
            let whole: i128 = if whole.is_empty() || whole == "-" {
                0
            } else {
                whole.parse().map_err(|_| err())?
            };
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let digits: i128 = frac.parse().map_err(|_| err())?;
            let scale = 10i128
                .checked_pow(u32::try_from(frac.len()).map_err(|_| err())?)
                .ok_or_else(err)?;
            let frac_part = Rat::new(digits, scale);
            let whole_part = Rat::from_int(whole);
            return Ok(if neg {
                whole_part - frac_part
            } else {
                whole_part + frac_part
            });
        }
        let n: i128 = s.parse().map_err(|_| err())?;
        Ok(Rat::from_int(n))
    }
}

/// Convenience constructor macro for [`Rat`] literals.
///
/// # Examples
///
/// ```
/// use kpa_measure::{rat, Rat};
/// assert_eq!(rat!(1 / 2), Rat::new(1, 2));
/// assert_eq!(rat!(3), Rat::from_int(3));
/// ```
#[macro_export]
macro_rules! rat {
    ($n:literal / $d:literal) => {
        $crate::Rat::new($n, $d)
    };
    ($n:literal) => {
        $crate::Rat::from_int($n)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
        assert_eq!(Rat::new(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn checked_new_rejects_zero_denominator() {
        assert_eq!(Rat::checked_new(1, 0), None);
        assert_eq!(Rat::checked_new(3, 6), Some(Rat::new(1, 2)));
    }

    #[test]
    fn arithmetic() {
        let a = rat!(1 / 2);
        let b = rat!(1 / 3);
        assert_eq!(a + b, rat!(5 / 6));
        assert_eq!(a - b, rat!(1 / 6));
        assert_eq!(a * b, rat!(1 / 6));
        assert_eq!(a / b, rat!(3 / 2));
        assert_eq!(-a, rat!(-1 / 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = rat!(1 / 2);
        x += rat!(1 / 4);
        assert_eq!(x, rat!(3 / 4));
        x -= rat!(1 / 4);
        assert_eq!(x, rat!(1 / 2));
        x *= rat!(2 / 3);
        assert_eq!(x, rat!(1 / 3));
        x /= rat!(1 / 3);
        assert_eq!(x, Rat::ONE);
    }

    #[test]
    fn ordering() {
        assert!(rat!(1 / 2) > rat!(1 / 3));
        assert!(rat!(-1 / 2) < rat!(1 / 3));
        assert!(rat!(2 / 4) == rat!(1 / 2));
        assert_eq!(rat!(1 / 2).max(rat!(2 / 3)), rat!(2 / 3));
        assert_eq!(rat!(1 / 2).min(rat!(2 / 3)), rat!(1 / 2));
    }

    #[test]
    fn ordering_near_i128_max_never_overflows() {
        let big = i128::MAX; // 2¹²⁷ − 1
        let alpha = Rat::new(big / 2, big); // (2¹²⁶ − 1) / (2¹²⁷ − 1) < 1/2
        assert!(alpha < rat!(1 / 2));
        assert!(alpha > rat!(1 / 3));
        assert!(rat!(1 / 6) < alpha);
        assert!(Rat::new(big / 2 + 1, big) > rat!(1 / 2));
        assert_eq!(alpha.cmp(&alpha), Ordering::Equal);
        // Both cross products overflow and differ only in the low bits.
        let a = Rat::new(big - 1, big);
        let b = Rat::new(big - 2, big - 1);
        assert_eq!((a.cmp(&b), b.cmp(&a)), (Ordering::Greater, Ordering::Less));
        assert_eq!((-a).cmp(&-b), Ordering::Less);
        assert!(Rat::new(i128::MIN + 1, big - 1) < Rat::new(-1, 1));
        assert!(Rat::new(i128::MIN, 1) < Rat::new(i128::MIN + 1, 1));
        assert!(Rat::ZERO > -a && Rat::ZERO < a);
        // The wide product itself, against a hand-checked case.
        assert_eq!(mul_wide(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
        assert_eq!(mul_wide(1 << 64, 1 << 64), (1, 0));
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(rat!(1 / 2).pow(11), Rat::new(1, 2048));
        assert_eq!(rat!(2 / 3).pow(-2), rat!(9 / 4));
        assert_eq!(rat!(0).pow(0), Rat::ONE);
        assert_eq!(rat!(7 / 3).recip(), rat!(3 / 7));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_of_zero_panics() {
        let _ = Rat::ZERO.recip();
    }

    #[test]
    fn predicates() {
        assert!(Rat::ZERO.is_zero());
        assert!(Rat::ONE.is_one());
        assert!(rat!(99 / 100).is_probability());
        assert!(Rat::ZERO.is_probability());
        assert!(Rat::ONE.is_probability());
        assert!(!rat!(101 / 100).is_probability());
        assert!(rat!(-1 / 2).is_negative());
        assert!(rat!(1 / 2).is_positive());
        assert_eq!(rat!(-3 / 4).abs(), rat!(3 / 4));
    }

    #[test]
    fn sums_and_products() {
        let xs = [rat!(1 / 2), rat!(1 / 3), rat!(1 / 6)];
        assert_eq!(xs.iter().sum::<Rat>(), Rat::ONE);
        assert_eq!(xs.iter().copied().sum::<Rat>(), Rat::ONE);
        assert_eq!(xs.iter().product::<Rat>(), Rat::new(1, 36));
    }

    #[test]
    fn parse() {
        assert_eq!("3/4".parse::<Rat>().unwrap(), rat!(3 / 4));
        assert_eq!(" -3 / 4 ".parse::<Rat>().unwrap(), rat!(-3 / 4));
        assert_eq!("5".parse::<Rat>().unwrap(), rat!(5));
        assert_eq!("0.99".parse::<Rat>().unwrap(), rat!(99 / 100));
        assert_eq!("-0.5".parse::<Rat>().unwrap(), rat!(-1 / 2));
        assert_eq!("1.25".parse::<Rat>().unwrap(), rat!(5 / 4));
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert!("1.x".parse::<Rat>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(rat!(1 / 2).to_string(), "1/2");
        assert_eq!(rat!(-5).to_string(), "-5");
        assert_eq!(format!("{:?}", rat!(2 / 3)), "2/3");
    }

    #[test]
    fn f64_approximation() {
        assert!((rat!(1 / 3).to_f64() - 0.333_333).abs() < 1e-5);
    }

    #[test]
    fn i128_min_numerator_is_canonical() {
        // Regression: `i128::MIN.unsigned_abs()` is 2¹²⁷; casting it
        // back `as i128` before the gcd used to wrap negative, breaking
        // canonical form. The magnitude is even, so any even denominator
        // reduces it into range.
        assert_eq!(Rat::new(i128::MIN, 2), Rat::new(i128::MIN / 2, 1));
        assert_eq!(Rat::new(i128::MIN, 4), Rat::new(i128::MIN / 4, 1));
        assert_eq!(Rat::new(i128::MIN, i128::MIN), Rat::ONE);
        assert_eq!(Rat::new(i128::MIN, -2), Rat::new(i128::MIN / -2, 1));
        // An odd denominator leaves |num| = 2¹²⁷, which still fits as
        // the negative value i128::MIN exactly.
        let r = Rat::new(i128::MIN, 3);
        assert_eq!(r.numer(), i128::MIN);
        assert_eq!(r.denom(), 3);
        assert!(r.is_negative());
    }

    #[test]
    #[should_panic(expected = "denominator overflow")]
    fn i128_min_denominator_overflow_panics() {
        // 1 / 2¹²⁷ has no positive i128 denominator; this used to wrap
        // silently and now panics with a descriptive message.
        let _ = Rat::new(1, i128::MIN);
    }

    #[test]
    fn add_fast_paths_match_general_path() {
        let cases = [
            (Rat::new(1, 6), Rat::new(1, 6)),  // equal denominators
            (Rat::new(1, 3), Rat::new(2, 3)),  // equal, sum reduces
            (Rat::new(5, 1), Rat::new(2, 7)),  // integer lhs
            (Rat::new(3, 8), Rat::new(-2, 1)), // integer rhs
            (Rat::new(-1, 6), Rat::new(1, 6)), // cancel to zero
            (Rat::new(1, 4), Rat::new(1, 6)),  // general lcm path
        ];
        for (a, b) in cases {
            // Reference: brute-force cross-multiplication.
            let want = Rat::new(
                a.numer() * b.denom() + b.numer() * a.denom(),
                a.denom() * b.denom(),
            );
            assert_eq!(a + b, want, "{a} + {b}");
            assert_eq!(b + a, want, "{b} + {a}");
        }
    }

    #[test]
    fn sum_with_denom_matches_folded_sum() {
        let nums = [3i128, 0, -1, 5, 12, 0, 7];
        let den = 24i128;
        let folded: Rat = nums.iter().map(|&n| Rat::new(n, den)).sum();
        assert_eq!(Rat::sum_with_denom(nums, den), folded);
        assert_eq!(Rat::sum_with_denom([], 5), Rat::ZERO);
        assert_eq!(Rat::sum_with_denom([2, 2], -8), Rat::new(-1, 2));
    }

    #[test]
    fn paper_values_fit() {
        // 1/2^11 from the coordinated-attack analysis and 1024/1025 from CA2.
        let loss_all = rat!(1 / 2).pow(11);
        assert_eq!(loss_all, Rat::new(1, 2048));
        let half = rat!(1 / 2);
        let conf = half / (half + half * rat!(1 / 2).pow(10));
        assert_eq!(conf, Rat::new(1024, 1025));
        assert!(conf > rat!(99 / 100));
    }
}
