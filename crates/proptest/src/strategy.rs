//! Strategies: composable value generators.

use crate::regex::Pattern;
use crate::rng::TestRng;
use std::ops::Range;
use std::rc::Rc;

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-maps generated values through `f`.
    fn prop_map<R, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> R,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Builds a recursive strategy: values are either this leaf strategy
    /// or one level of `branch` applied to the recursion, nested at most
    /// `depth` deep. (`_desired_size`/`_expected_branch` are accepted for
    /// API compatibility; depth already bounds generation here.)
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth.max(1) {
            let deeper = branch(current).boxed();
            current = Union::new(vec![(1, leaf.clone()), (2, deeper)]).boxed();
        }
        current
    }
}

/// Type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, R> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> R,
{
    type Value = R;
    fn generate(&self, rng: &mut TestRng) -> R {
        (self.f)(self.inner.generate(rng))
    }
}

/// Weighted choice among boxed strategies ([`crate::prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union; weights must sum to a nonzero total.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, strat) in &self.arms {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights summed")
    }
}

/// Values with a canonical "any value of the type" strategy.
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical strategy for `T` (`any::<u8>()` etc.).
pub struct Any<T>(std::marker::PhantomData<T>);

/// Unconstrained values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.bool()
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        // Biased toward ASCII, like practical inputs.
        if rng.below(4) > 0 {
            (0x20 + rng.below(0x5F) as u32) as u8 as char
        } else {
            char::from_u32(rng.below(0xD7FF) as u32).unwrap_or('\u{FFFD}')
        }
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

macro_rules! range_strategy_ints {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}
range_strategy_ints!(u8, u16, u32, u64, usize);

macro_rules! range_strategy_signed {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy_signed!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// String literals are character-class regex strategies
/// (`"[a-z0-9._-]{1,12}"`).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        Pattern::compile(self).generate(rng)
    }
}

/// Owned-pattern regex string strategy (rarely needed; literals usually
/// suffice).
#[derive(Clone, Debug)]
pub struct StringStrategy(pub String);

impl Strategy for StringStrategy {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        Pattern::compile(&self.0).generate(rng)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::*;

    /// Vectors of `elem` values with length drawn from `len` (half-open).
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    /// Strategy produced by [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.len.start >= self.len.end {
                self.len.start
            } else {
                rng.index(self.len.clone())
            };
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop_oneof;

    fn rng() -> TestRng {
        TestRng::new(0xD0C5)
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = rng();
        for _ in 0..500 {
            let v = (3u64..17).generate(&mut r);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..2.0).generate(&mut r);
            assert!((-2.0..2.0).contains(&f));
            let i = (-5i64..5).generate(&mut r);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn vec_respects_length_range() {
        let mut r = rng();
        for _ in 0..200 {
            let v = collection::vec(any::<u8>(), 2..5).generate(&mut r);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn map_and_just_compose() {
        let mut r = rng();
        let s = Just(21u32).prop_map(|x| x * 2);
        assert_eq!(s.generate(&mut r), 42);
    }

    #[test]
    fn oneof_honors_weights() {
        let mut r = rng();
        let s = prop_oneof![9 => Just(1u8), 1 => Just(2u8)];
        let ones = (0..1000).filter(|_| s.generate(&mut r) == 1).count();
        assert!(ones > 800, "weighted arm underrepresented: {ones}");
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = Just(Tree::Leaf).prop_recursive(4, 64, 8, |inner| {
            collection::vec(inner, 0..4).prop_map(Tree::Node)
        });
        let mut r = rng();
        for _ in 0..200 {
            assert!(depth(&strat.generate(&mut r)) <= 4);
        }
    }

    #[test]
    fn tuples_generate_componentwise() {
        let mut r = rng();
        let (a, b, c) = (0u8..10, any::<bool>(), Just(7i32)).generate(&mut r);
        assert!(a < 10);
        let _ = b;
        assert_eq!(c, 7);
    }
}
