//! One kernel body, two compilations: portable and AVX2, picked at run
//! time.
//!
//! The workspace builds for baseline x86-64, whose SSE2 lacks the 32-bit
//! lane multiply and the wide shuffles the hot integer loops want. Rather
//! than change the build flags, each hot kernel's body is written once as an
//! `#[inline(always)]` function and [`multiversion!`] compiles it twice:
//! once for the baseline and once inside a `#[target_feature(enable =
//! "avx2")]` wrapper. `run` takes the AVX2 build where
//! `is_x86_feature_detected!` reports AVX2 and the portable one elsewhere.
//! There are no intrinsics: both arms come from the same source, and Rust
//! neither contracts nor reorders float operations, so the arms agree bit
//! for bit by construction (and the kernels' tests check it).

/// Defines module `$name` around the kernel body `$body`:
/// `$name::run` (the arm this CPU supports), `$name::portable` and
/// `$name::avx2` (`None` where the CPU lacks AVX2), each taking the
/// listed arguments.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        mod $name:ident: fn($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty = $body:expr;
    ) => {
        $(#[$attr])*
        pub(crate) mod $name {
            use super::*;

            /// The kernel on the AVX2 arm where the CPU has AVX2, else on
            /// the portable arm.
            #[inline]
            pub(crate) fn run($($arg: $ty),*) -> $ret {
                match avx2($($arg),*) {
                    Some(out) => out,
                    None => portable($($arg),*),
                }
            }

            /// The kernel as compiled for the baseline target.
            pub(crate) fn portable($($arg: $ty),*) -> $ret {
                $body($($arg),*)
            }

            /// The kernel compiled with AVX2, or `None` (and nothing run)
            /// where the CPU lacks it.
            pub(crate) fn avx2($($arg: $ty),*) -> Option<$ret> {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: `is_x86_feature_detected!("avx2")` just
                    // reported AVX2, the one feature `avx2_build` enables.
                    return Some(unsafe { avx2_build($($arg),*) });
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = ($($arg,)*);
                None
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2_build($($arg: $ty),*) -> $ret {
                $body($($arg),*)
            }
        }
    };
}

pub(crate) use multiversion;

/// The arm the multiversioned kernels take on this CPU: `"avx2"` or
/// `"portable"`. Benchmarks record it next to their numbers.
pub fn kernel_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Test support: asserts that the AVX2 arm's result, where it ran, is the
/// portable arm's; notes on stderr when the CPU lacks AVX2 and only the
/// portable arm ran.
#[cfg(test)]
pub(crate) fn assert_arms_agree<T: PartialEq + std::fmt::Debug>(portable: T, avx2: Option<T>) {
    match avx2 {
        Some(avx2) => assert_eq!(
            portable, avx2,
            "the AVX2 arm diverged from the portable arm"
        ),
        None => eprintln!("no AVX2 on this CPU: the AVX2 arm was skipped"),
    }
}
