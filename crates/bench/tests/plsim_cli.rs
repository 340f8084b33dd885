//! Bad `plsim` input is rejected with a typed error and exit status 2 in
//! every build profile, instead of asserting in one and clamping in the
//! other.

#![expect(
    clippy::expect_used,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use std::process::{Command, Output};

fn plsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plsim"))
        .args(args)
        .output()
        .expect("plsim runs")
}

#[test]
fn bad_counts_and_lambdas_exit_2_with_an_error_line() {
    for args in [
        &["schedule", "--layers", "0", "--batch", "4"][..],
        &["estimate", "--net", "mnist-a", "--batch", "0"],
        &["estimate", "--net", "mnist-a", "--lambda", "-1"],
        &["estimate", "--net", "mnist-a", "--lambda", "nan"],
    ] {
        let out = plsim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn valid_input_still_runs() {
    let out = plsim(&["schedule", "--layers", "1", "--batch", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycles 4 | violations 0"), "{stdout}");
}
