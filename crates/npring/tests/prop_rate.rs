//! Randomized (seeded, deterministic) tests for `--rate` parsing: any
//! string gives a rate or a typed error naming it, never a panic.

use nprng::rngs::StdRng;
use nprng::{Rng, SeedableRng};

use npring::RateSpec;

const PIECES: &[&str] = &[
    "max",
    "MAX",
    "Max",
    "0",
    "1",
    "9",
    "00",
    "+",
    "-",
    " ",
    "_",
    ".",
    "e",
    "k",
    "18446744073709551615",
    "18446744073709551616",
    "é",
];

#[test]
fn rate_spec_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5241_0001);
    let (mut rates, mut errors) = (0, 0);
    for _ in 0..5000 {
        let n = rng.gen_range(0..6);
        let text: String = (0..n)
            .map(|_| match rng.gen_range(0..6) {
                0 => char::from(rng.gen_range(0x20u8..0x7f)).to_string(),
                _ => PIECES[rng.gen_range(0..PIECES.len())].to_string(),
            })
            .collect();
        match RateSpec::parse(&text) {
            Ok(rate) => {
                rates += 1;
                assert_ne!(rate, RateSpec::Pps(0), "{text:?}");
                assert_eq!(RateSpec::parse(&rate.to_string()), Ok(rate), "{text:?}");
            }
            Err(error) => {
                errors += 1;
                assert_eq!(error.value(), text, "the error names the input");
            }
        }
    }
    assert!(rates > 0 && errors > 0, "{rates}/{errors}");
}
