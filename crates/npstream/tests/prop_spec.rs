//! Randomized (seeded, deterministic) tests for source-spec parsing:
//! any string gives a spec or a typed error, never a panic.

use nprng::rngs::StdRng;
use nprng::{Rng, SeedableRng};

use npstream::{SourceSpec, SpecError};

/// Pieces of free-form strings: the `synth:` prefix, separators, file
/// suffixes, and stray characters.
const PIECES: &[&str] = &[
    "synth:", ":", "=", "mra", "zipf", "seed=", ".pcap", ".PCAP", ".cap", ".tsh", "é", " ", "",
];
const PROFILES: &[&str] = &["mra", "MRA", "zipf", "auck", "cos", "odu", "nope", ""];
const KEYS: &[&str] = &["seed", "packets", "flows", "skew", "sed", ""];
/// Values at and past the edges of each option's type.
const VALUES: &[&str] = &[
    "0",
    "1",
    "10",
    "10.01",
    "0.5",
    "-1",
    "-0",
    "1e309",
    "NaN",
    "inf",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "=",
    "",
    "x",
];

fn pick(rng: &mut StdRng, from: &[&'static str]) -> &'static str {
    from[rng.gen_range(0..from.len())]
}

/// A free-form string half the time; otherwise a `synth:` spec with a
/// profile and random `key=value` options, so every option parser runs.
fn arb_spec(rng: &mut StdRng) -> String {
    if rng.gen_range(0..2) == 0 {
        let n = rng.gen_range(0..8);
        return (0..n)
            .map(|_| match rng.gen_range(0..4) {
                0 => char::from(rng.gen_range(0x20u8..0x7f)).to_string(),
                _ => pick(rng, PIECES).to_string(),
            })
            .collect();
    }
    let mut spec = format!("synth:{}", pick(rng, PROFILES));
    for _ in 0..rng.gen_range(0..4) {
        spec += &format!(":{}={}", pick(rng, KEYS), pick(rng, VALUES));
    }
    spec
}

#[test]
fn source_spec_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5350_0001);
    let (mut synth, mut files, mut errors) = (0, 0, 0);
    for _ in 0..5000 {
        let text = arb_spec(&mut rng);
        match SourceSpec::parse(&text) {
            Ok(spec @ SourceSpec::Synth { .. }) => {
                synth += 1;
                assert!(text.starts_with("synth:"), "{text:?}");
                assert_eq!(spec.is_unbounded(), spec.packet_count().is_none());
            }
            Ok(_) => files += 1,
            Err(error) => {
                errors += 1;
                assert!(!error.to_string().is_empty());
                if let SpecError::UnknownFormat(echo) = error {
                    assert_eq!(echo, text, "the error names the input");
                }
            }
        }
    }
    // The alphabet reaches every outcome.
    assert!(
        synth > 0 && files > 0 && errors > 0,
        "{synth}/{files}/{errors}"
    );
}
