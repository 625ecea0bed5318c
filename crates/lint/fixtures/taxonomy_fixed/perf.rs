//! Bench grid of the fixed fixture tree.

pub const MECHANISM_PATHS: [(&str, &[&str]); 2] = [
    ("GoodMechanism", &["dyn", "scratch"]),
    ("PeeledMechanism", &["dyn", "scratch"]),
];
