//! Bench grid of the bad fixture tree. `GhostMechanism` is declared here
//! but no `Mechanism` impl anywhere returns that name.

pub const MECHANISM_PATHS: [(&str, &[&str]); 2] = [
    ("BadMechanism", &["dyn", "scratch"]),
    ("GhostMechanism", &["dyn", "scratch"]),
];
