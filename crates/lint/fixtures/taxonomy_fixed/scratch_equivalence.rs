//! Equivalence suite of the fixed fixture tree: every taxonomy participant
//! has an entry.

#[test]
fn good_mechanism_providers_agree() {
    let mech = GoodMechanism::new(1.0);
    assert_providers_agree(&mech);
}

#[test]
fn peeled_top_k_providers_agree() {
    let mech = PeeledTopK::new(1.0, 3);
    assert_providers_agree(&mech);
}
