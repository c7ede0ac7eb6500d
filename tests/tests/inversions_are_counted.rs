//! The two crypto-bound request paths invert exactly as often as their
//! algebra needs: once per blinding factor, and never on the private
//! update path. Counted in `BigUint::mod_inv` / `gcd` calls (the
//! `crypto.bignum.*` counters), not in time.
//!
//! One test in a file of its own: the metrics registry is per process.

use prever_core::single::{produce_update, DataOwner, OutsourcedManager};
use prever_tokens::{TokenAuthority, Wallet};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn request_paths_invert_only_where_the_algebra_needs_it() {
    let inversions = prever_obs::counter("crypto.bignum.mod_inv");
    let gcds = prever_obs::counter("crypto.bignum.gcd");
    let mut rng = StdRng::seed_from_u64(16);

    // Key generation inverts and takes gcds freely; it is not a request.
    let mut authority = TokenAuthority::new(96, 40, &mut rng);
    let mut owner = DataOwner::new(96, &mut rng);
    let mut manager = OutsourcedManager::new(owner.public_params(), 40);
    assert!(inversions.get() > 0 && gcds.get() > 0, "the counters count");

    // RC3: k tokens are k blinding factors, each inverted once — the
    // inversion is the coprimality test, so no gcd beside it.
    let (inv0, gcd0) = (inversions.get(), gcds.get());
    let mut wallet = Wallet::new("worker-1");
    let k = 7;
    assert_eq!(wallet.request_tokens(&mut authority, 23, k, &mut rng).unwrap(), k);
    assert_eq!(inversions.get() - inv0, k, "one inversion per token");
    assert_eq!(gcds.get(), gcd0, "no gcd on token issuance");

    // RC1: encrypt, commit, range prove; range verify, add, rerandomize,
    // owner verdict (CRT decrypt) — exponentiations only.
    let (inv0, gcd0) = (inversions.get(), gcds.get());
    for (i, amount) in [10u64, 20, 10, 1].into_iter().enumerate() {
        let update = produce_update(
            &owner.public_params(),
            i as u64 + 1,
            "w1",
            0,
            amount,
            i as u64,
            &mut rng,
        )
        .unwrap();
        let outcome = manager.submit(&update, &mut owner, &mut rng).unwrap();
        assert_eq!(outcome.is_accepted(), i < 3, "40 is the bound");
    }
    assert_eq!(inversions.get(), inv0, "no inversion on the private update path");
    assert_eq!(gcds.get(), gcd0, "no gcd on the private update path");
}
