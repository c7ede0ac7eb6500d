//! Single-server computational PIR over Paillier.
//!
//! The client sends a vector of ciphertexts — `Enc(1)` at the target
//! index, `Enc(0)` elsewhere. The server computes the homomorphic dot
//! product `Π cᵢ^{recordᵢ}`, which decrypts to the target record. The
//! server learns nothing under the DCR assumption; the cost is `n`
//! modular exponentiations per query, the linear-server-work baseline
//! that XPIR/SealPIR-style systems amortize (paper RC3 discussion).
//!
//! Records are `u64` values (e.g. packed attendance flags or record
//! pointers); wider records chunk across queries.

use crate::{PirError, Result};
use prever_crypto::bignum::BigUint;
use prever_crypto::paillier::{Ciphertext, PrivateKey, PublicKey};
use rand::Rng;
use std::sync::OnceLock;

/// Below this many nonzero exponentiation terms the dot product stays
/// sequential — thread spawn/join overhead outweighs the work.
///
/// Recalibrated from 64: at 96-bit test primes one term costs ~4 µs
/// (≈20 Montgomery muls) against ~20 µs of scoped-thread setup, so a
/// per-thread chunk needs ≥~100 terms before the spawn overhead drops
/// under 5%; production moduli only push the crossover lower, so 128
/// is conservative in the direction that never loses.
const PARALLEL_THRESHOLD: usize = 128;

/// Worker threads for the parallel dot-product paths:
/// `available_parallelism`, read once per process.
fn worker_threads() -> usize {
    static T: OnceLock<usize> = OnceLock::new();
    *T.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// The single PIR server.
#[derive(Clone, Debug)]
pub struct CpirServer {
    records: Vec<u64>,
    /// Modular exponentiations performed (cost accounting for E5).
    pub exp_ops: u64,
}

impl CpirServer {
    /// Builds the server over `records`.
    pub fn new(records: Vec<u64>) -> Self {
        CpirServer { records, exp_ops: 0 }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Public write.
    pub fn write(&mut self, index: usize, value: u64) -> Result<()> {
        if index >= self.records.len() {
            return Err(PirError::IndexOutOfRange { index, size: self.records.len() });
        }
        self.records[index] = value;
        Ok(())
    }

    /// Answers an encrypted query vector with the homomorphic dot
    /// product.
    ///
    /// The per-record exponentiations are independent, so above
    /// [`PARALLEL_THRESHOLD`] nonzero records the work is chunked
    /// across scoped threads, each folding its slice into a partial
    /// product; partials combine in chunk order, so the answer is
    /// identical to the sequential fold.
    pub fn answer(&mut self, pk: &PublicKey, query: &[Ciphertext]) -> Result<Ciphertext> {
        let _span = prever_obs::span!("pir.answer");
        if query.len() != self.records.len() {
            return Err(PirError::MalformedQuery);
        }
        // Π cᵢ^{rᵢ}  (skip zero records: cᵢ^0 = 1).
        let nonzero: Vec<(&Ciphertext, u64)> = query
            .iter()
            .zip(&self.records)
            .filter(|&(_, &r)| r != 0)
            .map(|(c, &r)| (c, r))
            .collect();
        self.exp_ops += nonzero.len() as u64;
        prever_obs::counter!("pir.exp_ops").add(nonzero.len() as u64);
        prever_obs::counter!("pir.queries").inc();
        if nonzero.is_empty() {
            // All-zero database: return Enc(0) deterministically derived
            // from the first query element times 0 — i.e. compute 0·c₀.
            return Ok(pk.mul_plain(&query[0], &BigUint::zero())?);
        }

        let threads = worker_threads();
        if threads <= 1 || nonzero.len() < PARALLEL_THRESHOLD {
            return Self::fold_terms(pk, &nonzero);
        }

        let chunk_len = nonzero.len().div_ceil(threads);
        let partials: Vec<Result<Ciphertext>> = std::thread::scope(|s| {
            let handles: Vec<_> = nonzero
                .chunks(chunk_len)
                .map(|chunk| s.spawn(move || Self::fold_terms(pk, chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cpir worker panicked"))
                .collect()
        });

        let mut acc: Option<Ciphertext> = None;
        for partial in partials {
            let partial = partial?;
            acc = Some(match acc {
                None => partial,
                Some(a) => pk.add(&a, &partial)?,
            });
        }
        Ok(acc.expect("at least one chunk"))
    }

    /// Folds `Π cᵢ^{rᵢ}` over one slice of nonzero terms via
    /// simultaneous multi-exponentiation (one shared squaring chain for
    /// the whole slice instead of a chain per record).
    fn fold_terms(pk: &PublicKey, terms: &[(&Ciphertext, u64)]) -> Result<Ciphertext> {
        Ok(pk.weighted_sum(terms)?)
    }

    /// Answers `k` queries in one matrix pass.
    ///
    /// All queries share the record (exponent) vector, so the nonzero
    /// filter and the exponent-digit schedule are computed once and only
    /// the per-query bucket multiplications remain — each query pays one
    /// Montgomery multiplication per nonzero record *digit* instead of
    /// per set *bit* (see `MontgomeryCtx::multi_pow_u64_rows`), roughly
    /// halving the work of `k` independent [`Self::answer`] calls even
    /// on one core. On multi-core hosts whole queries additionally tile
    /// across scoped threads (the digit schedule is cheap to recompute
    /// per tile; the multiplications are not). Answers are bit-identical
    /// to per-query [`Self::answer`] results.
    pub fn answer_many(
        &mut self,
        pk: &PublicKey,
        queries: &[&[Ciphertext]],
    ) -> Result<Vec<Ciphertext>> {
        let _span = prever_obs::span!("pir.answer_many");
        for q in queries {
            if q.len() != self.records.len() {
                return Err(PirError::MalformedQuery);
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let k = queries.len();
        let (idx, weights): (Vec<usize>, Vec<u64>) = self
            .records
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != 0)
            .map(|(i, &r)| (i, r))
            .unzip();
        self.exp_ops += (k * idx.len()) as u64;
        prever_obs::counter!("pir.exp_ops").add((k * idx.len()) as u64);
        prever_obs::counter!("pir.queries").add(k as u64);
        prever_obs::counter!("pir.multi_query.batch").add(k as u64);
        if idx.is_empty() {
            return queries
                .iter()
                .map(|q| Ok(pk.mul_plain(&q[0], &BigUint::zero())?))
                .collect();
        }

        let rows: Vec<Vec<&Ciphertext>> =
            queries.iter().map(|q| idx.iter().map(|&i| &q[i]).collect()).collect();
        let row_refs: Vec<&[&Ciphertext]> = rows.iter().map(|r| r.as_slice()).collect();

        let threads = worker_threads();
        if threads <= 1 || k == 1 || k * idx.len() < PARALLEL_THRESHOLD {
            return Ok(pk.weighted_sum_rows(&row_refs, &weights)?);
        }
        let chunk = k.div_ceil(threads);
        let tiles: Vec<Result<Vec<Ciphertext>>> = std::thread::scope(|s| {
            let handles: Vec<_> = row_refs
                .chunks(chunk)
                .map(|tile| {
                    let weights = &weights;
                    s.spawn(move || Ok(pk.weighted_sum_rows(tile, weights)?))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cpir worker panicked"))
                .collect()
        });

        let mut out = Vec::with_capacity(k);
        for tile in tiles {
            out.extend(tile?);
        }
        Ok(out)
    }
}

/// Client-side query builder/decoder.
#[derive(Debug)]
pub struct CpirClient {
    key: PrivateKey,
}

impl CpirClient {
    /// Creates a client with a fresh Paillier keypair (`prime_bits`-bit
    /// primes; 96–256 for tests/benches, larger for realism).
    pub fn new<R: Rng + ?Sized>(prime_bits: usize, rng: &mut R) -> Self {
        CpirClient { key: prever_crypto::paillier::keygen(prime_bits, rng) }
    }

    /// The public key the server computes under.
    pub fn public_key(&self) -> &PublicKey {
        &self.key.public
    }

    /// Builds the encrypted selection vector for `index`.
    pub fn query<R: Rng + ?Sized>(
        &self,
        index: usize,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>> {
        if index >= n {
            return Err(PirError::IndexOutOfRange { index, size: n });
        }
        let _span = prever_obs::span!("pir.query_build");
        let pk = &self.key.public;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let bit = u64::from(i == index);
            out.push(pk.encrypt_u64(bit, rng)?);
        }
        Ok(out)
    }

    /// Decrypts the server's response to the record value.
    pub fn decode(&self, response: &Ciphertext) -> Result<u64> {
        let m = self.key.decrypt(response)?;
        m.to_u64().ok_or(PirError::MalformedQuery)
    }
}

/// End-to-end convenience: privately reads `records[index]`.
pub fn retrieve<R: Rng + ?Sized>(
    client: &CpirClient,
    server: &mut CpirServer,
    index: usize,
    rng: &mut R,
) -> Result<u64> {
    let query = client.query(index, server.len(), rng)?;
    let response = server.answer(client.public_key(), &query)?;
    client.decode(&response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn retrieves_each_record() {
        let mut rng = StdRng::seed_from_u64(1);
        let client = CpirClient::new(96, &mut rng);
        let mut server = CpirServer::new(vec![11, 0, 33, 44, 55]);
        for (i, expected) in [11u64, 0, 33, 44, 55].iter().enumerate() {
            assert_eq!(retrieve(&client, &mut server, i, &mut rng).unwrap(), *expected);
        }
    }

    #[test]
    fn server_sees_only_ciphertexts() {
        // Queries for different indices must be computationally
        // indistinguishable; structurally, all elements are valid
        // ciphertexts and two queries for the same index differ.
        let mut rng = StdRng::seed_from_u64(2);
        let client = CpirClient::new(96, &mut rng);
        let q1 = client.query(2, 5, &mut rng).unwrap();
        let q2 = client.query(2, 5, &mut rng).unwrap();
        assert_ne!(
            q1.iter().map(|c| c.as_biguint().clone()).collect::<Vec<_>>(),
            q2.iter().map(|c| c.as_biguint().clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn updates_visible() {
        let mut rng = StdRng::seed_from_u64(3);
        let client = CpirClient::new(96, &mut rng);
        let mut server = CpirServer::new(vec![1, 2, 3]);
        server.write(1, 99).unwrap();
        assert_eq!(retrieve(&client, &mut server, 1, &mut rng).unwrap(), 99);
        assert!(server.write(5, 1).is_err());
    }

    #[test]
    fn query_size_checked() {
        let mut rng = StdRng::seed_from_u64(4);
        let client = CpirClient::new(96, &mut rng);
        let mut server = CpirServer::new(vec![1, 2, 3]);
        let q = client.query(0, 2, &mut rng).unwrap();
        assert!(matches!(
            server.answer(client.public_key(), &q),
            Err(PirError::MalformedQuery)
        ));
        assert!(client.query(9, 3, &mut rng).is_err());
    }

    #[test]
    fn all_zero_database() {
        let mut rng = StdRng::seed_from_u64(5);
        let client = CpirClient::new(96, &mut rng);
        let mut server = CpirServer::new(vec![0, 0, 0]);
        assert_eq!(retrieve(&client, &mut server, 1, &mut rng).unwrap(), 0);
    }

    #[test]
    fn parallel_answer_path_retrieves_correctly() {
        // 128 nonzero records crosses PARALLEL_THRESHOLD, exercising the
        // chunked scoped-thread fold; the result must match what the
        // sequential fold would produce (same record value back).
        let mut rng = StdRng::seed_from_u64(7);
        let client = CpirClient::new(96, &mut rng);
        let n = 2 * PARALLEL_THRESHOLD;
        let mut server = CpirServer::new((1..=n as u64).collect());
        for i in [0usize, n / 2, n - 1] {
            assert_eq!(retrieve(&client, &mut server, i, &mut rng).unwrap(), (i + 1) as u64);
        }
        assert_eq!(server.exp_ops, 3 * n as u64);
    }

    #[test]
    fn answer_many_matches_per_query_answers() {
        let mut rng = StdRng::seed_from_u64(8);
        let client = CpirClient::new(96, &mut rng);
        // Mixed record regimes: zeros, flag-like small values, and
        // full-width values exercising every bucket width.
        let mut records: Vec<u64> = (0..40).map(|i| i % 5).collect();
        records.extend([u64::MAX, 1 << 63, 0x1234_5678_9abc_def0]);
        let n = records.len();
        let mut server = CpirServer::new(records.clone());
        let targets = [0usize, 7, n - 3, n - 1];
        let queries: Vec<Vec<Ciphertext>> =
            targets.iter().map(|&t| client.query(t, n, &mut rng).unwrap()).collect();
        let query_refs: Vec<&[Ciphertext]> = queries.iter().map(|q| q.as_slice()).collect();

        let batched = server.answer_many(client.public_key(), &query_refs).unwrap();
        assert_eq!(batched.len(), targets.len());
        for ((q, &t), b) in query_refs.iter().zip(&targets).zip(&batched) {
            // Bit-identical to the sequential path, not just same plaintext.
            let single = server.answer(client.public_key(), q).unwrap();
            assert_eq!(b.as_biguint(), single.as_biguint());
            assert_eq!(client.decode(b).unwrap(), records[t]);
        }
    }

    #[test]
    fn answer_many_handles_edge_batches() {
        let mut rng = StdRng::seed_from_u64(9);
        let client = CpirClient::new(96, &mut rng);
        let pk = client.public_key();

        // Empty batch.
        let mut server = CpirServer::new(vec![1, 2, 3]);
        assert!(server.answer_many(pk, &[]).unwrap().is_empty());

        // All-zero database decodes to 0 for every query.
        let mut zeros = CpirServer::new(vec![0, 0, 0]);
        let q: Vec<Ciphertext> = client.query(1, 3, &mut rng).unwrap();
        let ans = zeros.answer_many(pk, &[&q, &q]).unwrap();
        assert_eq!(ans.len(), 2);
        for a in &ans {
            assert_eq!(client.decode(a).unwrap(), 0);
        }

        // Any malformed query rejects the whole batch.
        let short = client.query(0, 2, &mut rng).unwrap();
        assert!(matches!(
            server.answer_many(pk, &[&q, &short]),
            Err(PirError::MalformedQuery)
        ));

        // exp_ops accounts k·nonzero.
        let before = server.exp_ops;
        server.answer_many(pk, &[&q, &q]).unwrap();
        assert_eq!(server.exp_ops, before + 6);
    }

    #[test]
    fn work_scales_with_nonzero_records() {
        let mut rng = StdRng::seed_from_u64(6);
        let client = CpirClient::new(96, &mut rng);
        let mut server = CpirServer::new((1..=32).collect());
        retrieve(&client, &mut server, 0, &mut rng).unwrap();
        assert_eq!(server.exp_ops, 32);
    }
}
