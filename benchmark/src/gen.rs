//! Harness-owned seeded input generators.
//!
//! Nothing outside this directory decides the traffic: the PRNG, the
//! Zipf sampler and the crowdworking stream live here (the stream
//! started as a copy of `prever_workloads::crowdworking`), so a later
//! edit to `crates/workloads` or `vendor/rand` cannot change what the
//! benchmark sends. Every op has a byte encoding so that "same seed ⇒
//! same stream" can be checked byte for byte.

/// SplitMix64 step, used to expand a `u64` seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of round `round` of a run seeded `seed`: every round draws
/// its own traffic from the same generators.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut state = seed ^ (round as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix(&mut state)
}

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// A generator for `seed`; `stream` separates the independent
    /// streams one run draws (traffic, proof randomness, …).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix(&mut state);
        }
        Prng { s }
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. Multiply-shift: the
    /// bias is below 2⁻³² for every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl rand::RngCore for Prng {
    fn next_u32(&mut self) -> u32 {
        (Prng::next_u64(self) >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        Prng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = Prng::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Zipfian sampler over `[0, n)` (Gray et al., as YCSB uses it).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// `n ≥ 1` items with skew `theta ∈ (0, 1)`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0 && theta > 0.0 && theta < 1.0);
        let zeta = |k: usize| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// The item at quantile `u ∈ [0, 1)` of the popularity order.
    pub fn at(&self, u: f64) -> usize {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = self.eta * u - self.eta + 1.0;
        ((self.n as f64) * spread.powf(self.alpha)) as usize % self.n
    }
}

/// Seconds in the FLSA regulation window.
pub const WEEK: u64 = 604_800;
/// The FLSA bound: hours per worker per week.
pub const BOUND: u64 = 40;

/// One completed crowdworking task (paper §5: task, time spent,
/// platform).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Task id, 1-based and dense.
    pub id: u64,
    /// Worker index; the name is [`Task::worker_name`].
    pub worker: u32,
    /// Brokering platform.
    pub platform: u8,
    /// Hours worked, 1–8.
    pub hours: u8,
    /// Completion time in seconds, strictly increasing.
    pub ts: u64,
}

impl Task {
    /// The worker's name as the tables store it.
    pub fn worker_name(&self) -> String {
        worker_name(self.worker)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.worker.to_le_bytes());
        out.push(self.platform);
        out.push(self.hours);
        out.extend_from_slice(&self.ts.to_le_bytes());
    }
}

/// `worker-<index>`.
pub fn worker_name(worker: u32) -> String {
    format!("worker-{worker}")
}

/// The crowdworking stream's shape.
#[derive(Clone, Copy, Debug)]
pub struct CrowdConfig {
    /// Worker population.
    pub workers: usize,
    /// Worker-popularity skew: busy workers hit the bound.
    pub skew: f64,
    /// Mean seconds between completions.
    pub mean_interarrival: u64,
    /// Platforms tasks spread over.
    pub platforms: u64,
}

/// Stratified uniforms in `[0, 1)`: every block of `n` draws has exactly
/// one in each of the `n` equal strata, in seeded order. The marginal
/// distribution is the uniform one; what shrinks is how much the mix of
/// a few hundred draws differs from seed to seed, so that rounds and
/// runs carry the same load and differ by what the machine did.
#[derive(Clone, Debug)]
struct Strata {
    order: Vec<u32>,
    next: usize,
}

impl Strata {
    fn new(n: usize) -> Self {
        Strata {
            order: (0..n as u32).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut Prng) -> f64 {
        let n = self.order.len();
        if self.next == n {
            for i in (1..n).rev() {
                self.order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        let stratum = self.order[self.next];
        self.next += 1;
        (f64::from(stratum) + rng.unit()) / n as f64
    }
}

/// A seeded stream of task completions. Worker, platform, hours and
/// inter-arrival time are independent stratified draws.
#[derive(Clone, Debug)]
pub struct Crowd {
    cfg: CrowdConfig,
    zipf: Zipf,
    rng: Prng,
    next_id: u64,
    clock: u64,
    worker_u: Strata,
    platform_u: Strata,
    hours_u: Strata,
    gap_u: Strata,
}

impl Crowd {
    /// The stream for `seed`.
    pub fn new(cfg: CrowdConfig, seed: u64) -> Self {
        Crowd {
            cfg,
            zipf: Zipf::new(cfg.workers, cfg.skew),
            rng: Prng::new(seed, 1),
            next_id: 0,
            clock: 0,
            worker_u: Strata::new(128),
            platform_u: Strata::new(16 * cfg.platforms as usize),
            hours_u: Strata::new(64),
            gap_u: Strata::new(128),
        }
    }

    /// The next completion.
    pub fn next_task(&mut self) -> Task {
        self.next_id += 1;
        let gap = self.gap_u.draw(&mut self.rng) * (2 * self.cfg.mean_interarrival + 1) as f64;
        self.clock += 1 + gap as u64;
        Task {
            id: self.next_id,
            worker: self.zipf.at(self.worker_u.draw(&mut self.rng)) as u32,
            platform: (self.platform_u.draw(&mut self.rng) * self.cfg.platforms as f64) as u8,
            hours: 1 + (self.hours_u.draw(&mut self.rng) * 8.0) as u8,
            ts: self.clock,
        }
    }

    /// The next `n` completions.
    pub fn take(&mut self, n: usize) -> Vec<Task> {
        (0..n).map(|_| self.next_task()).collect()
    }
}

/// One operation of the `audit-read` mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditOp {
    /// Verified read: SUM of one worker's hours, with the digest.
    Query {
        /// The worker asked about.
        worker: u32,
    },
    /// Inclusion proof for the entry at `pick % trusted_size`.
    Inclusion {
        /// Raw draw; the harness reduces it to a sequence number.
        pick: u64,
    },
    /// Publish a digest and prove it extends the auditor's.
    Consistency,
    /// A write beside the reads.
    Write(Task),
}

impl AuditOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AuditOp::Query { worker } => {
                out.push(0);
                out.extend_from_slice(&worker.to_le_bytes());
            }
            AuditOp::Inclusion { pick } => {
                out.push(1);
                out.extend_from_slice(&pick.to_le_bytes());
            }
            AuditOp::Consistency => out.push(2),
            AuditOp::Write(t) => {
                out.push(3);
                t.encode(out);
            }
        }
    }
}

/// The `audit-read` mix: 40 % queries, 30 % inclusion proofs, 10 %
/// digest + consistency proofs, 20 % writes, exactly so in every block
/// of ten ops (the seed orders each block and picks the arguments), so
/// that rounds of a few hundred ops all carry the same mix. Writes
/// continue `crowd`, so their ids and timestamps follow the preloaded
/// tasks.
pub fn audit_mix(crowd: &mut Crowd, n: usize, seed: u64) -> Vec<AuditOp> {
    let mut rng = Prng::new(seed, 2);
    let workers = crowd.cfg.workers as u64;
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut block = [0u8, 0, 0, 0, 1, 1, 1, 2, 3, 3];
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for kind in block.into_iter().take(n - ops.len()) {
            ops.push(match kind {
                0 => AuditOp::Query {
                    worker: rng.below(workers) as u32,
                },
                1 => AuditOp::Inclusion {
                    pick: rng.next_u64(),
                },
                2 => AuditOp::Consistency,
                _ => AuditOp::Write(crowd.next_task()),
            });
        }
    }
    ops
}

/// Byte encoding of a task stream (determinism checks).
pub fn encode_tasks(tasks: &[Task]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tasks.len() * 22);
    for t in tasks {
        t.encode(&mut out);
    }
    out
}

/// Byte encoding of an audit mix (determinism checks).
pub fn encode_audit_ops(ops: &[AuditOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        op.encode(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: CrowdConfig = CrowdConfig {
        workers: 200,
        skew: 0.9,
        mean_interarrival: 600,
        platforms: 3,
    };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let stream = |seed| encode_tasks(&Crowd::new(CFG, seed).take(2_000));
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let mix = |seed| {
            let mut crowd = Crowd::new(CFG, seed);
            crowd.take(100);
            encode_audit_ops(&audit_mix(&mut crowd, 2_000, seed))
        };
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
    }

    #[test]
    fn every_block_of_stratified_draws_covers_every_stratum() {
        let mut rng = Prng::new(11, 0);
        let mut strata = Strata::new(16);
        for _ in 0..5 {
            let mut seen = [false; 16];
            for _ in 0..16 {
                let u = strata.draw(&mut rng);
                assert!((0.0..1.0).contains(&u));
                seen[(u * 16.0) as usize] = true;
            }
            assert!(seen.iter().all(|s| *s));
        }
    }

    #[test]
    fn tasks_are_well_formed_and_skewed() {
        let tasks = Crowd::new(CFG, 3).take(20_000);
        let mut last = 0;
        let mut per_worker = vec![0u32; CFG.workers];
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id, i as u64 + 1);
            assert!((1..=8).contains(&t.hours));
            assert!(u64::from(t.platform) < CFG.platforms);
            assert!(t.ts > last);
            last = t.ts;
            per_worker[t.worker as usize] += 1;
        }
        let max = *per_worker.iter().max().unwrap();
        assert!(
            max as usize > 3 * tasks.len() / CFG.workers,
            "hottest worker {max}"
        );
    }

    #[test]
    fn audit_mix_has_the_stated_shares() {
        let mut crowd = Crowd::new(CFG, 5);
        let ops = audit_mix(&mut crowd, 20_000, 5);
        let share =
            |f: fn(&AuditOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
        assert!((share(|o| matches!(o, AuditOp::Query { .. })) - 0.4).abs() < 0.02);
        assert!((share(|o| matches!(o, AuditOp::Inclusion { .. })) - 0.3).abs() < 0.02);
        assert!((share(|o| matches!(o, AuditOp::Consistency)) - 0.1).abs() < 0.02);
        assert!((share(|o| matches!(o, AuditOp::Write(_))) - 0.2).abs() < 0.02);
    }

    #[test]
    fn prng_feeds_the_rand_traits() {
        use rand::Rng;
        let mut a = Prng::new(1, 9);
        let mut b = Prng::new(1, 9);
        assert_eq!(a.gen_range(0..1000u64), b.gen_range(0..1000u64));
        let mut buf = [0u8; 13];
        a.fill(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }
}
