//! Domain workloads for the remaining Figure-1 applications:
//! sustainability certification (a), conference registration (b), and
//! supply-chain shipments (d).

use rand::Rng;

/// An environmental-statistics update (Fig. 1a): an organization
/// reports a change in a regulated metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmissionReport {
    /// Report id.
    pub id: u64,
    /// Reporting organization.
    pub org: String,
    /// Metric name ("co2-tons", "kwh", …).
    pub metric: &'static str,
    /// Amount added this period.
    pub amount: u64,
    /// Reporting timestamp.
    pub ts: u64,
}

/// Generates a stream of emission reports for `orgs` organizations;
/// amounts are small enough that most orgs stay within `bound` but a
/// tunable fraction exceed it.
pub fn emission_stream<R: Rng + ?Sized>(
    orgs: usize,
    reports: usize,
    bound: u64,
    rng: &mut R,
) -> Vec<EmissionReport> {
    let _span = prever_obs::span!("workloads.emission_stream");
    let metrics = ["co2-tons", "kwh", "water-m3"];
    let mut clock = 0u64;
    let stream: Vec<EmissionReport> = (0..reports)
        .map(|i| {
            clock += rng.gen_range(100..10_000);
            EmissionReport {
                id: i as u64 + 1,
                org: format!("org-{}", rng.gen_range(0..orgs)),
                metric: metrics[rng.gen_range(0..metrics.len())],
                amount: rng.gen_range(1..=(bound / 4).max(2)),
                ts: clock,
            }
        })
        .collect();
    prever_obs::counter!("workloads.emissions.generated").add(stream.len() as u64);
    prever_obs::log!(Debug, "generated {} emission reports across {orgs} orgs", stream.len());
    stream
}

/// A conference registration attempt (Fig. 1b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Registration {
    /// The participant's real identity (seen only by the credential
    /// authority).
    pub identity: String,
    /// Public alias chosen for the attendee list.
    pub alias: String,
    /// Whether this person actually holds a valid vaccination record.
    pub vaccinated: bool,
    /// Registration timestamp.
    pub ts: u64,
}

/// Generates `n` registration attempts, `vaccinated_fraction` of which
/// hold valid credentials.
pub fn registration_stream<R: Rng + ?Sized>(
    n: usize,
    vaccinated_fraction: f64,
    rng: &mut R,
) -> Vec<Registration> {
    let _span = prever_obs::span!("workloads.registration_stream");
    let mut clock = 0u64;
    let stream: Vec<Registration> = (0..n)
        .map(|i| {
            clock += rng.gen_range(1..600);
            Registration {
                identity: format!("person-{i:04}"),
                alias: format!("attendee-{:06x}", rng.gen::<u32>() & 0xff_ffff),
                vaccinated: rng.gen::<f64>() < vaccinated_fraction,
                ts: clock,
            }
        })
        .collect();
    prever_obs::counter!("workloads.registrations.generated").add(stream.len() as u64);
    prever_obs::log!(Debug, "generated {} registration attempts", stream.len());
    stream
}

/// A supply-chain shipment between enterprises (Fig. 1d).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shipment {
    /// Shipment id.
    pub id: u64,
    /// Sending enterprise.
    pub from: usize,
    /// Receiving enterprise.
    pub to: usize,
    /// Units shipped.
    pub quantity: u64,
    /// Shipment timestamp.
    pub ts: u64,
}

/// Generates a shipment stream across `enterprises` parties, quantities
/// in `1..=max_quantity`.
pub fn shipment_stream<R: Rng + ?Sized>(
    enterprises: usize,
    shipments: usize,
    max_quantity: u64,
    rng: &mut R,
) -> Vec<Shipment> {
    assert!(enterprises >= 2);
    let _span = prever_obs::span!("workloads.shipment_stream");
    let mut clock = 0u64;
    let stream: Vec<Shipment> = (0..shipments)
        .map(|i| {
            clock += rng.gen_range(60..3600);
            let from = rng.gen_range(0..enterprises);
            let mut to = rng.gen_range(0..enterprises - 1);
            if to >= from {
                to += 1;
            }
            Shipment {
                id: i as u64 + 1,
                from,
                to,
                quantity: rng.gen_range(1..=max_quantity),
                ts: clock,
            }
        })
        .collect();
    prever_obs::counter!("workloads.shipments.generated").add(stream.len() as u64);
    prever_obs::log!(Debug, "generated {} shipments across {enterprises} enterprises", stream.len());
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn emission_stream_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let reports = emission_stream(5, 200, 100, &mut rng);
        assert_eq!(reports.len(), 200);
        assert!(reports.windows(2).all(|w| w[0].ts < w[1].ts));
        assert!(reports.iter().all(|r| r.amount >= 1 && r.amount <= 25));
        let orgs: std::collections::HashSet<&str> =
            reports.iter().map(|r| r.org.as_str()).collect();
        assert!(orgs.len() > 2);
    }

    #[test]
    fn registration_stream_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let regs = registration_stream(1000, 0.8, &mut rng);
        let vaccinated = regs.iter().filter(|r| r.vaccinated).count();
        assert!((vaccinated as f64 / 1000.0 - 0.8).abs() < 0.05);
        // Aliases don't embed identity.
        assert!(regs.iter().all(|r| !r.alias.contains("person")));
    }

    #[test]
    fn shipments_never_self_loop() {
        let mut rng = StdRng::seed_from_u64(3);
        let ships = shipment_stream(4, 500, 50, &mut rng);
        assert!(ships.iter().all(|s| s.from != s.to));
        assert!(ships.iter().all(|s| s.from < 4 && s.to < 4));
    }
}
