//! The benchmark's own load generator: seeded request schedules built
//! from nothing but the seed, so the program under test only ever sees
//! request lines. It shares no code with `ghr loadgen`, so a change to the
//! program's load generator cannot move this yardstick.

use std::collections::HashSet;

/// The fixed catalog of cheap servable lines every serve workload draws
/// its warm ids from (default element counts throughout).
pub const CATALOG: [&str; 19] = [
    "table1", "whatif", "fig1 c1", "fig1 c2", "fig1 c3", "fig1 c4", "autotune", "dot c1", "dot c2",
    "dot c3", "dot c4", "scan c1", "scan c2", "scan c3", "scan c4", "gemv c1", "gemv c2",
    "gemv c3", "gemv c4",
];

/// Zipf exponent of the warm-id popularity.
pub const ZIPF_S: f64 = 1.1;

/// Range fresh `--m` element counts are drawn from.
pub const FRESH_M: std::ops::RangeInclusive<u64> = (1 << 16)..=(1 << 24);

/// GEMV rounds `--m` down to whole rows of this many columns (the
/// default row length), so fresh GEMV counts are drawn as whole rows —
/// two draws inside one row would otherwise share a request id.
pub const GEMV_COLS: u64 = 1024;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one run.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `range` (inclusive).
    pub fn between(&mut self, range: &std::ops::RangeInclusive<u64>) -> u64 {
        let width = range.end() - range.start() + 1;
        range.start() + self.next_u64() % width
    }
}

/// Zipf(`s`) over ranks `0..n`: P(k) proportional to 1 / (k + 1)^s,
/// sampled by inverting the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Never-seen `dot|scan|gemv <case> --m N` lines: each call returns a
/// line whose request id differs from every catalog line and every line
/// it returned before.
#[derive(Debug, Default)]
pub struct FreshIds {
    seen: HashSet<(usize, usize, u64)>,
}

impl FreshIds {
    pub fn next(&mut self, rng: &mut Rng) -> String {
        const KINDS: [&str; 3] = ["dot", "scan", "gemv"];
        loop {
            let kind = (rng.next_u64() % 3) as usize;
            let case = (rng.next_u64() % 4) as usize;
            let mut m = rng.between(&FRESH_M);
            if KINDS[kind] == "gemv" {
                m = (m / GEMV_COLS).max(1) * GEMV_COLS;
            }
            if self.seen.insert((kind, case, m)) {
                return format!("{} c{} --m {m}", KINDS[kind], case + 1);
            }
        }
    }
}

/// One scheduled request: which line, and whether it is a fresh id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    pub line: String,
    pub fresh: bool,
}

/// `count` requests: zipf-drawn catalog lines, with each request instead
/// a fresh id with probability `fresh_share`.
pub fn schedule(seed: u64, count: usize, fresh_share: f64) -> Vec<Planned> {
    let zipf = Zipf::new(CATALOG.len(), ZIPF_S);
    let mut pick = Rng::stream(seed, 1);
    let mut mix = Rng::stream(seed, 2);
    let mut fresh_rng = Rng::stream(seed, 3);
    let mut fresh = FreshIds::default();
    (0..count)
        .map(|_| {
            if fresh_share > 0.0 && mix.unit() < fresh_share {
                Planned {
                    line: fresh.next(&mut fresh_rng),
                    fresh: true,
                }
            } else {
                Planned {
                    line: CATALOG[zipf.sample(&mut pick)].to_string(),
                    fresh: false,
                }
            }
        })
        .collect()
}

/// How late one open-loop send went out, split by cause (all times in
/// microseconds from the start of the schedule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Time the request waited because every connection was busy.
    pub wait: f64,
    /// Time the generator itself overslept past the later of the due
    /// time and the moment a connection came free.
    pub lag: f64,
}

/// Split the delay of a send that was `due`, found a free connection at
/// `free`, and went out at `sent`.
pub fn lateness(due: f64, free: f64, sent: f64) -> Lateness {
    Lateness {
        wait: (free - due).max(0.0),
        lag: (sent - free.max(due)).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = schedule(7, 500, 0.1);
        assert_eq!(a, schedule(7, 500, 0.1));
        assert_ne!(a, schedule(8, 500, 0.1));
    }

    #[test]
    fn zipf_favours_low_ranks_in_order() {
        let z = Zipf::new(CATALOG.len(), ZIPF_S);
        let mut rng = Rng::stream(42, 0);
        let mut counts = [0usize; CATALOG.len()];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank 0) / P(rank 1) = 2^1.1 ~ 2.14.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2f64.powf(1.1)).abs() < 0.1, "{ratio}");
        assert!(counts.windows(2).take(5).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(
            counts.iter().all(|&c| c > 0),
            "every rank is drawn: {counts:?}"
        );
    }

    #[test]
    fn fresh_ids_never_repeat_and_never_hit_the_catalog() {
        let mut rng = Rng::stream(3, 0);
        let mut fresh = FreshIds::default();
        let lines: Vec<String> = (0..5000).map(|_| fresh.next(&mut rng)).collect();
        let distinct: HashSet<&String> = lines.iter().collect();
        assert_eq!(distinct.len(), lines.len());
        for line in &lines {
            assert!(!CATALOG.contains(&line.as_str()), "{line}");
            let m: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(FRESH_M.contains(&m) || line.starts_with("gemv"), "{line}");
            if line.starts_with("gemv") {
                assert_eq!(m % GEMV_COLS, 0, "{line}");
            }
        }
    }

    #[test]
    fn fresh_share_is_respected() {
        let s = schedule(11, 20_000, 0.1);
        let fresh = s.iter().filter(|p| p.fresh).count() as f64 / s.len() as f64;
        assert!((fresh - 0.1).abs() < 0.01, "{fresh}");
        assert!(schedule(11, 1000, 0.0).iter().all(|p| !p.fresh));
    }

    #[test]
    fn lateness_splits_connection_wait_from_generator_lag() {
        // On time, connection free early: no wait, 5 us oversleep.
        assert_eq!(
            lateness(100.0, 50.0, 105.0),
            Lateness {
                wait: 0.0,
                lag: 5.0
            }
        );
        // Connection busy until 130: 30 us wait, then 2 us lag.
        assert_eq!(
            lateness(100.0, 130.0, 132.0),
            Lateness {
                wait: 30.0,
                lag: 2.0
            }
        );
        // Sent exactly when free: all wait, no lag.
        assert_eq!(
            lateness(100.0, 130.0, 130.0),
            Lateness {
                wait: 30.0,
                lag: 0.0
            }
        );
    }
}
