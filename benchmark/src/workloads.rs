//! Seeded inputs for the four workloads.
//!
//! Every input is a pure function of the seed: the same seed yields
//! byte-identical request lines and frames, a different seed different
//! ones. Lines are encoded with the server's own `encode`, so the bytes on
//! the wire are the bytes a real client sends, and they are all encoded
//! before any timing starts.
//!
//! The seed draws which laws are asked for, in what order, under which
//! cost rates, and the last digits of the offline laws' parameters. The
//! laws themselves (the pool's and the offline calls' base parameters)
//! are the same under every seed: how long a solve takes, and whether
//! the DP falls back to its exact pass, depends on the law, so a seeded
//! law pool would make some seeds' runs harder than others.

use reservation_strategies::{PlanRequest, SimulateOptions};
use rsj_core::heuristics::DEFAULT_EPSILON;
use rsj_core::{CostModel, SolverSpec};
use rsj_dist::{DiscretizationScheme, DistSpec};
use rsj_serve::{encode, Request, PROTOCOL_VERSION, PROTOCOL_VERSION_MAX};

pub const SERVE_HIT: &str = "serve_hit";
pub const SERVE_MISS: &str = "serve_miss";
pub const SERVE_BATCH: &str = "serve_batch";
pub const OFFLINE_PLAN: &str = "offline_plan";

/// The workloads, in the order a full run measures them.
pub const WORKLOADS: [&str; 4] = [SERVE_HIT, SERVE_MISS, SERVE_BATCH, OFFLINE_PLAN];

/// Laws in the `serve_miss` / `serve_batch` pool: far more than the
/// 128-entry eval-table memo holds, so table reuse depends on its policy.
pub const POOL_LAWS: usize = 1024;
/// Zipf exponent over the pool's ranks.
pub const ZIPF_S: f64 = 1.1;
/// Records in the journal `serve_miss` recovers at start-up.
pub const JOURNAL_RECORDS: usize = 20_000;
/// Items per `plan_batch` frame: `FRAME_LAWS` laws × `ITEMS_PER_LAW`.
pub const FRAME_LAWS: usize = 8;
pub const ITEMS_PER_LAW: usize = 16;
/// Of each frame's laws, this many are shared with the other connection's
/// frame of the same index (2 × 16 = 32 items arrive twice, concurrently).
pub const SHARED_LAWS: usize = 2;
/// `serve_hit` request lines per connection, cycled. Longer than the
/// 8192-timeline trace ring, so the ring never holds one trace id twice.
pub const HIT_LINES_PER_CONN: usize = 16_384;
/// Pre-encoded lines per connection per second of run time, sized above
/// the rate this host sustains; a faster host wraps around, and a
/// wrapped `serve_miss` line still misses the 256-plan cache.
pub const MISS_LINES_PER_CONN_PER_S: usize = 3_000;
pub const BATCH_FRAMES_PER_CONN_PER_S: usize = 40;
pub const OFFLINE_CALLS_PER_S: usize = 600;
/// Simulated jobs on the offline calls that also simulate (1 in 8).
pub const SIMULATE_JOBS: usize = 20_000;
/// The offline call mix repeats every 216 calls: 108 combinations of
/// family, scheme, n and cost model, by the 1-in-8 simulate pattern.
pub const OFFLINE_CYCLE: usize = 216;
/// How far the seed moves an offline call's law off its base parameters
/// (in the unit draws `law` spreads them by): enough to give every call
/// its own cold eval table, far too little to change the work.
pub const OFFLINE_JITTER: f64 = 1e-6;
/// Seed of the law pool and of the offline base parameters, which every
/// run shares whatever its `--seed`.
const LAWS_SEED: u64 = 20190520;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for substream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has probability ∝ `(k + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    #[cfg(test)]
    pub fn probability(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The three cost models of the solver equivalence suite: RESERVATIONONLY,
/// an HPC-like mix and a start-up-heavy cloud model.
pub fn cost_models() -> [CostModel; 3] {
    [
        CostModel::reservation_only(),
        CostModel {
            alpha: 0.95,
            beta: 1.0,
            gamma: 1.05,
        },
        CostModel {
            alpha: 2.0,
            beta: 0.0,
            gamma: 10.0,
        },
    ]
}

/// `cost` with its own start-up rate: distinct `id`s give distinct cost
/// bits, hence distinct plan-cache keys, without changing the work.
fn distinct_cost(cost: CostModel, id: u64) -> CostModel {
    CostModel {
        gamma: cost.gamma + (id + 1) as f64 * 1e-9,
        ..cost
    }
}

pub fn dp(scheme: DiscretizationScheme, n: usize) -> SolverSpec {
    SolverSpec::Dp {
        scheme,
        n,
        epsilon: DEFAULT_EPSILON,
        monotone: true,
    }
}

/// A law of Table 1's family `family % 9`, its parameters spread around
/// the Table 1 values by the two uniforms `a` and `b`.
pub fn law(family: usize, a: f64, b: f64) -> DistSpec {
    match family % 9 {
        0 => DistSpec::Exponential {
            lambda: 0.5 + 1.5 * a,
        },
        1 => DistSpec::Weibull {
            lambda: 0.5 + 1.5 * a,
            kappa: 0.4 + 0.4 * b,
        },
        2 => DistSpec::Gamma {
            alpha: 1.5 + 2.0 * a,
            beta: 1.0 + 2.0 * b,
        },
        3 => DistSpec::LogNormal {
            mu: 2.0 + 2.0 * a,
            sigma: 0.3 + 0.5 * b,
        },
        4 => DistSpec::TruncatedNormal {
            mu: 6.0 + 4.0 * a,
            sigma: 1.0 + b,
            a: 0.0,
        },
        5 => DistSpec::Pareto {
            nu: 1.0 + a,
            alpha: 2.5 + b,
        },
        6 => DistSpec::Uniform {
            a: 5.0 + 10.0 * a,
            b: 15.0 + 10.0 * a + 10.0 * b,
        },
        7 => DistSpec::Beta {
            alpha: 1.5 + 1.5 * a,
            beta: 1.5 + 1.5 * b,
        },
        _ => DistSpec::BoundedPareto {
            l: 0.5 + a,
            h: 15.0 + 10.0 * b,
            alpha: 1.8 + 0.6 * a,
        },
    }
}

/// The `serve_miss` / `serve_batch` law pool, the same under every seed.
/// Rank `k` has family `k % 9`.
fn law_pool() -> Vec<DistSpec> {
    let mut rng = Rng::new(LAWS_SEED, 1);
    (0..POOL_LAWS)
        .map(|k| law(k, rng.unit(), rng.unit()))
        .collect()
}

/// One request line plus the plan requests it carries.
#[derive(Debug, Clone)]
pub struct Line {
    /// The encoded request, newline included.
    pub text: String,
    /// The trace id the line carries; every response must echo it.
    pub trace_id: String,
    /// Indices into the load's request table, in item order.
    pub items: Vec<usize>,
}

/// Everything a serving workload sends.
#[derive(Debug, Clone)]
pub struct ServeLoad {
    /// Every distinct plan request the lines carry.
    pub table: Vec<PlanRequest>,
    /// Sent once, on one connection, while setting a server up.
    pub warmup: Vec<Line>,
    /// One cycled stream per load connection.
    pub conns: [Vec<Line>; 2],
}

fn plan_line(req: &PlanRequest, trace_id: String, index: usize) -> Line {
    let request = Request::Plan {
        v: PROTOCOL_VERSION,
        distribution: req.distribution.clone(),
        cost: req.cost,
        solver: req.solver.clone(),
        seed: None,
        simulate: req.simulate,
        deadline_ms: None,
        trace_id: Some(trace_id.clone()),
        trace: false,
    };
    line(&request, trace_id, vec![index])
}

fn batch_line(table: &[PlanRequest], items: Vec<usize>, trace_id: String) -> Line {
    let request = Request::PlanBatch {
        v: PROTOCOL_VERSION_MAX,
        items: items.iter().map(|&i| table[i].clone()).collect(),
        deadline_ms: None,
        trace_id: Some(trace_id.clone()),
        trace: false,
    };
    line(&request, trace_id, items)
}

fn line(request: &Request, trace_id: String, items: Vec<usize>) -> Line {
    let mut text = encode(request).expect("requests encode");
    text.push('\n');
    Line {
        text,
        trace_id,
        items,
    }
}

/// The inputs of a serving workload sized for a `seconds`-long run.
pub fn serve_load(workload: &str, seed: u64, seconds: u64) -> ServeLoad {
    match workload {
        SERVE_HIT => hit_load(seed),
        SERVE_MISS => miss_load(seed, seconds),
        SERVE_BATCH => batch_load(seed, seconds),
        OFFLINE_PLAN => offline_serve_load(seed, seconds),
        other => panic!("unknown workload {other}"),
    }
}

/// The 64 hot keys: 8 Table 1 laws × 4 solvers × 2 cost models.
pub fn hit_keys() -> Vec<PlanRequest> {
    let solvers = [
        dp(DiscretizationScheme::EqualProbability, 1000),
        dp(DiscretizationScheme::EqualTime, 1000),
        SolverSpec::MeanByMean,
        SolverSpec::MeanDoubling,
    ];
    let costs = cost_models();
    let mut keys = Vec::new();
    // Uniform is left out: its optimal plan is one reservation, whatever
    // the solver, so it would add keys without adding response shapes.
    for (_, law) in DistSpec::paper_table1()
        .into_iter()
        .filter(|(name, _)| *name != "Uniform")
    {
        for solver in &solvers {
            for cost in &costs[..2] {
                keys.push(
                    PlanRequest::new(law.clone())
                        .with_solver(solver.clone())
                        .with_cost(*cost),
                );
            }
        }
    }
    keys
}

fn hit_load(seed: u64) -> ServeLoad {
    let table = hit_keys();
    let warmup = (0..table.len())
        .map(|k| plan_line(&table[k], format!("w-{k}"), k))
        .collect();
    let conns = [0, 1].map(|c| {
        let mut rng = Rng::new(seed, 10 + c as u64);
        (0..HIT_LINES_PER_CONN)
            .map(|j| {
                let k = rng.below(table.len());
                plan_line(&table[k], format!("h{c}-{j}"), k)
            })
            .collect()
    });
    ServeLoad {
        table,
        warmup,
        conns,
    }
}

/// A `serve_miss` request: a Zipf-drawn pool law with its own cost rates,
/// 90% equal-probability DP at n=1000 and the rest spread over the other
/// serving solvers.
fn miss_request(pool: &[DistSpec], zipf: &Zipf, rng: &mut Rng, id: u64) -> PlanRequest {
    let law = pool[zipf.sample(rng)].clone();
    let solver = if rng.unit() < 0.9 {
        dp(DiscretizationScheme::EqualProbability, 1000)
    } else {
        match rng.below(3) {
            0 => dp(DiscretizationScheme::EqualTime, 1000),
            1 => SolverSpec::MeanByMean,
            _ => SolverSpec::MeanDoubling,
        }
    };
    let cost = cost_models()[rng.below(3)];
    PlanRequest::new(law)
        .with_solver(solver)
        .with_cost(distinct_cost(cost, id))
}

fn miss_load(seed: u64, seconds: u64) -> ServeLoad {
    let pool = law_pool();
    let zipf = Zipf::new(POOL_LAWS, ZIPF_S);
    let per_conn = MISS_LINES_PER_CONN_PER_S * seconds.max(1) as usize;
    let mut table = Vec::with_capacity(2 * per_conn);
    let conns = [0, 1].map(|c| {
        let mut rng = Rng::new(seed, 20 + c as u64);
        (0..per_conn)
            .map(|j| {
                let id = (2 * j + c) as u64;
                table.push(miss_request(&pool, &zipf, &mut rng, id));
                plan_line(
                    &table[table.len() - 1],
                    format!("m{c}-{j}"),
                    table.len() - 1,
                )
            })
            .collect()
    });
    ServeLoad {
        table,
        warmup: Vec::new(),
        conns,
    }
}

/// The requests whose plans fill the journal `serve_miss` starts on:
/// pool laws under cost rates no timed request uses. Mean-Doubling
/// solves them in microseconds, so writing 20,000 real records takes
/// well under a second. The journal is the same under every seed, so
/// every run's set-up replays the same records.
pub fn journal_requests() -> Vec<PlanRequest> {
    let pool = law_pool();
    let costs = cost_models();
    (0..JOURNAL_RECORDS)
        .map(|r| {
            PlanRequest::new(pool[r % POOL_LAWS].clone())
                .with_solver(SolverSpec::MeanDoubling)
                .with_cost(distinct_cost(costs[r % 3], 10_000_000 + r as u64))
        })
        .collect()
}

/// Frame items: `SHARED_LAWS` shared laws then the connection's private
/// ones, each law with `ITEMS_PER_LAW` distinct cost rates, interleaved
/// law by law so `plan_many` has to regroup them. The set-up frame uses
/// the fixed Table 1 laws of the hit keys, so set-up does the same work
/// under every seed.
fn batch_load(seed: u64, seconds: u64) -> ServeLoad {
    let pool = law_pool();
    let zipf = Zipf::new(POOL_LAWS, ZIPF_S);
    let frames = BATCH_FRAMES_PER_CONN_PER_S * seconds.max(1) as usize;
    let mut table = Vec::new();
    let mut law_items = |law: &DistSpec, cost: CostModel| -> Vec<usize> {
        (0..ITEMS_PER_LAW)
            .map(|_| {
                let id = table.len() as u64;
                table.push(
                    PlanRequest::new(law.clone())
                        .with_solver(dp(DiscretizationScheme::EqualProbability, 1000))
                        .with_cost(distinct_cost(cost, id)),
                );
                table.len() - 1
            })
            .collect()
    };
    let mut drawn = |rng: &mut Rng| law_items(&pool[zipf.sample(rng)], cost_models()[rng.below(3)]);
    let interleave = |groups: Vec<Vec<usize>>| -> Vec<usize> {
        (0..ITEMS_PER_LAW)
            .flat_map(|i| groups.iter().map(move |g| g[i]))
            .collect()
    };
    let mut shared_rng = Rng::new(seed, 30);
    let mut rngs = [Rng::new(seed, 31), Rng::new(seed, 32)];
    let mut conns: [Vec<Line>; 2] = [Vec::new(), Vec::new()];
    let mut frame_items = Vec::new();
    for f in 0..frames {
        let shared: Vec<Vec<usize>> = (0..SHARED_LAWS).map(|_| drawn(&mut shared_rng)).collect();
        for (c, rng) in rngs.iter_mut().enumerate() {
            let mut groups = shared.clone();
            groups.extend((SHARED_LAWS..FRAME_LAWS).map(|_| drawn(rng)));
            frame_items.push((c, f, interleave(groups)));
        }
    }
    let warm_laws: Vec<Vec<usize>> = hit_keys()
        .iter()
        .step_by(8)
        .map(|key| law_items(&key.distribution, cost_models()[0]))
        .collect();
    let warm_items = interleave(warm_laws);
    for (c, f, items) in frame_items {
        conns[c].push(batch_line(&table, items, format!("b{c}-{f}")));
    }
    let warmup = vec![batch_line(&table, warm_items, "bw-0".to_string())];
    ServeLoad {
        table,
        warmup,
        conns,
    }
}

/// The `offline_plan` calls: Table 1's 9 families × both schemes ×
/// n ∈ {1000, 5000} × 3 cost models in a fixed cycle, and 1 call in 8
/// also simulating [`SIMULATE_JOBS`] jobs. Each of the cycle's
/// [`OFFLINE_CYCLE`] positions has fixed base law parameters; every call
/// moves them by its own seeded [`OFFLINE_JITTER`], so every eval table
/// is cold while every cycle does the same work (a fleet re-planning the
/// same job classes each epoch under refitted laws).
pub fn offline_calls(seed: u64, count: usize) -> Vec<PlanRequest> {
    let mut base_rng = Rng::new(LAWS_SEED, 40);
    let base: Vec<(f64, f64)> = (0..OFFLINE_CYCLE)
        .map(|_| (base_rng.unit(), base_rng.unit()))
        .collect();
    let mut rng = Rng::new(seed, 40);
    let costs = cost_models();
    (0..count)
        .map(|i| {
            let combo = i % 108;
            let scheme = if (combo / 9) % 2 == 0 {
                DiscretizationScheme::EqualProbability
            } else {
                DiscretizationScheme::EqualTime
            };
            let n = if (combo / 18) % 2 == 0 { 1000 } else { 5000 };
            let (a, b) = base[i % OFFLINE_CYCLE];
            let (a, b) = (
                a + OFFLINE_JITTER * rng.unit(),
                b + OFFLINE_JITTER * rng.unit(),
            );
            let req = PlanRequest::new(law(combo, a, b))
                .with_solver(dp(scheme, n))
                .with_cost(costs[combo / 36]);
            let sim_seed = rng.next_u64();
            if i % 8 == 7 {
                req.with_simulate(SimulateOptions {
                    jobs: SIMULATE_JOBS,
                    seed: sim_seed,
                })
            } else {
                req
            }
        })
        .collect()
}

/// The `offline_plan` calls as one connection's request lines, for the
/// traced run's pass through the serving layers.
fn offline_serve_load(seed: u64, seconds: u64) -> ServeLoad {
    let table = offline_calls(seed, OFFLINE_CALLS_PER_S * seconds.max(1) as usize);
    let lines = (0..table.len())
        .map(|i| plan_line(&table[i], format!("o-{i}"), i))
        .collect();
    ServeLoad {
        table,
        warmup: Vec::new(),
        conns: [lines, Vec::new()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAME_ITEMS: usize = FRAME_LAWS * ITEMS_PER_LAW;

    /// FNV-1a over bytes, as 16 hex digits.
    pub fn fnv1a(chunks: impl IntoIterator<Item = impl AsRef<[u8]>>) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for chunk in chunks {
            for &b in chunk.as_ref() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// Digest of every request frame a one-second run would send, plus
    /// the offline calls and the journal `serve_miss` recovers.
    fn wire_digest(seed: u64) -> String {
        let mut texts: Vec<String> = Vec::new();
        for workload in [SERVE_HIT, SERVE_MISS, SERVE_BATCH] {
            let load = serve_load(workload, seed, 1);
            for line in load.warmup.iter().chain(load.conns.iter().flatten()) {
                texts.push(line.text.clone());
            }
        }
        for req in offline_calls(seed, 256).iter().chain(&journal_requests()) {
            texts.push(encode(req).unwrap());
        }
        fnv1a(texts)
    }

    #[test]
    fn same_seed_same_frames_and_pinned_digest() {
        assert_eq!(wire_digest(20190520), wire_digest(20190520));
        assert_eq!(wire_digest(20190520), "609718ca4e1258e3");
    }

    #[test]
    fn seeds_change_requests_not_laws() {
        let pool: std::collections::HashSet<String> =
            law_pool().iter().map(|l| encode(l).unwrap()).collect();
        for seed in [1, 2] {
            for workload in [SERVE_MISS, SERVE_BATCH] {
                let load = serve_load(workload, seed, 1);
                for &i in load.conns.iter().flatten().flat_map(|l| &l.items) {
                    let law = encode(&load.table[i].distribution).unwrap();
                    assert!(pool.contains(&law), "{workload} seed {seed}: {law}");
                }
            }
        }
        // Offline calls of two seeds differ only in the jitter.
        for (a, b) in offline_calls(1, OFFLINE_CYCLE)
            .iter()
            .zip(&offline_calls(2, OFFLINE_CYCLE))
        {
            assert_ne!(
                encode(&a.distribution).unwrap(),
                encode(&b.distribution).unwrap()
            );
            assert_eq!(encode(&a.solver).unwrap(), encode(&b.solver).unwrap());
            assert_eq!(encode(&a.cost).unwrap(), encode(&b.cost).unwrap());
            assert_eq!(a.simulate.is_some(), b.simulate.is_some());
        }
    }

    #[test]
    fn different_seed_different_frames() {
        assert_ne!(wire_digest(20190520), wire_digest(20190521));
        for workload in [SERVE_HIT, SERVE_MISS, SERVE_BATCH] {
            let a = serve_load(workload, 1, 1);
            let b = serve_load(workload, 2, 1);
            assert_ne!(a.conns[0][0].text, b.conns[0][0].text, "{workload}");
        }
    }

    #[test]
    fn zipf_rank_frequencies_match_the_law() {
        let zipf = Zipf::new(POOL_LAWS, ZIPF_S);
        let mut rng = Rng::new(7, 0);
        let draws = 200_000;
        let mut counts = vec![0usize; POOL_LAWS];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for rank in [0, 1, 2, 9, 99] {
            let expected = zipf.probability(rank) * draws as f64;
            let sd = expected.sqrt();
            assert!(
                (counts[rank] as f64 - expected).abs() < 5.0 * sd,
                "rank {rank}: {} vs {expected:.0}",
                counts[rank]
            );
        }
        // Ranks are ordered by probability, and rank 1 beats rank 2 by 2^s.
        let ratio = zipf.probability(0) / zipf.probability(1);
        assert!((ratio - 2f64.powf(ZIPF_S)).abs() < 1e-9);
        assert!((0..POOL_LAWS).map(|r| zipf.probability(r)).sum::<f64>() - 1.0 < 1e-9);
    }

    #[test]
    fn batch_frames_share_items_across_connections_only() {
        let load = serve_load(SERVE_BATCH, 3, 1);
        let (a, b) = (&load.conns[0][5], &load.conns[1][5]);
        assert_eq!(a.items.len(), FRAME_ITEMS);
        let shared = a.items.iter().filter(|i| b.items.contains(i)).count();
        assert_eq!(shared, SHARED_LAWS * ITEMS_PER_LAW);
        let keys: std::collections::HashSet<String> = a
            .items
            .iter()
            .map(|&i| encode(&load.table[i]).unwrap())
            .collect();
        assert_eq!(keys.len(), FRAME_ITEMS, "items of one frame are distinct");
    }

    #[test]
    fn hit_keys_are_64_distinct_plans() {
        let keys = hit_keys();
        assert_eq!(keys.len(), 64);
        let distinct: std::collections::HashSet<String> =
            keys.iter().map(|k| encode(k).unwrap()).collect();
        assert_eq!(distinct.len(), 64);
    }
}
