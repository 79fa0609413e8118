//! Precomputed distribution evaluations over a discretization grid
//! (system S22) plus a process-wide memo of discretizations.
//!
//! The discretized DP solves over a `(distribution, scheme, n, ε)` tuple
//! read the §4.2.1 discrete law and, for the unbounded-tail extension,
//! two values at its last support point `vₙ`: `P(X ≥ vₙ)` and the exact
//! `E[X | X > vₙ]`. [`discretize_eval`] memoizes exactly that — a
//! [`DiscretizedEval`] — so repeated solves skip every quantile/cdf call
//! and the tail quadrature, across solver instances, experiment steps and
//! worker threads.
//!
//! ## Memo policy
//!
//! Entries differ in what they cost to rebuild by more than an order of
//! magnitude: a Beta or Gamma law inverts an incomplete beta or gamma
//! function by Newton iteration at each of its `n` quantiles, where an
//! Exponential law takes one `ln`. The memo therefore evicts by
//! GreedyDual-Size (Cao & Irani, USITS 1997). Each entry is charged the
//! wall time of its cold build (`discretize` plus the two tail values) and
//! its size, 16 bytes per support point. Its priority is
//! `L + build_ns / bytes`, where `L` is the priority of the last entry
//! evicted; a hit resets it to that value. When an insert would exceed
//! the budget, the lowest-priority entry goes first (the least recently
//! used among equals) and `L` rises to its priority. So an unused costly
//! table ages out only after `L` has climbed past it, and a cheap one
//! soon after it stops being used. The budget is 128 entries and
//! 2,048,000 bytes (128 entries at `n = 1000`). An entry larger than the
//! byte budget on its own is returned but not stored. The policy only
//! decides whether a deterministic build is repeated, so it never changes
//! an output bit.
//!
//! An [`EvalTable`] evaluates `F`, survival and conditional means at every
//! point of a grid, for callers that need the whole columns.
//!
//! ## Exactness
//!
//! The memo's tail values are what direct `survival(vₙ)` and
//! `conditional_mean_above(vₙ)` calls return, bit for bit. `EvalTable`'s
//! `cdf`/`survival` entries are the distribution's own values at the grid
//! points; its conditional-mean column is exact (one adaptive quadrature)
//! at the **last** grid point and a trapezoid-of-survival approximation at
//! interior points, clearly documented for callers that can tolerate it.

use crate::discrete::{discretize, DiscreteDistribution, DiscretizationScheme};
use crate::error::{DistError, Result};
use crate::traits::ContinuousDistribution;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Distribution evaluations precomputed over a fixed grid of points.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalTable {
    points: Vec<f64>,
    cdf: Vec<f64>,
    survival: Vec<f64>,
    cond_mean: Vec<f64>,
}

impl EvalTable {
    /// Evaluates `dist` at each of the strictly increasing `points`.
    ///
    /// Cost: one `cdf` and one `survival` call per grid point plus a
    /// single adaptive quadrature for the tail beyond the last point.
    pub fn build(dist: &dyn ContinuousDistribution, points: Vec<f64>) -> Result<Self> {
        if points.is_empty() {
            return Err(DistError::DegenerateSample {
                reason: "empty evaluation grid",
            });
        }
        let mut prev = f64::NEG_INFINITY;
        for &p in &points {
            if !p.is_finite() || p <= prev {
                return Err(DistError::InvalidParameter {
                    name: "points",
                    value: p,
                    requirement: "must be finite and strictly increasing",
                });
            }
            prev = p;
        }
        let n = points.len();
        let cdf: Vec<f64> = points.iter().map(|&p| dist.cdf(p)).collect();
        let survival: Vec<f64> = points.iter().map(|&p| dist.survival(p)).collect();

        // Conditional means, back to front. The last entry is the exact
        // `E[X | X > v_n]` (one quadrature inside the default trait
        // implementation); interior entries reuse that tail and integrate
        // the survival function between grid points with the trapezoid
        // rule, so they carry O(Δt²) discretization error.
        let mut cond_mean = vec![0.0; n];
        let last = n - 1;
        let (exact_last, mut tail_integral) = if survival[last] > 0.0 {
            let cm = dist.conditional_mean_above(points[last]);
            (cm, (cm - points[last]) * survival[last])
        } else {
            (points[last], 0.0)
        };
        cond_mean[last] = exact_last;
        for i in (0..last).rev() {
            tail_integral += 0.5 * (survival[i] + survival[i + 1]) * (points[i + 1] - points[i]);
            cond_mean[i] = if survival[i] > 0.0 {
                points[i] + tail_integral / survival[i]
            } else {
                points[i]
            };
        }
        Ok(EvalTable {
            points,
            cdf,
            survival,
            cond_mean,
        })
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The grid points, strictly increasing.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// `F(pᵢ)` for each grid point — exact distribution values.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// `P(X ≥ pᵢ)` for each grid point — exact distribution values.
    pub fn survival(&self) -> &[f64] {
        &self.survival
    }

    /// `E[X | X > pᵢ]` for each grid point: exact at the last point,
    /// trapezoid-approximate at interior points (see type docs).
    pub fn cond_mean(&self) -> &[f64] {
        &self.cond_mean
    }
}

/// A discretization paired with the two values the DP's tail extension
/// reads at its last support point — the unit the process-wide cache
/// shares between solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizedEval {
    /// The §4.2.1 discrete law (identical to what [`discretize`] returns).
    pub discrete: DiscreteDistribution,
    /// `P(X ≥ vₙ)` at the last support point `vₙ = discrete.max_value()`.
    pub tail_survival: f64,
    /// The exact `E[X | X > vₙ]`, or `vₙ` when `tail_survival` is 0.
    pub tail_cond_mean: f64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    dist: String,
    scheme: DiscretizationScheme,
    n: usize,
    epsilon_bits: u64,
}

/// Most entries the memo holds.
const CACHE_MAX_ENTRIES: usize = 128;
/// Most bytes of support points the memo holds: 128 entries at `n = 1000`.
const CACHE_MAX_BYTES: usize = 2_048_000;
/// What an entry is charged per support point: its value and probability.
const BYTES_PER_POINT: usize = 16;

/// Counters of the process-wide discretization memo, as returned by
/// [`eval_cache_stats`]; all zero after [`clear_eval_cache`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalCacheStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups of a cacheable law that had to build their entry.
    pub misses: u64,
    /// Entries dropped to stay within the budget.
    pub evictions: u64,
    /// Entries held.
    pub entries: usize,
    /// Bytes held, at 16 per support point.
    pub bytes: usize,
    /// Total wall time of the builds made on misses, in seconds.
    pub build_seconds: f64,
}

/// GreedyDual-Size eviction (see the module docs) over a bounded map.
/// Callers pass each entry's build cost and size, so tests can inject
/// them.
#[derive(Debug)]
pub(crate) struct GreedyDualSize<K, V> {
    slots: HashMap<K, Slot<V>>,
    max_entries: usize,
    max_bytes: usize,
    bytes: usize,
    /// `L`: the priority of the most recently evicted entry.
    inflation: f64,
    /// Access counter behind the least-recently-used tie-break.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    build_time: Duration,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    /// Build nanoseconds per byte held.
    cost_per_byte: f64,
    priority: f64,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> GreedyDualSize<K, V> {
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        GreedyDualSize {
            slots: HashMap::new(),
            max_entries,
            max_bytes,
            bytes: 0,
            inflation: 0.0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            build_time: Duration::ZERO,
        }
    }

    /// The value under `key`, counted as a hit (which resets its
    /// priority to `L + cost / bytes`) or a miss.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let Some(slot) = self.slots.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.clock += 1;
        slot.priority = self.inflation + slot.cost_per_byte;
        slot.last_used = self.clock;
        Some(slot.value.clone())
    }

    /// Stores `value`, which took `cost` to build and holds `bytes`,
    /// evicting the lowest-priority entries until it fits. An entry
    /// already under `key` is kept, and a value larger than the byte
    /// budget on its own is not stored; `cost` counts toward the total
    /// build time either way.
    pub(crate) fn insert(&mut self, key: K, value: V, bytes: usize, cost: Duration) {
        self.build_time += cost;
        if bytes > self.max_bytes || self.slots.contains_key(&key) {
            return;
        }
        while self.slots.len() >= self.max_entries || self.bytes + bytes > self.max_bytes {
            let victim = self
                .slots
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.priority
                        .total_cmp(&b.priority)
                        .then(a.last_used.cmp(&b.last_used))
                })
                .map(|(key, _)| key.clone())
                .expect("a memo over its budget holds an entry");
            let evicted = self.slots.remove(&victim).expect("victim is held");
            self.bytes -= evicted.bytes;
            self.inflation = evicted.priority;
            self.evictions += 1;
        }
        self.clock += 1;
        let cost_per_byte = cost.as_nanos() as f64 / bytes as f64;
        self.bytes += bytes;
        self.slots.insert(
            key,
            Slot {
                value,
                bytes,
                cost_per_byte,
                priority: self.inflation + cost_per_byte,
                last_used: self.clock,
            },
        );
    }

    pub(crate) fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.slots.len(),
            bytes: self.bytes,
            build_seconds: self.build_time.as_secs_f64(),
        }
    }
}

type Memo = GreedyDualSize<CacheKey, Arc<DiscretizedEval>>;

static CACHE: OnceLock<Mutex<Memo>> = OnceLock::new();

/// How a [`discretize_eval`] call obtained its entry: the discretized
/// law and its last-point tail values. Returned with the entry, so a
/// solve can say "warm" or "cold" about its own table without reading
/// the memo's global hit/miss counters, which other threads move too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalTableSource {
    /// Served from the process-wide memo (warm).
    CacheHit,
    /// Discretized and its tail values computed fresh (cold); the entry
    /// was then offered to the memo if the distribution has a faithful
    /// cache key.
    Built,
}

impl EvalTableSource {
    /// Short stable label for trace args and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            EvalTableSource::CacheHit => "warm",
            EvalTableSource::Built => "cold",
        }
    }
}

fn cache() -> MutexGuard<'static, Memo> {
    CACHE
        .get_or_init(|| Mutex::new(Memo::new(CACHE_MAX_ENTRIES, CACHE_MAX_BYTES)))
        .lock()
        .expect("eval cache lock")
}

/// Discretizes `dist` (same semantics as [`discretize`]) and evaluates
/// `survival` and `conditional_mean_above` at the last support point,
/// memoized process-wide by `(dist.cache_key(), scheme, n, epsilon)`.
/// Returns the entry with where it came from.
///
/// The memo holds at most 128 entries and 2,048,000 bytes (16 per support
/// point). When full, it evicts the entry with the least build time per
/// byte, aged by GreedyDual-Size (see the module docs), so the tables
/// that are slow to rebuild stay warm longest.
///
/// Distributions without a faithful [`ContinuousDistribution::cache_key`]
/// are computed fresh on every call (correctness first). Concurrent
/// misses on the same key may compute the entry twice; both arrive at
/// identical values, and the first insert is kept.
pub fn discretize_eval(
    dist: &dyn ContinuousDistribution,
    scheme: DiscretizationScheme,
    n: usize,
    epsilon: f64,
) -> Result<(Arc<DiscretizedEval>, EvalTableSource)> {
    let key = dist.cache_key().map(|dist| CacheKey {
        dist,
        scheme,
        n,
        epsilon_bits: epsilon.to_bits(),
    });
    if let Some(key) = &key {
        if let Some(hit) = cache().get(key) {
            return Ok((hit, EvalTableSource::CacheHit));
        }
    }

    let start = Instant::now();
    let discrete = discretize(dist, scheme, n, epsilon)?;
    // The same two evaluations `EvalTable::build` makes at its last point.
    let last = discrete.max_value();
    let tail_survival = dist.survival(last);
    let tail_cond_mean = if tail_survival > 0.0 {
        dist.conditional_mean_above(last)
    } else {
        last
    };
    let entry = Arc::new(DiscretizedEval {
        discrete,
        tail_survival,
        tail_cond_mean,
    });

    if let Some(key) = key {
        let cost = start.elapsed();
        let bytes = BYTES_PER_POINT * entry.discrete.len();
        cache().insert(key, Arc::clone(&entry), bytes, cost);
    }
    Ok((entry, EvalTableSource::Built))
}

/// The process-wide discretization memo's counters since start (or the
/// last [`clear_eval_cache`]). `rsj serve` publishes them as gauges when
/// its metrics are scraped.
pub fn eval_cache_stats() -> EvalCacheStats {
    cache().stats()
}

/// Empties the cache and zeroes its counters. Benchmarks call this
/// between timed solves so warm-cache and cold-cache timings stay
/// distinguishable.
pub fn clear_eval_cache() {
    *cache() = Memo::new(CACHE_MAX_ENTRIES, CACHE_MAX_BYTES);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{BetaDist, Exponential, LogNormal, Uniform};

    #[test]
    fn table_matches_direct_calls_bit_for_bit() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let points: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let t = EvalTable::build(&d, points.clone()).unwrap();
        for (i, &p) in points.iter().enumerate() {
            assert_eq!(t.cdf()[i].to_bits(), d.cdf(p).to_bits());
            assert_eq!(t.survival()[i].to_bits(), d.survival(p).to_bits());
        }
        // The last conditional mean is the exact quadrature value.
        assert_eq!(
            t.cond_mean()[49].to_bits(),
            d.conditional_mean_above(50.0).to_bits()
        );
    }

    #[test]
    fn interior_cond_means_approximate_the_exact_values() {
        let d = Exponential::new(0.5).unwrap();
        let points: Vec<f64> = (1..=2000).map(|i| i as f64 * 0.01).collect();
        let t = EvalTable::build(&d, points.clone()).unwrap();
        for i in (0..2000).step_by(137) {
            let exact = d.conditional_mean_above(points[i]);
            let approx = t.cond_mean()[i];
            assert!(
                (approx - exact).abs() / exact < 1e-4,
                "point {}: approx {approx} vs exact {exact}",
                points[i]
            );
        }
    }

    #[test]
    fn bounded_support_endpoint_is_handled() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let t = EvalTable::build(&d, vec![10.0, 15.0, 20.0]).unwrap();
        assert_eq!(t.survival()[2], 0.0);
        assert_eq!(t.cond_mean()[2], 20.0);
        // E[X | X > 15] = 17.5 for the uniform.
        assert!((t.cond_mean()[1] - 17.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_grids() {
        let d = Exponential::new(1.0).unwrap();
        assert!(EvalTable::build(&d, vec![]).is_err());
        assert!(EvalTable::build(&d, vec![1.0, 1.0]).is_err());
        assert!(EvalTable::build(&d, vec![2.0, 1.0]).is_err());
        assert!(EvalTable::build(&d, vec![1.0, f64::NAN]).is_err());
    }

    /// Serializes the tests that use the process-wide memo: they clear it
    /// and assert exact counts, and tests run on parallel threads.
    fn global_memo_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn cache_shares_entries_and_counts_hits() {
        let _guard = global_memo_lock();
        clear_eval_cache();
        let d = LogNormal::new(1.25, 0.4).unwrap();
        let (a, a_source) =
            discretize_eval(&d, DiscretizationScheme::EqualProbability, 64, 1e-7).unwrap();
        let (b, b_source) =
            discretize_eval(&d, DiscretizationScheme::EqualProbability, 64, 1e-7).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(
            (a_source, b_source),
            (EvalTableSource::Built, EvalTableSource::CacheHit)
        );
        let stats = eval_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.entries, stats.bytes), (1, 16 * a.discrete.len()));
        assert!(stats.build_seconds > 0.0);

        // Different scheme / n / epsilon are distinct entries.
        let (c, c_source) = discretize_eval(&d, DiscretizationScheme::EqualTime, 64, 1e-7).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c_source, EvalTableSource::Built);
        let reference = discretize(&d, DiscretizationScheme::EqualProbability, 64, 1e-7).unwrap();
        assert_eq!(a.discrete, reference, "cached law must equal discretize()");
        // The tail values are the table's last entries, bit for bit.
        let t = EvalTable::build(&d, reference.values().to_vec()).unwrap();
        let last = t.len() - 1;
        assert_eq!(a.tail_survival.to_bits(), t.survival()[last].to_bits());
        assert_eq!(a.tail_cond_mean.to_bits(), t.cond_mean()[last].to_bits());
        clear_eval_cache();
        assert_eq!(eval_cache_stats(), EvalCacheStats::default());
    }

    #[test]
    fn uncacheable_distributions_are_computed_fresh() {
        let _guard = global_memo_lock();
        clear_eval_cache();
        let samples: Vec<f64> = (1..=200).map(|i| i as f64 * 0.1).collect();
        let d = crate::interpolated::InterpolatedEmpirical::from_samples(&samples).unwrap();
        assert!(d.cache_key().is_none());
        let (a, _) = discretize_eval(&d, DiscretizationScheme::EqualProbability, 32, 1e-7).unwrap();
        let (b, b_source) =
            discretize_eval(&d, DiscretizationScheme::EqualProbability, 32, 1e-7).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "no faithful key → no sharing");
        assert_eq!(b_source, EvalTableSource::Built);
        assert_eq!(a.discrete, b.discrete);
        let t = EvalTable::build(&d, a.discrete.values().to_vec()).unwrap();
        let last = t.len() - 1;
        assert_eq!(a.tail_survival.to_bits(), t.survival()[last].to_bits());
        assert_eq!(a.tail_cond_mean.to_bits(), t.cond_mean()[last].to_bits());
        assert_eq!(eval_cache_stats(), EvalCacheStats::default());
        clear_eval_cache();
    }

    #[test]
    fn costly_table_stays_warm_through_a_stream_of_cheap_ones() {
        let _guard = global_memo_lock();
        clear_eval_cache();
        let scheme = DiscretizationScheme::EqualProbability;
        let beta = BetaDist::new(2.3, 2.9).unwrap();
        discretize_eval(&beta, scheme, 1000, 1e-7).unwrap();
        for i in 0..200 {
            let cheap = Exponential::new(1.0 + 0.01 * i as f64).unwrap();
            discretize_eval(&cheap, scheme, 1000, 1e-7).unwrap();
        }
        let stats = eval_cache_stats();
        assert_eq!(stats.misses, 201);
        assert!(stats.evictions >= 201 - CACHE_MAX_ENTRIES as u64);
        let (_, source) = discretize_eval(&beta, scheme, 1000, 1e-7).unwrap();
        assert_eq!(source, EvalTableSource::CacheHit);
        clear_eval_cache();
    }

    /// An `n = 1000` table, and what building one costs for most laws
    /// and for a Beta or Gamma law.
    const TABLE_BYTES: usize = 16 * 1000;
    const CHEAP: Duration = Duration::from_micros(170);
    const COSTLY: Duration = Duration::from_micros(25 * 170);

    #[test]
    fn policy_never_exceeds_its_budget() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut memo = GreedyDualSize::new(8, 1_000);
        for _ in 0..5_000 {
            let key: u32 = rng.gen_range(0..64);
            if memo.get(&key).is_none() {
                let bytes = rng.gen_range(1..1_200);
                memo.insert(key, (), bytes, Duration::from_micros(rng.gen_range(1..500)));
            }
            let stats = memo.stats();
            assert!(stats.entries <= 8 && stats.bytes <= 1_000, "{stats:?}");
            let held: usize = memo.slots.values().map(|slot| slot.bytes).sum();
            assert_eq!(stats.bytes, held);
        }
        assert!(memo.stats().evictions > 0);
    }

    #[test]
    fn costly_entry_survives_a_thousand_cheap_inserts() {
        let mut memo = GreedyDualSize::new(CACHE_MAX_ENTRIES, CACHE_MAX_BYTES);
        memo.insert(0u32, (), TABLE_BYTES, COSTLY);
        for key in 1..=1_000 {
            memo.insert(key, (), TABLE_BYTES, CHEAP);
        }
        assert_eq!(memo.stats().evictions, 1_001 - CACHE_MAX_ENTRIES as u64);
        assert!(memo.get(&0).is_some(), "the costly entry was evicted");
    }

    #[test]
    fn unused_costly_entry_ages_out() {
        let mut memo = GreedyDualSize::new(CACHE_MAX_ENTRIES, CACHE_MAX_BYTES);
        memo.insert(0u32, (), TABLE_BYTES, COSTLY);
        // L rises by about one cheap priority per 127 evictions, so it
        // passes the costly entry's after some 25 × 127 cheap inserts.
        for key in 1..=5_000 {
            memo.insert(key, (), TABLE_BYTES, CHEAP);
        }
        assert!(memo.get(&0).is_none(), "the costly entry never aged out");
    }

    #[test]
    fn hit_refreshes_priority() {
        let mut memo = GreedyDualSize::new(2, CACHE_MAX_BYTES);
        memo.insert('x', (), TABLE_BYTES, CHEAP);
        memo.insert('a', (), TABLE_BYTES, CHEAP);
        // Evicts 'x' (equal priority, least recently used) and raises L.
        memo.insert('b', (), TABLE_BYTES, CHEAP);
        assert!(memo.get(&'a').is_some());
        // 'b' was inserted after 'a' but never hit, so it goes first.
        memo.insert('c', (), TABLE_BYTES, CHEAP);
        assert!(memo.get(&'b').is_none());
        assert!(memo.get(&'a').is_some());
    }

    #[test]
    fn entry_over_the_byte_budget_is_not_stored() {
        let mut memo = GreedyDualSize::new(4, 100);
        memo.insert(1u32, (), 60, Duration::from_micros(10));
        memo.insert(2, (), 101, Duration::from_micros(10));
        assert!(memo.get(&2).is_none());
        assert!(memo.get(&1).is_some());
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (1, 60, 0));
        assert_eq!(stats.build_seconds, 20e-6);
    }

    /// A Zipf(1.1) stream over 1,024 equal-sized tables, one class in nine
    /// of them 25× costlier to build than the rest, like the Beta and
    /// Gamma laws among the nine Table 1 families.
    #[test]
    fn zipf_replay_rebuilds_far_less_than_clearing_at_capacity() {
        use rand::{Rng, SeedableRng};
        const KEYS: usize = 1_024;
        let cost = |key: usize| if key % 9 < 2 { COSTLY } else { CHEAP };
        let mut cumulative = Vec::with_capacity(KEYS);
        let mut total = 0.0;
        for rank in 1..=KEYS {
            total += (rank as f64).powf(-1.1);
            cumulative.push(total);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let stream: Vec<usize> = (0..20_000)
            .map(|_| {
                let u = rng.gen::<f64>() * total;
                cumulative.partition_point(|&c| c < u).min(KEYS - 1)
            })
            .collect();

        let mut memo = GreedyDualSize::new(CACHE_MAX_ENTRIES, CACHE_MAX_BYTES);
        let mut greedy_dual = Duration::ZERO;
        for &key in &stream {
            if memo.get(&key).is_none() {
                greedy_dual += cost(key);
                memo.insert(key, (), TABLE_BYTES, cost(key));
            }
        }

        // The policy it replaced: clear everything once 128 entries are held.
        let mut held = std::collections::HashSet::new();
        let mut clear_all = Duration::ZERO;
        for &key in &stream {
            if !held.contains(&key) {
                clear_all += cost(key);
                if held.len() >= CACHE_MAX_ENTRIES {
                    held.clear();
                }
                held.insert(key);
            }
        }
        let ratio = greedy_dual.as_secs_f64() / clear_all.as_secs_f64();
        assert!(ratio <= 0.6, "rebuild cost ratio {ratio:.3}");
    }
}
