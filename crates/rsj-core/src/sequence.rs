//! Reservation sequences (§2.2): strictly increasing request lengths
//! `t₁ < t₂ < …`, possibly finite (bounded supports) or a finite prefix of
//! an infinite sequence (unbounded supports).

use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// A strictly increasing sequence of reservation lengths.
///
/// For bounded job-time supports the sequence is *complete*: its last
/// element covers the support's upper endpoint and no job can outrun it.
/// For unbounded supports only a finite prefix is materialized; evaluators
/// and executors extend it geometrically past the last element when a
/// sampled job demands it (a documented safety valve — the prefix is always
/// generated deep enough that this happens with probability `< 1e-12`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReservationSequence {
    times: Vec<f64>,
    complete: bool,
}

impl ReservationSequence {
    /// Builds a sequence from reservation lengths, validating positivity and
    /// strict monotonicity. `complete` declares that the last element covers
    /// the entire job-time support.
    pub fn new(times: Vec<f64>, complete: bool) -> Result<Self> {
        if times.is_empty() {
            return Err(CoreError::EmptySequence);
        }
        let mut prev = 0.0;
        for (i, &t) in times.iter().enumerate() {
            if !t.is_finite() || t <= prev {
                return Err(CoreError::NotStrictlyIncreasing { index: i });
            }
            prev = t;
        }
        Ok(Self { times, complete })
    }

    /// A single-reservation sequence (the Theorem 4 optimum for uniform
    /// distributions is `(b)`).
    pub fn single(t: f64) -> Result<Self> {
        Self::new(vec![t], true)
    }

    /// The reservation lengths `t₁ < t₂ < …`.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of materialized reservations.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Never true after construction; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First reservation `t₁` — the single degree of freedom of an optimal
    /// sequence (Proposition 1).
    pub fn first(&self) -> f64 {
        self.times[0]
    }

    /// Last materialized reservation.
    pub fn last(&self) -> f64 {
        *self.times.last().expect("non-empty by construction")
    }

    /// Whether the last element provably covers every possible job time.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The `i`-th reservation (0-based), extending geometrically (doubling
    /// from the last materialized element) beyond the prefix.
    ///
    /// The extension keeps every evaluator total: an incomplete prefix can
    /// always be continued, and the continuation is deterministic so all
    /// evaluations of the same sequence agree.
    pub fn reservation(&self, i: usize) -> f64 {
        if i < self.times.len() {
            self.times[i]
        } else {
            let extra = (i - self.times.len() + 1) as i32;
            self.last() * 2f64.powi(extra)
        }
    }

    /// Index `k` (0-based) of the first reservation that fits a job of
    /// duration `t`, i.e. the smallest `k` with `t ≤ t_{k+1}` in paper
    /// numbering. Uses the geometric extension beyond the prefix.
    pub fn first_fitting(&self, t: f64) -> usize {
        match self
            .times
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite"))
        {
            Ok(i) => i,
            Err(i) if i < self.times.len() => i,
            Err(_) => {
                // Beyond the prefix: extension doubles from the last value.
                let mut i = self.times.len();
                while self.reservation(i) < t {
                    i += 1;
                }
                i
            }
        }
    }

    /// Iterates over the materialized reservations.
    pub(crate) fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.times.iter().copied()
    }
}

impl std::fmt::Display for ReservationSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const SHOWN: usize = 6;
        write!(f, "(")?;
        for (i, t) in self.times.iter().take(SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:.4}")?;
        }
        if self.times.len() > SHOWN {
            write!(f, ", … [{} terms]", self.times.len())?;
        }
        if !self.complete {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid() {
        assert!(matches!(
            ReservationSequence::new(vec![], true),
            Err(CoreError::EmptySequence)
        ));
        assert!(ReservationSequence::new(vec![1.0, 1.0], true).is_err());
        assert!(ReservationSequence::new(vec![2.0, 1.0], true).is_err());
        assert!(ReservationSequence::new(vec![0.0], true).is_err());
        assert!(ReservationSequence::new(vec![-1.0, 2.0], true).is_err());
        assert!(ReservationSequence::new(vec![1.0, f64::INFINITY], true).is_err());
    }

    #[test]
    fn accessors() {
        let s = ReservationSequence::new(vec![1.0, 2.0, 4.0], false).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.first(), 1.0);
        assert_eq!(s.last(), 4.0);
        assert!(!s.is_complete());
    }

    #[test]
    fn geometric_extension() {
        let s = ReservationSequence::new(vec![1.0, 2.0, 4.0], false).unwrap();
        assert_eq!(s.reservation(2), 4.0);
        assert_eq!(s.reservation(3), 8.0);
        assert_eq!(s.reservation(5), 32.0);
    }

    #[test]
    fn first_fitting_within_prefix() {
        let s = ReservationSequence::new(vec![1.0, 2.0, 4.0], false).unwrap();
        assert_eq!(s.first_fitting(0.5), 0);
        assert_eq!(s.first_fitting(1.0), 0); // t = t₁ fits the first slot
        assert_eq!(s.first_fitting(1.5), 1);
        assert_eq!(s.first_fitting(4.0), 2);
    }

    #[test]
    fn first_fitting_beyond_prefix() {
        let s = ReservationSequence::new(vec![1.0, 2.0, 4.0], false).unwrap();
        assert_eq!(s.first_fitting(5.0), 3); // extension: 8
        assert_eq!(s.first_fitting(20.0), 5); // extensions: 8, 16, 32
    }

    #[test]
    fn display_truncates() {
        let s = ReservationSequence::new((1..=10).map(|i| i as f64).collect(), false).unwrap();
        let text = format!("{s}");
        assert!(text.contains("[10 terms]"), "{text}");
    }
}
