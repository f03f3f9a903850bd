//! Median and quartiles over repetitions, the only aggregation the
//! benchmark uses. The quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because
//! that is what the acceptance rule for this benchmark computes spreads
//! with — the numbers printed here can be checked against it directly.

use crate::json::Json;
use eunomia_stats::Histogram;

/// N, median and quartiles of one metric over repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `None` with fewer than two values: a quartile of one value is not
    /// a spread of zero, it is unknown.
    pub quartiles: Option<(f64, f64)>,
    pub min: f64,
    pub max: f64,
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `i * m` can be below `j * 4` after the clamp (two values):
        // signed, as in Python, so the interpolation extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            median: median(values),
            quartiles: quartiles(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// acceptance rule compares against a metric's bound.
    pub fn spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles?;
        (self.median != 0.0).then(|| (q3 - q1) / self.median.abs())
    }

    pub fn to_json(&self) -> Json {
        let (q1, q3) = match self.quartiles {
            Some((a, b)) => (Json::Num(a), Json::Num(b)),
            None => (Json::Null, Json::Null),
        };
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("median", Json::Num(self.median)),
            ("q1", q1),
            ("q3", q3),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// A percentile read off the histogram's CDF with linear interpolation
/// inside the bucket. `Histogram::percentile` snaps to bucket edges 3%
/// apart; a gated metric that moves in 3% steps cannot resolve a 5%
/// regression.
pub fn percentile_ms(h: &Histogram, p: f64) -> Option<f64> {
    let f = p / 100.0;
    let (mut prev_v, mut prev_f) = (h.min()? as f64, 0.0);
    for (v, cum) in h.cdf() {
        if cum >= f {
            let span = cum - prev_f;
            let t = if span > 0.0 { (f - prev_f) / span } else { 1.0 };
            return Some((prev_v + (v as f64 - prev_v) * t) / 1e6);
        }
        (prev_v, prev_f) = (v as f64, cum);
    }
    h.max().map(|v| v as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentile_moves_inside_a_bucket() {
        let mut h = Histogram::new();
        for v in 1_000_000..1_001_000u64 {
            h.record(v * 3);
        }
        let p50 = percentile_ms(&h, 50.0).unwrap();
        let p51 = percentile_ms(&h, 51.0).unwrap();
        let exact = h.percentile(50.0).unwrap() as f64 / 1e6;
        assert!(p51 > p50, "{p50} {p51}");
        assert!((p50 - exact).abs() / exact < 0.04, "{p50} vs {exact}");
        assert_eq!(percentile_ms(&Histogram::new(), 50.0), None);
    }

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython 3.12:
    /// `statistics.quantiles(v, n=4)` → `[q1, q2, q3]`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&ten), Some((3.5, 31.0)));
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quartiles(&five), Some((15.0, 45.0)));
        let three = [1.0, 2.0, 3.0];
        assert_eq!(quartiles(&three), Some((1.0, 3.0)));
        // Two values extrapolate beyond the data, as Python does.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn summary_carries_n_and_spread() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 30.0, 10.0, 50.0));
        assert_eq!(s.spread(), Some(1.0));
        let one = Summary::of(&[7.0]);
        assert_eq!(one.spread(), None);
        assert_eq!(one.to_json().get("q1"), Some(&Json::Null));
    }
}
