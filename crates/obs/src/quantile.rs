//! Quantile estimation over fixed-bucket histograms and exact sample sets.
//!
//! Two estimators feed the campaign documents and the text exposition:
//!
//! * [`estimate`] / [`QuantileSummary::from_histogram`] work from a
//!   [`Histogram`]'s bucket counts with linear interpolation inside the
//!   winning `le` bucket (Prometheus `histogram_quantile` semantics:
//!   the first bucket interpolates from zero, the overflow bucket clamps
//!   to the last finite bound). When the histogram holds exactly one
//!   observation the estimate is *exact* — the single sample is
//!   recoverable from `sum` — otherwise it is a bucket-resolution
//!   estimate. The result is a pure function of the histogram's
//!   (bounds, counts, sum, count) state, so it is deterministic and
//!   **merge-stable**: folding shard partials in any grouping yields the
//!   same summary. Caveat: merging two single-observation histograms
//!   loses the count==1 exactness — the merged estimate falls back to
//!   bucket interpolation.
//! * [`QuantileSummary::exact`] computes exact linearly-interpolated
//!   quantiles from a raw sample slice (used for per-cell `wall_ms`,
//!   where campaigns hold every sample anyway).

use crate::{push_json_f64, Histogram};

/// A p50/p90/p99/max digest, rendered into campaign document headers
/// and (per histogram family) into the text exposition as
/// `_q50`/`_q90`/`_q99`/`_max` series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSummary {
    /// Median estimate.
    pub q50: f64,
    /// 90th-percentile estimate.
    pub q90: f64,
    /// 99th-percentile estimate.
    pub q99: f64,
    /// Maximum: exact for [`exact`](Self::exact), the upper bound of the
    /// highest non-empty bucket for histograms (clamped to the last
    /// finite bound when the overflow bucket is occupied).
    pub max: f64,
}

impl QuantileSummary {
    /// Estimates the digest from a histogram's buckets, or `None` when
    /// the histogram holds no finite observations.
    pub fn from_histogram(h: &Histogram) -> Option<Self> {
        if h.count() == 0 {
            return None;
        }
        if h.count() == 1 {
            // A single finite observation is exactly recoverable from
            // the sum; no bucket interpolation needed.
            let v = h.sum();
            return Some(QuantileSummary {
                q50: v,
                q90: v,
                q99: v,
                max: v,
            });
        }
        let max = {
            let last = h
                .counts()
                .iter()
                .rposition(|&c| c > 0)
                .expect("count > 0 implies a non-empty bucket");
            let bounds = h.bounds();
            bounds[last.min(bounds.len() - 1)]
        };
        Some(QuantileSummary {
            q50: estimate(h, 0.5)?,
            q90: estimate(h, 0.9)?,
            q99: estimate(h, 0.99)?,
            max,
        })
    }

    /// Exact linearly-interpolated quantiles over a raw sample slice.
    /// Non-finite samples are ignored; returns `None` when no finite
    /// samples remain. The slice need not be sorted.
    pub fn exact(values: &[f64]) -> Option<Self> {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Some(QuantileSummary {
            q50: at(0.5),
            q90: at(0.9),
            q99: at(0.99),
            max: v[v.len() - 1],
        })
    }

    /// Renders the digest as `{"q50":..,"q90":..,"q99":..,"max":..}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.push_json(&mut out);
        out
    }

    /// Appends [`to_json`](Self::to_json)'s rendering to `out`.
    pub(crate) fn push_json(&self, out: &mut String) {
        out.push_str("{\"q50\":");
        push_json_f64(out, self.q50);
        out.push_str(",\"q90\":");
        push_json_f64(out, self.q90);
        out.push_str(",\"q99\":");
        push_json_f64(out, self.q99);
        out.push_str(",\"max\":");
        push_json_f64(out, self.max);
        out.push('}');
    }
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of a histogram by linear
/// interpolation inside the winning `le` bucket, or `None` when the
/// histogram holds no finite observations. See the module docs for the
/// exactness and merge-stability properties.
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0`.
pub fn estimate(h: &Histogram, q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if h.count() == 0 {
        return None;
    }
    if h.count() == 1 {
        return Some(h.sum());
    }
    let bounds = h.bounds();
    let rank = q * h.count() as f64;
    let mut cumulative = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        let before = cumulative;
        cumulative += c;
        if c > 0 && cumulative as f64 >= rank {
            if i == bounds.len() {
                // Overflow bucket: no finite upper edge to interpolate
                // toward, so clamp to the last finite bound.
                return Some(bounds[bounds.len() - 1]);
            }
            let lower = if i == 0 {
                0.0f64.min(bounds[0])
            } else {
                bounds[i - 1]
            };
            let upper = bounds[i];
            return Some(lower + (upper - lower) * (rank - before as f64) / c as f64);
        }
    }
    // count > 0 guarantees some bucket satisfied the rank; keep the
    // compiler happy without unreachable!().
    Some(bounds[bounds.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(vec![1.0, 2.0]);
        assert_eq!(QuantileSummary::from_histogram(&h), None);
        assert_eq!(estimate(&h, 0.5), None);
    }

    #[test]
    fn single_observation_is_exact() {
        let mut h = Histogram::new(vec![10.0, 20.0]);
        h.observe(13.7);
        let q = QuantileSummary::from_histogram(&h).unwrap();
        assert_eq!(q.q50, 13.7);
        assert_eq!(q.q99, 13.7);
        assert_eq!(q.max, 13.7);
    }

    #[test]
    fn interpolation_matches_hand_computation() {
        // 10 observations uniform over the (0, 10] bucket.
        let mut h = Histogram::new(vec![10.0, 20.0]);
        for i in 0..10 {
            h.observe(f64::from(i) + 0.5);
        }
        // rank(0.5) = 5 of 10 in a bucket spanning 0..10 → 5.0.
        assert_eq!(estimate(&h, 0.5), Some(5.0));
        assert_eq!(estimate(&h, 0.9), Some(9.0));
        // Max estimate is the highest occupied bucket's bound.
        assert_eq!(QuantileSummary::from_histogram(&h).unwrap().max, 10.0);
    }

    #[test]
    fn overflow_bucket_clamps_to_last_bound() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        let q = QuantileSummary::from_histogram(&h).unwrap();
        assert_eq!(q.q50, 2.0);
        assert_eq!(q.q99, 2.0);
        assert_eq!(q.max, 2.0);
    }

    #[test]
    fn estimates_are_merge_stable() {
        let part = |vals: &[f64]| {
            let mut h = Histogram::new(vec![1.0, 5.0, 25.0]);
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let mut ab = part(&[0.5, 3.0]);
        ab.merge(&part(&[4.0, 30.0]));
        let mut ba = part(&[4.0, 30.0]);
        ba.merge(&part(&[0.5, 3.0]));
        let whole = part(&[0.5, 3.0, 4.0, 30.0]);
        assert_eq!(
            QuantileSummary::from_histogram(&ab),
            QuantileSummary::from_histogram(&ba)
        );
        assert_eq!(
            QuantileSummary::from_histogram(&ab),
            QuantileSummary::from_histogram(&whole)
        );
    }

    #[test]
    fn exact_quantiles_interpolate_over_samples() {
        let q = QuantileSummary::exact(&[4.0, 1.0, 3.0, 2.0, f64::NAN]).unwrap();
        assert_eq!(q.q50, 2.5);
        assert_eq!(q.max, 4.0);
        assert!((q.q90 - 3.7).abs() < 1e-12);
        assert_eq!(QuantileSummary::exact(&[]), None);
        assert_eq!(QuantileSummary::exact(&[f64::INFINITY]), None);
    }

    #[test]
    fn json_shape() {
        let q = QuantileSummary {
            q50: 1.0,
            q90: 2.5,
            q99: 3.0,
            max: 4.0,
        };
        assert_eq!(q.to_json(), "{\"q50\":1,\"q90\":2.5,\"q99\":3,\"max\":4}");
    }
}
