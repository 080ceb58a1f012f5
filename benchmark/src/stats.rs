//! Order statistics over timing samples.

use crate::json::Json;

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted`, linearly interpolated
/// between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    quantile(&ascending(values), 0.5)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = ascending(values);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the detail file says about one sample set, next to the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let sorted = ascending(values);
    Summary {
        count: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    }
}

/// The samples with their summary, as the detail file stores them.
pub fn samples_json(values: &[f64]) -> Json {
    if values.is_empty() {
        return Json::Obj(vec![("count".into(), Json::Num(0.0))]);
    }
    let s = summarize(values);
    Json::Obj(vec![
        ("count".into(), Json::Num(s.count as f64)),
        ("min".into(), Json::Num(s.min)),
        ("q1".into(), Json::Num(s.q1)),
        ("median".into(), Json::Num(s.median)),
        ("q3".into(), Json::Num(s.q3)),
        ("max".into(), Json::Num(s.max)),
        (
            "samples".into(),
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&sorted, 0.0), 10.0);
        assert_eq!(quantile(&sorted, 0.25), 20.0);
        assert_eq!(quantile(&sorted, 0.75), 40.0);
        assert_eq!(quantile(&sorted, 1.0), 50.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 9.0);
        assert_eq!(percentile(&values, 50.0), 5.0);
        assert_eq!(percentile(&values, 100.0), 10.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                count: 5,
                min: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0,
                max: 5.0
            }
        );
    }
}
