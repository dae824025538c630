//! Percentiles, medians and quartiles, and the sample store every workload
//! reports from.

use crate::reference::Reference;

/// Percentiles the benchmark may report, lowest first.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported percentile for it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990 despite binary rounding.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when not even the median has that many.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so a spread computed here equals the
/// one the driver computes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A reported value with the spread behind it and the number of samples it
/// rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    /// Median and quartiles of the samples `value` was taken from.
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// The median of `values`, with their quartiles.
    pub fn median_of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        let median = median(values);
        Summary {
            value: median,
            median,
            q1,
            q3,
            samples: values.len(),
        }
    }

    /// The lower quartile of `values` as the value. What is left of a
    /// neighbour's burst after normalisation only ever makes an operation
    /// slower (the program is slowed somewhat more than the reference kernel
    /// is), so the lower quartile of a run says more about the program than
    /// its median does; median and upper quartile are kept beside it.
    pub fn lower_quartile_of(values: &[f64]) -> Summary {
        let s = Summary::median_of(values);
        Summary { value: s.q1, ..s }
    }

    /// A value that is one exact count or one measurement.
    pub fn single(value: f64) -> Summary {
        Summary::median_of(&[value])
    }

    /// Operations per second from milliseconds per operation.
    pub fn per_second(self) -> Summary {
        Summary {
            value: 1e3 / self.value,
            median: 1e3 / self.median,
            q1: 1e3 / self.q3,
            q3: 1e3 / self.q1,
            samples: self.samples,
        }
    }
}

/// One timed operation: when it ran (seconds on the run's [`Reference`]
/// clock, at half time) and what it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub at: f64,
    pub ms: f64,
}

/// Latency samples of one kind of operation over a run.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<Sample>,
}

impl Latencies {
    /// An operation that ended at `ended` (seconds on the reference clock)
    /// after `ms` milliseconds.
    pub fn push(&mut self, ended: f64, ms: f64) {
        self.samples.push(Sample {
            at: ended - ms / 2e3,
            ms,
        });
    }

    pub fn push_sample(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Percentile `p` of the latencies as measured.
    pub fn measured(&self, p: f64) -> Summary {
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        all.sort_by(f64::total_cmp);
        Summary {
            value: percentile(&all, p),
            ..Summary::median_of(&all)
        }
    }

    /// The latencies brought to the nominal host speed, each by the reference
    /// kernel's time around it.
    fn scaled(&self, reference: &Reference) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.ms * reference.scale_at(s.at))
            .collect()
    }

    /// The lower quartile of the latencies at reference speed.
    pub fn at_reference_speed(&self, reference: &Reference) -> Summary {
        Summary::lower_quartile_of(&self.scaled(reference))
    }

    /// The mean of the latencies at reference speed, the lowest and the
    /// highest tenth left out: for a latency with two modes, where a
    /// quantile tells of one mode only or jumps between them.
    pub fn mean_at_reference_speed(&self, reference: &Reference) -> Summary {
        let mut scaled = self.scaled(reference);
        scaled.sort_by(f64::total_cmp);
        let cut = scaled.len() / 10;
        let middle = &scaled[cut..scaled.len() - cut];
        Summary {
            value: middle.iter().sum::<f64>() / middle.len() as f64,
            ..Summary::median_of(&scaled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // Fewer than 20 samples cannot even support the median.
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        // 24 CLI cycles: p75 would leave only 6 beyond.
        assert_eq!(supported_percentile(24), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        // 150 fig7 samples: p90 leaves 15 beyond, p95 only 7.
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(150), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9_990), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn a_summary_keeps_median_and_quartiles_beside_its_value() {
        let five = [50.0, 10.0, 30.0, 20.0, 40.0];
        let s = Summary::median_of(&five);
        assert_eq!((s.value, s.q1, s.median, s.q3), (30.0, 15.0, 30.0, 45.0));
        let low = Summary::lower_quartile_of(&five);
        assert_eq!((low.value, low.median, low.samples), (15.0, 30.0, 5));
        // 15 ms an operation is 66.7 operations a second; the quartiles swap.
        let rate = low.per_second();
        assert!((rate.value - 1e3 / 15.0).abs() < 1e-9);
        assert!(rate.q1 < rate.median && rate.median < rate.q3);
        assert_eq!(Summary::single(7.0).q3, 7.0);
        assert!(Summary::median_of(&[]).value.is_nan());
    }

    #[test]
    fn latencies_are_scaled_by_the_reference_kernel_around_them() {
        // The host is at nominal speed until t = 2 s and half as fast after.
        let nominal = crate::reference::NOMINAL_MS;
        let reference = Reference::with_ticks(&[
            (0.0, nominal),
            (1.0, nominal),
            (2.0, nominal * 2.0),
            (3.0, nominal * 2.0),
            (4.0, nominal * 2.0),
        ]);
        let mut l = Latencies::default();
        for k in 0..10 {
            l.push(0.1 + 0.08 * f64::from(k), 10.0);
            l.push(2.1 + 0.08 * f64::from(k), 20.0);
        }
        // As measured the run has two modes; at reference speed it has one.
        assert_eq!(l.measured(50.0).value, 10.0);
        assert_eq!(l.measured(90.0).value, 20.0);
        let s = l.at_reference_speed(&reference);
        assert_eq!((s.value, s.median, s.q3, s.samples), (10.0, 10.0, 10.0, 20));
        // Two modes, a tenth of the samples far out: the mean of the middle
        // eight tenths is between the modes and ignores the outliers.
        let mut modes = Latencies::default();
        for k in 0..20 {
            let ms = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 90.0][k % 10];
            modes.push(0.1 + 0.04 * k as f64, ms);
        }
        let mean = modes.mean_at_reference_speed(&reference);
        assert_eq!((mean.value, mean.median, mean.samples), (4.0, 5.0, 20));
        // A sample is placed at its half time: this one straddles t = 1..2 s.
        let mut straddling = Latencies::default();
        straddling.push(1.75, 500.0);
        assert_eq!(straddling.samples()[0].at, 1.5);
        let scaled = straddling.at_reference_speed(&reference).value;
        assert!((scaled - 500.0 / 1.5).abs() < 1e-9, "{scaled}");
    }
}
