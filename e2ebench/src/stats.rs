//! Order statistics over latency samples.

/// Percentiles a tail figure may be reported at, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`
/// (`p` is taken to a tenth of a percent, in integer arithmetic, so 99.9 %
/// of 10 000 is exactly 9 990).
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The `p`-th percentile (nearest rank) of an ascending sample, or `None`
/// for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p)])
}

/// The median of an unsorted sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it, so a tail figure always rests on ten observations.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - (rank(n, p) + 1) >= 10)
}

/// A latency sample summarised the way the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// The percentile `tail` reports at: 99, or lower when fewer than ten
    /// samples lie beyond the 99th.
    pub tail_at: f64,
    /// The value at `tail_at`.
    pub tail: f64,
}

/// Buckets per power of two: a bucket spans 0.1 % of its values.
const SUB_BUCKETS: usize = 1024;
/// Powers of two covered, from 2^`MIN_EXP` microseconds up.
const OCTAVES: usize = 32;
/// The smallest power of two a bucket starts at (1/64 microsecond).
const MIN_EXP: i32 = -6;

/// A log-linear latency histogram in microseconds.  Its memory is fixed, so
/// the benchmark's own bookkeeping does not grow with the request rate and
/// distort the memory it reports for the system under test.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
    sum: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; SUB_BUCKETS * OCTAVES],
            total: 0,
            sum: 0.0,
        }
    }
}

impl Hist {
    fn bucket(us: f64) -> usize {
        let floor = 2f64.powi(MIN_EXP);
        let v = us.max(floor);
        let exp = v.log2().floor();
        let frac = v / exp.exp2() - 1.0;
        let octave = (exp as i32 - MIN_EXP) as usize;
        let sub = ((frac * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
        (octave * SUB_BUCKETS + sub).min(SUB_BUCKETS * OCTAVES - 1)
    }

    /// The value at `position` (0 to 1) across a bucket's span.
    fn value(bucket: usize, position: f64) -> f64 {
        let exp = (bucket / SUB_BUCKETS) as i32 + MIN_EXP;
        let frac = ((bucket % SUB_BUCKETS) as f64 + position) / SUB_BUCKETS as f64;
        2f64.powi(exp) * (1.0 + frac)
    }

    /// Records one latency.
    pub fn record(&mut self, us: f64) {
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
        self.sum += us;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of the recorded latencies.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The `p`-th percentile (nearest rank), or `None` when empty.  The
    /// samples of the bucket holding that rank are taken as spread evenly
    /// across its span.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = rank(self.total as usize, p) as u64;
        let mut below = 0u64;
        self.counts.iter().enumerate().find_map(|(bucket, &c)| {
            let c = u64::from(c);
            if below + c > target {
                let position = ((target - below) as f64 + 0.5) / c as f64;
                return Some(Self::value(bucket, position));
            }
            below += c;
            None
        })
    }

    /// The median and the supported tail; `None` when there are too few
    /// samples for any tail figure.
    pub fn summary(&self) -> Option<Summary> {
        let tail_at = supported_tail(self.total as usize)?.min(99.0);
        Some(Summary {
            count: self.total,
            p50: self.percentile(50.0)?,
            tail_at,
            tail: self.percentile(tail_at)?,
        })
    }
}
