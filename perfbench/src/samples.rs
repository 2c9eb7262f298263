//! Exact latency samples and the quantiles taken from them.
//!
//! Every request's latency is kept (per thread, merged at the end) and
//! percentiles are read off the sorted samples. The program's own
//! power-of-two histograms are deliberately not used for end-to-end
//! figures: a bucket edge such as 2^24 ns would read as a measurement.

/// Operation kinds the load threads issue, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Rmw,
    Scan,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Rmw, Kind::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Rmw => "rmw",
            Kind::Scan => "scan",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One thread's record of one measured window.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latency in nanoseconds of every successful request, by kind
    /// (saturating at about 4.3 s).
    lat: [Vec<u32>; 4],
    /// Requests issued in the window.
    pub issued: u64,
    /// Requests that got BUSY, an error, or a wrong value.
    pub failed: u64,
    /// Of `failed`, the ones whose reply was wrong (the output check).
    pub wrong: u64,
    /// Successful requests slower than the latency limit.
    pub over_slo: u64,
    /// Key and value bytes of the acknowledged writes.
    pub written_bytes: u64,
}

/// Latency limit for `slo_miss_ratio`.
pub const SLO_NANOS: u64 = 1_000_000;

impl Tally {
    /// A tally with room for `samples` latencies of each kind reserved
    /// up front. Reserved pages stay untouched until written, so the
    /// reservation costs no memory, and the buffers never reallocate: the
    /// benchmark's own peak memory grows by 4 bytes per request and not
    /// in doubling steps.
    pub fn with_capacity(samples: usize) -> Tally {
        Tally {
            lat: std::array::from_fn(|_| Vec::with_capacity(samples)),
            ..Tally::default()
        }
    }

    /// Account one successful request.
    pub fn ok(&mut self, kind: Kind, nanos: u64) {
        self.issued += 1;
        if nanos > SLO_NANOS {
            self.over_slo += 1;
        }
        self.lat[kind.index()].push(u32::try_from(nanos).unwrap_or(u32::MAX));
    }

    /// Account one failed request; `wrong` marks a reply that failed the
    /// output check rather than being refused.
    pub fn fail(&mut self, wrong: bool) {
        self.issued += 1;
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat) {
            mine.reserve_exact(theirs.len());
            mine.extend(theirs);
        }
        self.issued += other.issued;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.over_slo += other.over_slo;
        self.written_bytes += other.written_bytes;
    }

    /// Successful requests of one kind.
    pub fn count(&self, kind: Kind) -> u64 {
        self.lat[kind.index()].len() as u64
    }

    pub fn completed(&self) -> u64 {
        self.lat.iter().map(|v| v.len() as u64).sum()
    }

    /// Bytes the latency samples take.
    pub fn sample_bytes(&self) -> u64 {
        self.completed() * std::mem::size_of::<u32>() as u64
    }

    /// Sorted samples of one kind.
    pub fn sorted(&self, kind: Kind) -> Sorted {
        Sorted::new(self.lat[kind.index()].clone())
    }

    /// Share of issued requests that failed or missed the latency limit.
    pub fn slo_miss_ratio(&self) -> f64 {
        ratio(self.failed + self.over_slo, self.issued)
    }
}

/// Samples sorted once, for any number of quantile reads.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<u32>);

impl Sorted {
    pub fn new(mut v: Vec<u32>) -> Self {
        v.sort_unstable();
        Sorted(v)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// the samples at or below it. 0 with no samples.
    pub fn quantile(&self, q: f64) -> u32 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&x| u64::from(x)).sum::<u64>() as f64 / self.0.len() as f64 / 1e3
    }

    /// Quantile in microseconds.
    pub fn us(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e3
    }

    /// Samples strictly above quantile `q`: the support behind a tail
    /// percentile.
    pub fn beyond(&self, q: f64) -> usize {
        let v = self.quantile(q);
        self.0.len() - self.0.partition_point(|&x| x <= v)
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let s = Sorted::new((1..=100).rev().collect());
        assert_eq!(s.quantile(0.5), 50);
        assert_eq!(s.quantile(0.9), 90);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(Sorted::new(Vec::new()).quantile(0.5), 0);
    }

    #[test]
    fn tally_counts_failures_and_slo() {
        let mut a = Tally::default();
        a.ok(Kind::Get, 10);
        a.ok(Kind::Get, SLO_NANOS + 1);
        a.fail(false);
        let mut b = Tally::default();
        b.fail(true);
        b.ok(Kind::Put, 5);
        a.merge(b);
        assert_eq!(a.issued, 5);
        assert_eq!(a.failed, 2);
        assert_eq!(a.wrong, 1);
        assert_eq!(a.completed(), 3);
        assert!((a.slo_miss_ratio() - 3.0 / 5.0).abs() < 1e-12);
    }
}
