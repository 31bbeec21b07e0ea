//! Sample summaries shared by the end-to-end and per-layer reports.

/// A set of timing (or ratio) samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Arithmetic mean (0 with no samples) — used where a unit cost is
    /// multiplied by a count, since a median times a count misses the tail.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (0 with no samples).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// The highest percentile that still has at least ten samples above
    /// it, as `(percentile, value)`; `None` below eleven samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        if n < 11 {
            return None;
        }
        // Rank `n - 11` (0-based) leaves exactly ten samples beyond it.
        let rank = n - 11;
        Some((100.0 * (rank + 1) as f64 / n as f64, v[rank]))
    }

    /// First and third quartile at ranks `(n+1)/4` and `3(n+1)/4`,
    /// interpolated between neighbours and clamped to the data; `None`
    /// below two samples.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        if n < 2 {
            return None;
        }
        let at = |j: usize| {
            // Position j·(n+1)/4 in 1-based ranks, clamped to the data.
            let pos = (j * (n + 1)) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, n);
            let hi = (lo + 1).min(n);
            v[lo - 1] + (pos - lo as f64).clamp(0.0, 1.0) * (v[hi - 1] - v[lo - 1])
        };
        Some((at(1), at(3)))
    }

    /// `median [q1, q3] (n=…)` for the end-to-end lines.
    pub fn describe_spread(&self) -> String {
        let spread = self
            .quartiles()
            .map_or_else(String::new, |(q1, q3)| format!("  IQR [{q1:.4}, {q3:.4}]"));
        format!("median {:.4}{spread}  (n={})", self.median(), self.len())
    }

    /// `median [pXX tail] (n=…)` for the human-readable ledger.
    pub fn describe(&self) -> String {
        let tail = self
            .tail()
            .map_or_else(String::new, |(p, v)| format!("  p{p:.1} {v:.4}"));
        format!("median {:.4}{tail}  (n={})", self.median(), self.len())
    }
}
