//! Order statistics, the samples-beyond-percentile rule and Table III
//! fidelity against the paper.

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `p`-percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The rule every reported percentile obeys: at least this many samples
/// must lie beyond it, or the estimate is just the tail's largest values.
pub const MIN_BEYOND: usize = 10;

/// Refuse a percentile that has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn check_beyond(what: &str, n: usize, p: f64) -> Result<(), String> {
    let b = beyond(n, p);
    if b < MIN_BEYOND {
        return Err(format!(
            "{what}: p{} of {n} samples has only {b} beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    Ok(())
}

/// Nearest-rank `p`-percentile of raw samples, refused under the
/// samples-beyond rule.
pub fn percentile(what: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    check_beyond(what, samples.len(), p)?;
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Ok(s[rank - 1])
}

/// Table III rows, in the paper's order.
pub const ROWS: [&str; 5] = ["entry", "exit", "irq_entry", "exec", "total"];
/// Table III columns: native, then 1..=4 guest OSes.
pub const COLS: [&str; 5] = ["native", "1", "2", "3", "4"];

/// A Table III of means in µs, indexed `[row][column]`.
pub type Table = [[f64; 5]; 5];

/// The paper's Table III means (µs), as the `table3` binary prints them.
pub const PAPER_TABLE3: Table = [
    [0.00, 0.87, 1.11, 1.26, 1.29],
    [0.00, 0.72, 0.91, 0.96, 0.99],
    [0.00, 0.23, 0.46, 0.50, 0.51],
    [15.01, 15.46, 15.83, 16.11, 16.31],
    [15.01, 17.06, 17.84, 18.33, 18.57],
];

/// One cell of the fidelity breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub row: &'static str,
    pub col: &'static str,
    pub sim: f64,
    pub paper: f64,
    /// Relative error in percent, signed (`sim` above `paper` is positive).
    pub err_pct: f64,
}

/// Mean absolute relative error (percent) of `sim` against `paper` over
/// the cells where the paper's value is nonzero, with the per-cell table.
pub fn paper_err_pct(sim: &Table, paper: &Table) -> (f64, Vec<Cell>) {
    let mut cells = Vec::new();
    for (r, row) in ROWS.iter().enumerate() {
        for (c, col) in COLS.iter().enumerate() {
            let p = paper[r][c];
            if p == 0.0 {
                continue;
            }
            cells.push(Cell {
                row,
                col,
                sim: sim[r][c],
                paper: p,
                err_pct: (sim[r][c] - p) / p * 100.0,
            });
        }
    }
    let mean = cells.iter().map(|c| c.err_pct.abs()).sum::<f64>() / cells.len() as f64;
    (mean, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn samples_beyond_percentile_rule() {
        // p95 of 200 samples: rank 190, ten beyond — just allowed.
        assert_eq!(beyond(200, 0.95), 10);
        assert!(check_beyond("x", 200, 0.95).is_ok());
        // One sample fewer leaves nine beyond: refused.
        assert_eq!(beyond(199, 0.95), 9);
        assert!(check_beyond("x", 199, 0.95).is_err());
        // The median needs only twenty samples.
        assert!(check_beyond("x", 20, 0.5).is_ok());
        assert!(check_beyond("x", 19, 0.5).is_err());
        assert!(check_beyond("x", 0, 0.5).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile("x", &v, 0.95).unwrap(), 190.0);
        assert_eq!(percentile("x", &v, 0.5).unwrap(), 100.0);
        assert!(percentile("x", &v[..150], 0.95).is_err());
    }

    #[test]
    fn paper_err_on_a_known_table() {
        // The paper against itself: zero error over the 22 nonzero cells.
        let (e, cells) = paper_err_pct(&PAPER_TABLE3, &PAPER_TABLE3);
        assert_eq!(cells.len(), 22);
        assert_eq!(e, 0.0);
        // Every nonzero cell 10% high: exactly 10% mean error, and the
        // paper's zero cells (native entry/exit/IRQ) stay out of the mean
        // even when the simulation puts a value there.
        let mut sim = PAPER_TABLE3;
        for row in sim.iter_mut() {
            for v in row.iter_mut() {
                *v *= 1.1;
            }
        }
        sim[0][0] = 5.0;
        let (e, cells) = paper_err_pct(&sim, &PAPER_TABLE3);
        assert!((e - 10.0).abs() < 1e-9, "{e}");
        assert!(cells.iter().all(|c| (c.err_pct - 10.0).abs() < 1e-9));
        // Mixed signs count by magnitude: one cell 20% low, one 20% high.
        let mut sim = PAPER_TABLE3;
        sim[3][0] *= 0.8;
        sim[4][4] *= 1.2;
        let (e, _) = paper_err_pct(&sim, &PAPER_TABLE3);
        assert!((e - 40.0 / 22.0).abs() < 1e-9, "{e}");
    }
}
