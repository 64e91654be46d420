//! Machine-speed calibration.
//!
//! A shared host slows every instruction of a guest when its neighbours
//! compete for the same cores, caches and memory, and the slowdown drifts
//! from one minute to the next; the thread CPU clock (`clock`) counts it.
//! So before each timed call the benchmark runs a fixed reference pass of
//! its own, a sparse matrix–vector sweep shaped like the LP's pricing and
//! update loops, and scales the call's CPU time by how slow that pass ran:
//! `calibrated = cpu × REFERENCE_S / reference_cpu`. A calibrated time
//! reads as CPU time on a machine that runs the reference pass in
//! `REFERENCE_S`. The pass is the benchmark's own code and touches no code
//! of the program, so a change to the program moves only the numerator.

use std::hint::black_box;

use crate::clock::timed;

/// Columns of the reference matrix (and length of its vectors).
const N: usize = 32 * 1024;
/// Nonzeros per column: 196,608 in all, about 2.3 MiB with the index
/// and value arrays, which spills a 2 MiB L2 as the LP's working set does.
const NNZ_PER_COL: usize = 6;
/// Timed sweeps per pass, after one untimed sweep that reloads the caches
/// the previous call evicted.
const SWEEPS: usize = 3;
/// CPU seconds of one pass on the reference machine. The figures read as
/// CPU time on a machine this fast, close to a quiet 2-core x86-64 VM.
pub const REFERENCE_S: f64 = 1e-3;

/// The reference pass's fixed data.
pub struct Reference {
    col_start: Vec<u32>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Reference {
    /// Builds the matrix from a fixed xorshift stream, so every run and
    /// every seed times the same pass.
    pub fn new() -> Self {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut col_start = Vec::with_capacity(N + 1);
        let mut rows = Vec::with_capacity(N * NNZ_PER_COL);
        let mut vals = Vec::with_capacity(N * NNZ_PER_COL);
        for _ in 0..N {
            col_start.push(rows.len() as u32);
            for _ in 0..NNZ_PER_COL {
                rows.push((next() % N as u64) as u32);
                vals.push((next() % 1000 + 1) as f64 / 1000.0);
            }
        }
        col_start.push(rows.len() as u32);
        Reference {
            col_start,
            rows,
            vals,
            x: vec![1.0; N],
            y: vec![0.0; N],
        }
    }

    /// One sweep: scatter `y += A x` column by column, gather each
    /// column's dot product with the updated `y`, then renormalise `x`
    /// from `y`. Returns the sum of the dot products.
    fn sweep(&mut self) -> f64 {
        self.y.fill(0.0);
        let mut acc = 0.0;
        for j in 0..N {
            let xj = self.x[j];
            let (lo, hi) = (self.col_start[j] as usize, self.col_start[j + 1] as usize);
            let mut dot = 0.0;
            for k in lo..hi {
                let r = self.rows[k] as usize;
                self.y[r] += self.vals[k] * xj;
                dot += self.vals[k] * self.y[r];
            }
            acc += dot;
        }
        let norm = self
            .y
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        for (x, y) in self.x.iter_mut().zip(&self.y) {
            *x = 0.5 * *x + 0.5 * y / norm;
        }
        acc
    }

    /// CPU seconds of one pass at the machine's current speed.
    pub fn time(&mut self) -> f64 {
        black_box(self.sweep());
        let (acc, time) = timed(|| (0..SWEEPS).map(|_| self.sweep()).sum::<f64>());
        black_box(acc);
        time.cpu
    }
}

/// `cpu_s` scaled to the reference machine, given the CPU seconds
/// `reference_s` a pass took next to it.
pub fn calibrate(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * REFERENCE_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat_and_scale() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.sweep().to_bits(), b.sweep().to_bits());
        assert!(a.time() > 0.0);
        assert_eq!(calibrate(0.5, 2e-3), 0.25);
        assert_eq!(calibrate(0.5, REFERENCE_S), 0.5);
    }
}
