//! The host yardstick: a fixed slice of work whose duration measures how
//! fast this host is *right now*.
//!
//! The sandbox's speed moves by ±10 % for seconds to minutes at a time
//! (neighbours on the same memory system), and the engine's throughput moves
//! with it. The slice is built to feel the same weather: one thread reads
//! rows scattered over a 64 MiB buffer and accumulates a plain scalar f32 L2
//! distance over each — the access pattern of a list scan. Measured against
//! the alternatives while this benchmark was written, it tracked the
//! engine's run-to-run throughput with an elasticity of ≈ 0.8–0.9
//! (correlation 0.8); a cache-resident ALU loop moved 5× less than the
//! engine, a streaming loop 2× less, and a two-thread slice mostly measured
//! where the scheduler put its two threads (see README.md).
//!
//! The loop is written here and calls nothing from `harmony_index`, so no
//! change to the engine can move the yardstick.

use std::time::Instant;

/// 16 Mi f32 = 64 MiB: beyond every cache level the sandbox owns.
const BUF_FLOATS: usize = 16 << 20;
const ROW: usize = 128;
/// Rows per slice; with the buffer size this fixes the slice's work
/// (≈ 20–25 ms on the sandbox). Never change either: `CAL_REF_MS` depends
/// on them.
const ROWS_PER_SLICE: usize = 100_000;

pub struct Calibrator {
    buf: Vec<f32>,
}

impl Calibrator {
    pub fn new() -> Self {
        // Any non-trivial contents do; the values never depend on the seed.
        let buf = (0..BUF_FLOATS)
            .map(|i| (i % 251) as f32 * 0.004 - 0.5)
            .collect();
        Self { buf }
    }

    /// Runs one calibration slice and returns its wall time in ms. Every
    /// slice visits the same rows in the same order.
    pub fn slice_ms(&self) -> f64 {
        let t0 = Instant::now();
        let rows = (self.buf.len() / ROW) as u32;
        let mut acc = [0.0f32; 8];
        let mut state = 12_345u32;
        for _ in 0..ROWS_PER_SLICE {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let start = ((state >> 8) % rows) as usize * ROW;
            for chunk in self.buf[start..start + ROW].chunks_exact(8) {
                for (a, &x) in acc.iter_mut().zip(chunk) {
                    let d = x - 0.25;
                    *a += d * d;
                }
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }
}
