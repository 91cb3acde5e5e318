//! The analytical performance model.
//!
//! Execution charges abstract *cycles* per event. Events inside a
//! statically-vectorizable counted loop are buffered in a [`LoopCtx`]; when
//! the loop finishes, the context decides whether the loop actually
//! vectorized (no conversions, no non-inlined calls observed at runtime)
//! and folds the buffered cost into the per-procedure timers at SIMD or
//! scalar rates.
//!
//! Rates are calibrated to the hardware story of the paper (AVX-class CPUs):
//! a vectorized f32 loop runs at twice the throughput of the same loop in
//! f64 (half the lanes *and* half the memory traffic), a scalar loop is
//! precision-insensitive for compute but still pays double memory traffic
//! in f64, conversions cost real instructions, and a wrapper on a call
//! boundary both adds call overhead and blocks vectorization of the
//! enclosing loop. `MPI_ALLREDUCE` is a fixed latency independent of
//! precision (reference \[41\] in the paper: vendor implementations do not vectorize).

use prose_fortran::ast::FpPrecision;
use serde::{Deserialize, Serialize};

/// Cost-model parameters (cycles).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostParams {
    /// add/sub/mul and comparisons.
    pub op_basic: f64,
    /// Division.
    pub op_div: f64,
    /// sqrt.
    pub op_sqrt: f64,
    /// exp/log/sin/cos/tan/atan/tanh/log10.
    pub op_transcendental: f64,
    /// `**` with a non-integer exponent.
    pub op_pow: f64,
    /// Integer ALU op.
    pub op_int: f64,
    /// Array element read, per f64 element (f32 costs half).
    pub mem_f64: f64,
    /// Precision conversion instruction (scalar).
    pub cast: f64,
    /// Non-inlined call overhead (frame, spill, branch).
    pub call_overhead: f64,
    /// Fixed latency of an `mpi_allreduce_*` collective.
    pub allreduce: f64,
    /// GPTL-style timer read at procedure entry+exit.
    pub timer_overhead: f64,
    /// Per-iteration loop control (increment + branch).
    pub loop_control: f64,
    /// SIMD lanes for f64 in a vectorized loop (divisor on op+mem cost).
    pub lanes_f64: f64,
    /// SIMD lanes for f32.
    pub lanes_f32: f64,
    /// Inlining threshold: callee statement count.
    pub inline_max_stmts: usize,
    /// Scalar f32 discount on expensive op classes (div/sqrt/
    /// transcendental/pow): on real CPUs `divss`/`sqrtss`/`sinf` are
    /// faster than their double cousins even without SIMD — the source of
    /// funarc's uniform-32 speedup in Figure 2.
    pub narrow_scalar_factor: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            op_basic: 1.0,
            op_div: 4.0,
            op_sqrt: 6.0,
            op_transcendental: 12.0,
            op_pow: 15.0,
            op_int: 0.25,
            mem_f64: 0.5,
            cast: 3.0,
            call_overhead: 20.0,
            allreduce: 400.0,
            timer_overhead: 2.0,
            loop_control: 1.0,
            lanes_f64: 4.0,
            lanes_f32: 8.0,
            inline_max_stmts: 16,
            narrow_scalar_factor: 0.6,
        }
    }
}

/// Classes of chargeable operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Basic,
    Div,
    Sqrt,
    Transcendental,
    Pow,
    Int,
}

impl CostParams {
    pub fn op_cost(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Basic => self.op_basic,
            OpClass::Div => self.op_div,
            OpClass::Sqrt => self.op_sqrt,
            OpClass::Transcendental => self.op_transcendental,
            OpClass::Pow => self.op_pow,
            OpClass::Int => self.op_int,
        }
    }

    /// Op cost adjusted for precision: expensive op classes run faster in
    /// f32 even in scalar code.
    pub fn op_cost_at(&self, class: OpClass, p: FpPrecision) -> f64 {
        let base = self.op_cost(class);
        match (p, class) {
            (
                FpPrecision::Single,
                OpClass::Div | OpClass::Sqrt | OpClass::Transcendental | OpClass::Pow,
            ) => base * self.narrow_scalar_factor,
            _ => base,
        }
    }

    pub fn lanes(&self, p: FpPrecision) -> f64 {
        match p {
            FpPrecision::Single => self.lanes_f32,
            FpPrecision::Double => self.lanes_f64,
        }
    }

    /// Memory cost of one element access at the given precision.
    pub fn mem_cost(&self, p: FpPrecision) -> f64 {
        match p {
            FpPrecision::Single => self.mem_f64 * 0.5,
            FpPrecision::Double => self.mem_f64,
        }
    }
}

/// Cost buffered inside a candidate-vectorizable loop, bucketed by the
/// procedure it should be attributed to and by precision (so a vectorized
/// loop can discount f32 work at f32 lanes and f64 work at f64 lanes).
#[derive(Debug, Default, Clone)]
pub struct LoopBucket {
    /// Cost of f32-tagged ops and memory traffic.
    pub f32_cost: f64,
    /// Cost of f64-tagged (and integer) ops and memory traffic.
    pub f64_cost: f64,
}

/// Dynamic state of one executing candidate-vectorizable loop.
#[derive(Debug, Default)]
pub struct LoopCtx {
    /// (proc id, bucket) — tiny vec: loops touch few procedures.
    pub buckets: Vec<(usize, LoopBucket)>,
    /// A precision conversion happened inside the loop → scalar.
    pub saw_cast: bool,
    /// A non-inlined call happened inside the loop → scalar.
    pub saw_call: bool,
}

impl LoopCtx {
    pub fn bucket(&mut self, proc: usize) -> &mut LoopBucket {
        if let Some(pos) = self.buckets.iter().position(|(p, _)| *p == proc) {
            return &mut self.buckets[pos].1;
        }
        self.buckets.push((proc, LoopBucket::default()));
        &mut self.buckets.last_mut().unwrap().1
    }

    /// Did the loop stay vectorizable at runtime?
    pub fn vectorized(&self) -> bool {
        !self.saw_cast && !self.saw_call
    }

    /// Fold the buffered cost into the per-procedure cycles and the total,
    /// bucket by bucket, leaving the context empty for reuse (the bucket
    /// vector keeps its capacity). Returns whether the loop vectorized.
    pub fn fold(&mut self, params: &CostParams, proc_cycles: &mut [f64], total: &mut f64) -> bool {
        let vectorized = self.vectorized();
        for (proc, b) in self.buckets.drain(..) {
            let cost = if vectorized {
                b.f32_cost / params.lanes_f32 + b.f64_cost / params.lanes_f64
            } else {
                b.f32_cost + b.f64_cost
            };
            proc_cycles[proc] += cost;
            *total += cost;
        }
        (self.saw_cast, self.saw_call) = (false, false);
        vectorized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `ctx` into fresh per-procedure cycles for procedures `0..4`.
    fn folded(ctx: &mut LoopCtx, p: &CostParams) -> (Vec<f64>, bool) {
        let (mut cycles, mut total) = (vec![0.0; 4], 0.0);
        let vectorized = ctx.fold(p, &mut cycles, &mut total);
        assert_eq!(total, cycles.iter().sum::<f64>());
        (cycles, vectorized)
    }

    #[test]
    fn default_params_make_f32_vector_loops_twice_as_fast() {
        let p = CostParams::default();
        // Same op mix, all-f32 vs all-f64, vectorized.
        let mut c32 = LoopCtx::default();
        c32.bucket(0).f32_cost = 100.0;
        let mut c64 = LoopCtx::default();
        c64.bucket(0).f64_cost = 100.0;
        let (f32_folded, v1) = folded(&mut c32, &p);
        let (f64_folded, v2) = folded(&mut c64, &p);
        assert!(v1 && v2);
        assert!((f64_folded[0] / f32_folded[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cast_demotes_loop_to_scalar_cost() {
        let p = CostParams::default();
        let mut ctx = LoopCtx::default();
        ctx.bucket(0).f64_cost = 100.0;
        ctx.saw_cast = true;
        let (cycles, vectorized) = folded(&mut ctx, &p);
        assert!(!vectorized);
        assert_eq!(cycles[0], 100.0);
    }

    #[test]
    fn noninlined_call_demotes_loop() {
        let p = CostParams::default();
        let mut ctx = LoopCtx::default();
        ctx.bucket(3).f32_cost = 80.0;
        ctx.saw_call = true;
        let (cycles, vectorized) = folded(&mut ctx, &p);
        assert!(!vectorized);
        assert_eq!(cycles, [0.0, 0.0, 0.0, 80.0]);
        // Folding empties the context for reuse.
        assert!(ctx.buckets.is_empty() && ctx.vectorized());
    }

    #[test]
    fn buckets_attribute_per_procedure() {
        let p = CostParams::default();
        let mut ctx = LoopCtx::default();
        ctx.bucket(0).f64_cost = 40.0;
        ctx.bucket(1).f64_cost = 8.0;
        ctx.bucket(0).f64_cost += 4.0;
        let (cycles, _) = folded(&mut ctx, &p);
        assert_eq!(cycles, [11.0, 2.0, 0.0, 0.0]); // (40+4)/4 lanes
    }

    #[test]
    fn mem_cost_halves_for_f32() {
        let p = CostParams::default();
        assert_eq!(
            p.mem_cost(FpPrecision::Single) * 2.0,
            p.mem_cost(FpPrecision::Double)
        );
    }

    #[test]
    fn monotone_adding_cast_cost_never_decreases_time() {
        // Scalar context: cast adds cost directly. Vector context: cast both
        // adds cost and demotes — strictly worse. Sanity-check the latter.
        let p = CostParams::default();
        let mut without = LoopCtx::default();
        without.bucket(0).f64_cost = 100.0;
        let (w, _) = folded(&mut without, &p);
        let mut with = LoopCtx::default();
        with.bucket(0).f64_cost = 100.0 + p.cast;
        with.saw_cast = true;
        let (c, _) = folded(&mut with, &p);
        assert!(c[0] > w[0]);
    }
}
