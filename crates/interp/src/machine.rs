//! The execution engine: one dispatch loop over the flat instruction stream
//! [`crate::compile`] produces, computing real mixed-precision values while
//! charging the cost model.
//!
//! State is flat and reused across the run: a value stack whose entries
//! carry their fp64 shadow, one slot stack holding the globals and then a
//! frame per call (pending, active, or awaiting copy-out), and an array
//! arena whose entries are shared by index and reference-counted per slot.
//! A call is ordinary control flow: `CallBegin` pushes the callee's frame,
//! the caller's code binds the arguments into it, `CallEnter` jumps to the
//! callee, `Leave` returns, the caller's code copies scalars back, and
//! `CallDone` retires the frame. The same loop serves normal, shadow,
//! deadline, and fault-injected runs.
//!
//! Semantics notes (documented substitutions for full Fortran):
//!
//! * Scalars and arrays are zero-initialized (the `-init=zero` compiler
//!   behaviour); model sources still initialize explicitly.
//! * Scalar arguments use copy-in/copy-out (a standard-conforming argument
//!   association); arrays are associated by reference and adopt the
//!   actual's bounds.
//! * A precision-mismatched argument association is a runtime error — in
//!   real Fortran it would not compile, and the transformer's wrappers
//!   guarantee it never happens for generated variants.
//! * Any non-finite FP result aborts the run (the model-crash analog the
//!   paper reports as "runtime error" variants), as does `stop` with a
//!   non-zero code.
//! * Integer arithmetic wraps on overflow (`**` included); integer division
//!   or `mod` by zero is an error.

use crate::compile::{Code, Op, Opnd, Sr, StoreMode, Subs, FAIL_MSGS, NONE, NO_LINE};
use crate::cost::{CostParams, LoopCtx, OpClass};
use crate::ir::{IntrinsicFn, ProgramIR, STy, SlotDecl};
use crate::shadow::{
    shadow_rel, CancellationEvent, NonFiniteOrigin, ShadowReport, ShadowState, VarErr, VarShadow,
    CANCEL_DIVERGENCE, CANCEL_LOST_BITS,
};
use crate::timers::Timers;
use crate::value::{ArrayData, ArrayVal, V};
use prose_fortran::ast::{BinOp, FpPrecision};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregate operation counters for one run. Pure observability: the
/// counters never feed back into the cost model, they exist so the trial
/// journal can explain *where* a variant's simulated cycles came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounts {
    /// FP arithmetic charged at single precision.
    pub fp32_ops: u64,
    /// FP arithmetic charged at double precision.
    pub fp64_ops: u64,
    /// Array/memory traffic charges.
    pub mem_ops: u64,
    /// Scalar precision conversions (vectorizable `vcvt` kind).
    pub casts: u64,
    /// Converting stores — the kind that demotes a loop to scalar cost.
    pub cast_stores: u64,
    /// Non-inlined procedure calls that paid call + timer overhead.
    pub timed_calls: u64,
    /// Loop-control charges (`do` / `do while` iterations).
    pub loop_iters: u64,
    /// `MPI_ALLREDUCE` collectives.
    pub allreduces: u64,
}

impl OpCounts {
    /// Total counted events (not cycles — see [`crate::cost`] for those).
    pub fn total(&self) -> u64 {
        self.fp32_ops
            + self.fp64_ops
            + self.mem_ops
            + self.casts
            + self.cast_stores
            + self.timed_calls
            + self.loop_iters
            + self.allreduces
    }
}

/// Why a run aborted.
///
/// `proc` fields are interned: they share the lowered IR's procedure-name
/// `Arc<str>`s instead of allocating a fresh `String` per error.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A floating-point operation produced NaN/Inf.
    NonFinite { proc: Arc<str>, line: u32 },
    /// `stop <code>` with a non-zero code (model guard tripped).
    Stop { code: i64 },
    /// Simulated time exceeded the budget (3× baseline in searches).
    Timeout { budget: f64 },
    /// Wall-clock deadline exceeded ([`crate::run::RunConfig::deadline`]).
    /// Unlike [`RunError::Timeout`] this is real elapsed time, not modeled
    /// cycles: it is the only thing that can kill a stalled event loop.
    Deadline { ms: u64 },
    /// Event-count safety valve tripped (runaway loop).
    EventLimit,
    /// Array subscript out of bounds.
    OutOfBounds { proc: Arc<str>, line: u32 },
    /// Use of an unallocated allocatable.
    Unallocated { proc: Arc<str>, line: u32 },
    /// Type/kind/shape violation (e.g. mismatched argument association).
    Invalid {
        proc: Arc<str>,
        line: u32,
        msg: String,
    },
    /// Integer division by zero.
    DivByZero { proc: Arc<str>, line: u32 },
    /// Lowering failed (malformed program).
    Lower(String),
    /// Call stack exceeded the recursion guard.
    StackOverflow,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NonFinite { proc, line } => {
                write!(f, "non-finite FP result in `{proc}` at line {line}")
            }
            RunError::Stop { code } => write!(f, "stop {code}"),
            RunError::Timeout { budget } => write!(f, "timeout (budget {budget} cycles)"),
            RunError::Deadline { ms } => write!(f, "wall-clock deadline exceeded ({ms} ms)"),
            RunError::EventLimit => write!(f, "event limit exceeded"),
            RunError::OutOfBounds { proc, line } => {
                write!(f, "subscript out of bounds in `{proc}` at line {line}")
            }
            RunError::Unallocated { proc, line } => {
                write!(f, "unallocated array used in `{proc}` at line {line}")
            }
            RunError::Invalid { proc, line, msg } => {
                write!(f, "invalid operation in `{proc}` at line {line}: {msg}")
            }
            RunError::DivByZero { proc, line } => {
                write!(f, "integer division by zero in `{proc}` at line {line}")
            }
            RunError::Lower(msg) => write!(f, "lowering failed: {msg}"),
            RunError::StackOverflow => write!(f, "call stack exceeded recursion guard"),
        }
    }
}

impl std::error::Error for RunError {}

/// Output recorded by `prose_record*` plus captured `print` lines.
///
/// `PartialEq` is bitwise on the recorded floats — the comparison the
/// fast-path cross-check uses to assert the two variant paths agree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecords {
    pub scalars: BTreeMap<String, Vec<f64>>,
    pub arrays: BTreeMap<String, Vec<Vec<f64>>>,
    pub stdout: Vec<String>,
}

/// A value-stack entry: a value and its fp64 shadow (meaningful only under
/// shadow execution).
#[derive(Debug, Clone, Copy)]
struct E {
    v: V,
    sh: f64,
}

impl E {
    fn new(v: V, sh: f64) -> E {
        E { v, sh }
    }
}

/// One call: bound but not entered (`pend`), executing (`calls`), or
/// returned with its frame kept for copy-out (`done`).
#[derive(Debug, Clone, Copy, Default)]
struct Act {
    proc: u32,
    base: u32,
    ret: u32,
    caller_base: u32,
    caller_proc: u32,
    halt: bool,
}

pub(crate) struct Machine<'a> {
    ir: &'a ProgramIR,
    code: &'a Code,
    params: CostParams,
    /// `params.op_cost_at` by [`OpClass`] and precision (single, double).
    op_cost: [[f64; 2]; 6],
    /// Global slots, then one frame per pending or active call.
    slots: Vec<V>,
    /// fp64 shadow per slot; empty unless shadow execution is on.
    sh: Vec<f64>,
    stack: Vec<E>,
    /// Array arena: slots hold indices; `refs` counts the slots holding
    /// each live array (argument association aliases).
    arrays: Vec<ArrayVal>,
    refs: Vec<u32>,
    free: Vec<u32>,
    pend: Vec<Act>,
    calls: Vec<Act>,
    done: Vec<Act>,
    /// Frame base of the code now executing.
    base: usize,
    /// Procedure charged for cost (the caller while a callee's prologue
    /// runs; `main` before any procedure is active).
    cur_proc: usize,
    /// Active procedures; errors name `@init` at depth 0.
    depth: usize,
    /// Source line of the statement most recently started (diagnostics).
    cur_line: u32,
    pub records: RunRecords,
    /// Exclusive cycles per procedure id (folded into [`Timers`] at the end).
    proc_cycles: Vec<f64>,
    proc_calls: Vec<u64>,
    total: f64,
    loop_stack: Vec<LoopCtx>,
    /// Emptied contexts of finished loops, reused by the next loop entry.
    spare_loops: Vec<LoopCtx>,
    pub budget: f64,
    pub max_events: u64,
    pub events: u64,
    ops: OpCounts,
    /// Fault-injection plan for this run ([`prose_faults`]); `None` in
    /// normal operation.
    pub fault: Option<prose_faults::InjectedFault>,
    fault_at: u64,
    /// Wall-clock instant after which the run aborts with
    /// [`RunError::Deadline`]. Checked cooperatively every
    /// [`DEADLINE_CHECK_INTERVAL`] events; the check reads the clock and
    /// changes nothing unless it fires, so modeled cycles, numerics, and
    /// event counts are bit-identical whether or not a deadline is armed.
    pub deadline_at: Option<std::time::Instant>,
    /// Configured deadline in milliseconds (diagnostics only).
    pub deadline_ms: u64,
    sh_on: bool,
    shadow: Option<Box<ShadowState>>,
    /// Dense shadow-stat index of each procedure's slot 0 (globals first).
    var_base: Vec<usize>,
}

/// Events between cooperative wall-clock deadline checks (power of two:
/// the check divides into `bump_event` with a mask). Coarse enough that
/// an un-armed run never pays a clock read per event; fine enough that a
/// deadline is noticed within microseconds of real work.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// Engine-internal result: the error is boxed so the hot `Ok` path stays
/// register-sized.
type R<T> = Result<T, Box<RunError>>;

impl<'a> Machine<'a> {
    pub(crate) fn new(
        ir: &'a ProgramIR,
        code: &'a Code,
        params: CostParams,
        budget: f64,
        max_events: u64,
    ) -> Self {
        let nprocs = ir.procs.len();
        let classes = [
            OpClass::Basic,
            OpClass::Div,
            OpClass::Sqrt,
            OpClass::Transcendental,
            OpClass::Pow,
            OpClass::Int,
        ];
        let op_cost = classes
            .map(|c| [FpPrecision::Single, FpPrecision::Double].map(|p| params.op_cost_at(c, p)));
        Machine {
            ir,
            code,
            params,
            op_cost,
            slots: Vec::new(),
            sh: Vec::new(),
            stack: Vec::with_capacity(64),
            arrays: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            pend: Vec::new(),
            calls: Vec::new(),
            done: Vec::new(),
            base: 0,
            cur_proc: ir.main_proc,
            depth: 0,
            cur_line: 0,
            records: RunRecords::default(),
            proc_cycles: vec![0.0; nprocs],
            proc_calls: vec![0; nprocs],
            total: 0.0,
            loop_stack: Vec::new(),
            spare_loops: Vec::new(),
            budget,
            max_events,
            events: 0,
            ops: OpCounts::default(),
            fault: None,
            fault_at: u64::MAX,
            deadline_at: None,
            deadline_ms: 0,
            sh_on: false,
            shadow: None,
            var_base: Vec::new(),
        }
    }

    /// Turn on shadow execution. Must be called before [`Machine::run`].
    pub fn enable_shadow(&mut self) {
        let mut next = self.ir.globals.len();
        self.var_base = (self.ir.procs.iter())
            .map(|p| {
                next += p.slots.len();
                next - p.slots.len()
            })
            .collect();
        self.sh_on = true;
        self.shadow = Some(Box::new(ShadowState {
            vars: vec![VarErr::default(); next],
            ..ShadowState::default()
        }));
    }

    /// Initialize globals and execute the main program.
    pub fn run(&mut self) -> Result<(), RunError> {
        self.slots = self.code.globals.clone();
        if self.sh_on {
            self.sh = vec![0.0; self.slots.len()];
        }
        self.base = self.slots.len();
        self.fault_at = self.fault.as_ref().map_or(u64::MAX, |f| f.after_events());
        let result = match self.exec() {
            Ok(()) => Ok(()),
            Err(e) => {
                // Unwinding folds the cost buffered by every open loop.
                while !self.loop_stack.is_empty() {
                    self.fold_top_loop();
                }
                match *e {
                    // `stop` / `stop 0` unwinds as a sentinel: clean termination.
                    RunError::Stop { code: 0 } => Ok(()),
                    e => Err(e),
                }
            }
        };
        // A planned fault whose event threshold exceeded the run length
        // still fires — at termination — so injection is deterministic
        // regardless of variant size.
        if result.is_ok() && self.fault.is_some() {
            return Err(self.fire_fault());
        }
        result
    }

    /// Abort the run with the armed injected fault.
    /// [`prose_faults::InjectedFault::Abort`] does not return: it panics
    /// with an [`prose_faults::InjectedAbort`] payload for the evaluator's
    /// `catch_unwind` containment to classify.
    #[cold]
    fn fire_fault(&mut self) -> RunError {
        self.fault_at = u64::MAX;
        match self.fault.take().expect("fire_fault with no fault armed") {
            prose_faults::InjectedFault::NonFinite { .. } => {
                // Provenance: this NaN never traversed real arithmetic —
                // attribute it to the injection, not to the variant.
                let proc = self.name();
                let line = self.cur_line;
                self.note_nonfinite("injected", &proc, line, true);
                RunError::NonFinite { proc, line }
            }
            prose_faults::InjectedFault::Timeout { .. } => RunError::Timeout {
                budget: self.budget,
            },
            prose_faults::InjectedFault::Abort { after_events } => {
                std::panic::panic_any(prose_faults::InjectedAbort {
                    after_events: after_events.min(self.events),
                })
            }
            prose_faults::InjectedFault::Hang { .. } => self.stall(),
        }
    }

    /// Simulate a hung event loop: burn wall-clock time without advancing
    /// any modeled state. No budget or event limit applies here — by
    /// design, only an armed wall-clock deadline terminates the stall.
    fn stall(&mut self) -> RunError {
        loop {
            if let Some(at) = self.deadline_at {
                if std::time::Instant::now() >= at {
                    return RunError::Deadline {
                        ms: self.deadline_ms,
                    };
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Consume the machine, producing the timer table, records, and
    /// operation counters.
    pub fn finish(self) -> (Timers, RunRecords, f64, u64, OpCounts) {
        let mut timers = Timers::new();
        for (i, proc) in self.ir.procs.iter().enumerate() {
            if self.proc_calls[i] > 0 || self.proc_cycles[i] > 0.0 {
                timers.charge(&proc.name, self.proc_cycles[i]);
                timers.add_calls(&proc.name, self.proc_calls[i]);
            }
        }
        (timers, self.records, self.total, self.events, self.ops)
    }

    // ---- the dispatch loop -----------------------------------------------

    fn exec(&mut self) -> R<()> {
        let code = self.code;
        let mut pc = code.boot as usize;
        loop {
            let op = code.ops[pc];
            pc += 1;
            match op {
                Op::Stmt(line) => {
                    self.bump_event()?;
                    if line != NO_LINE {
                        self.cur_line = line;
                    }
                }
                Op::Lit(x) => self.push(V::Lit(x), x),
                Op::Int(i) => self.push(V::Int(i), i as f64),
                Op::Bool(b) => self.push(V::Bool(b), f64::from(u8::from(b))),
                Op::Str(s) => self.push(V::Str(s), 0.0),
                Op::Load(s) => {
                    let v = self.load(s)?;
                    self.stack.push(v);
                }
                Op::Elem(slot, subs) => self.load_elem(slot, subs)?,
                Op::Bin(op, lhs, rhs) => {
                    let b = match rhs {
                        Opnd::Stack => self.pop(),
                        Opnd::Slot(s) => self.load(s)?,
                        Opnd::Lit(x) => E::new(V::Lit(x), x),
                        Opnd::Int(i) => E::new(V::Int(i), i as f64),
                    };
                    let a = match lhs {
                        Sr::STACK => self.pop(),
                        s => self.load(s)?,
                    };
                    // Arithmetic whose promotion is free: same FP precision,
                    // one side a kind-generic literal, or integer add, sub
                    // and mul (which wrap).
                    let r = match (a.v, b.v) {
                        (V::F64(x), V::F64(y) | V::Lit(y)) | (V::Lit(x), V::F64(y))
                            if op.is_arithmetic() =>
                        {
                            self.charge_op(op_class(op), FpPrecision::Double);
                            self.finite(V::F64(apply_f64(op, x, y)), 0, "arith")?
                        }
                        (V::F32(x), V::F32(y)) if op.is_arithmetic() => {
                            self.charge_op(op_class(op), FpPrecision::Single);
                            self.finite(V::F32(apply_f32(op, x, y)), 0, "arith")?
                        }
                        (V::Int(x), V::Int(y))
                            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
                        {
                            self.charge_plain(self.params.op_int);
                            V::Int(match op {
                                BinOp::Add => x.wrapping_add(y),
                                BinOp::Sub => x.wrapping_sub(y),
                                _ => x.wrapping_mul(y),
                            })
                        }
                        (x, y) => self.binop(op, x, y)?,
                    };
                    let sh = self.sh_on.then(|| self.shadow_bin(op, a, b, r));
                    self.push(r, sh.unwrap_or(0.0));
                }
                Op::Neg => {
                    let a = self.pop();
                    let v = match a.v {
                        V::Int(i) => {
                            self.charge_plain(self.params.op_int);
                            self.push(V::Int(i.wrapping_neg()), -(i as f64));
                            continue;
                        }
                        V::Lit(x) => V::Lit(-x),
                        V::F32(x) => {
                            self.charge_op(OpClass::Basic, FpPrecision::Single);
                            V::F32(-x)
                        }
                        V::F64(x) => {
                            self.charge_op(OpClass::Basic, FpPrecision::Double);
                            V::F64(-x)
                        }
                        other => return Err(self.invalid(0, format!("negation of {other:?}"))),
                    };
                    self.push(v, -a.sh);
                }
                Op::Not => match self.pop().v {
                    V::Bool(b) => self.push(V::Bool(!b), f64::from(u8::from(!b))),
                    _ => return Err(self.invalid(0, ".not. of non-logical")),
                },
                Op::Intr(f, n) => {
                    let base = self.stack.len() - n as usize;
                    let r = self.intrinsic(f, base)?;
                    self.stack.truncate(base);
                    self.stack.push(r);
                }
                Op::CheckArr(s) => {
                    self.arr(s, 0)?;
                }
                Op::SizeOf(slot, dim) => {
                    let d = if dim { Some(self.pop().v) } else { None };
                    let di = d.map(|d| self.to_int(d, 0)).transpose()?;
                    let a = &self.arrays[self.arr(slot, 0)?];
                    let n = match di {
                        Some(d) if d < 1 || d as usize > a.rank() => {
                            return Err(self.invalid(0, "size() dim out of range"))
                        }
                        Some(d) => a.extent(d as usize),
                        None => a.len() as i64,
                    };
                    self.push(V::Int(n), n as f64);
                }
                Op::Reduce(f, slot) => self.reduce(f, slot)?,
                Op::SetScalar(slot, ty, line, charged) => {
                    let e = self.pop();
                    let v = match charged {
                        true => self.convert(ty, e.v, line)?,
                        false => self.convert_plain(ty, e.v, line)?,
                    };
                    let i = self.at(slot);
                    self.slots[i] = v;
                    if self.sh_on {
                        self.store_sh(slot, i, e.sh);
                    }
                }
                Op::SetElem(slot, subs, line, mode) => self.store_elem(slot, subs, line, mode)?,
                Op::Broadcast(slot, line) => self.broadcast(slot, line)?,
                Op::ArrCopy(dst, src, line) => self.array_copy(dst, src, line)?,
                Op::Branch(to, line) => {
                    let c = self.pop();
                    self.charge_plain(self.params.op_int);
                    match c.v {
                        V::Bool(true) => {}
                        V::Bool(false) => pc = to as usize,
                        _ => return Err(self.invalid(line, "non-logical condition")),
                    }
                }
                Op::Jump(to) => pc = to as usize,
                Op::DoInit(var, hid, step, vect, exit, line) => {
                    let base = self.stack.len() - 2 - usize::from(step);
                    let s0 = self.to_int(self.stack[base].v, line)?;
                    let e0 = self.to_int(self.stack[base + 1].v, line)?;
                    let st = match step {
                        true => self.to_int(self.stack[base + 2].v, line)?,
                        false => 1,
                    };
                    self.stack.truncate(base);
                    if st == 0 {
                        return Err(self.invalid(line, "zero do-loop step"));
                    }
                    if vect {
                        let ctx = self.spare_loops.pop().unwrap_or_default();
                        self.loop_stack.push(ctx);
                    }
                    let h = self.base + hid as usize;
                    self.slots[h..h + 3].copy_from_slice(&[V::Int(s0), V::Int(e0), V::Int(st)]);
                    if !self.do_trip(var, h, false)? {
                        pc = exit as usize;
                    }
                }
                Op::DoNext(var, hid, top) => {
                    if self.do_trip(var, self.base + hid as usize, true)? {
                        pc = top as usize;
                    }
                }
                Op::DoEnd(vect) => {
                    if vect {
                        self.fold_top_loop();
                    }
                    self.check_budget()?;
                }
                Op::WhileTest(exit, line) => {
                    let c = self.pop();
                    self.ops.loop_iters += 1;
                    self.charge_plain(self.params.loop_control);
                    self.bump_event()?;
                    match c.v {
                        V::Bool(true) => {}
                        V::Bool(false) => pc = exit as usize,
                        _ => return Err(self.invalid(line, "non-logical condition")),
                    }
                }
                Op::Budget => self.check_budget()?,
                Op::CallBegin(proc) => self.call_begin(proc as usize)?,
                Op::BindVal(dst) => {
                    let e = self.pop();
                    let act = *self.pend.last().expect("a bound call");
                    let ir = self.ir;
                    let decl = &ir.procs[act.proc as usize].slots[dst as usize];
                    let v = self.convert_arg(decl, e.v, 0)?;
                    let i = act.base as usize + dst as usize;
                    self.slots[i] = v;
                    if self.sh_on {
                        self.sh[i] = e.sh;
                    }
                }
                Op::BindArr(src, dst) => self.bind_array(src, dst as usize)?,
                Op::CallEnter => {
                    let mut act = self.pend.pop().expect("a bound call");
                    act.ret = pc as u32;
                    act.caller_base = self.base as u32;
                    act.caller_proc = self.cur_proc as u32;
                    self.base = act.base as usize;
                    pc = code.entry[act.proc as usize] as usize;
                    self.calls.push(act);
                }
                Op::Enter => {
                    self.cur_proc = self.calls.last().expect("an active call").proc as usize;
                    self.depth += 1;
                }
                Op::Leave(halt) => {
                    let mut act = self.calls.pop().expect("an active call");
                    act.halt = halt;
                    self.depth -= 1;
                    self.cur_proc = act.caller_proc as usize;
                    self.base = act.caller_base as usize;
                    pc = act.ret as usize;
                    self.done.push(act);
                }
                Op::WbLoad(src) => {
                    let i = self.done.last().expect("a returned call").base as usize + src as usize;
                    let v = self.frame_scalar(i, "writeback of non-scalar")?;
                    self.stack.push(v);
                }
                Op::CallDone(result) => {
                    let act = self.done.pop().expect("a returned call");
                    if act.halt {
                        return Err(Box::new(RunError::Stop { code: 0 }));
                    }
                    let base = act.base as usize;
                    if result != NONE {
                        let i = base + result as usize;
                        let v = self.frame_scalar(i, "function result is not scalar")?;
                        self.stack.push(v);
                    }
                    self.drop_frame(base);
                }
                Op::MakeArr(proc, slot, n) => {
                    let bounds = self.pop_bounds(n as usize, 0)?;
                    let decl = self.decl(proc, slot);
                    let a = self.make_array(decl, bounds, 0)?;
                    let i = self.at(slot);
                    self.set_array(i, Some(a));
                }
                Op::Init(proc, slot) => {
                    let e = self.pop();
                    let v = self.convert_arg(self.decl(proc, slot), e.v, 0)?;
                    let i = self.at(slot);
                    self.slots[i] = v;
                    match (self.sh_on, slot.global()) {
                        (true, true) => self.store_sh(slot, i, e.sh),
                        (true, false) => self.sh[i] = e.sh,
                        _ => {}
                    }
                }
                Op::Alloc(slot, n, line) => {
                    let bounds = self.pop_bounds(n as usize, line)?;
                    let decl = self.decl(self.cur_proc as u32, slot);
                    let a = self.make_array(decl, bounds, line)?;
                    let i = self.at(slot);
                    self.set_array(i, Some(a));
                }
                Op::Dealloc(s) => {
                    let i = self.at(s);
                    self.set_array(i, None);
                }
                Op::Record(key, line) => self.record(key, line)?,
                Op::RecordArr(key, slot, line) => self.record_array(key, slot, line)?,
                Op::Collective => {
                    // One logical rank: the collective is the identity on
                    // the data but a fixed latency on the clock, independent
                    // of precision (vendor reductions do not vectorize, [41]).
                    self.mark_call();
                    self.ops.allreduces += 1;
                    self.charge_plain(self.params.allreduce);
                }
                Op::Print(n) => self.print(n as usize),
                Op::Stop(code) => return Err(Box::new(RunError::Stop { code })),
                Op::Fail(line, msg) => return Err(self.invalid(line, FAIL_MSGS[msg as usize])),
                Op::End => return Ok(()),
            }
        }
    }

    // ---- context helpers -------------------------------------------------

    fn name(&self) -> Arc<str> {
        match self.depth {
            0 => Arc::from("@init"),
            _ => Arc::clone(&self.ir.procs[self.cur_proc].name),
        }
    }

    /// Prefer the current statement's line for errors raised from
    /// expression contexts (which carry no spans).
    fn at_line(&self, line: u32) -> u32 {
        if line == 0 {
            self.cur_line
        } else {
            line
        }
    }

    #[cold]
    fn invalid(&self, line: u32, msg: impl Into<String>) -> Box<RunError> {
        Box::new(RunError::Invalid {
            proc: self.name(),
            line: self.at_line(line),
            msg: msg.into(),
        })
    }

    /// Declaration of `slot` in procedure `proc` (`NONE` for globals).
    fn decl(&self, proc: u32, slot: Sr) -> &'a SlotDecl {
        let ir = self.ir;
        match (slot.global(), proc) {
            (true, _) | (_, NONE) => &ir.globals[slot.idx()],
            _ => &ir.procs[proc as usize].slots[slot.idx()],
        }
    }

    #[inline]
    fn at(&self, s: Sr) -> usize {
        if s.global() {
            s.idx()
        } else {
            self.base + s.idx()
        }
    }

    #[inline]
    fn push(&mut self, v: V, sh: f64) {
        self.stack.push(E { v, sh });
    }

    #[inline]
    fn pop(&mut self) -> E {
        self.stack
            .pop()
            .expect("compiled code balances the value stack")
    }

    /// A counted loop's trip test on its hidden slots at `h`, after
    /// stepping the counter when `step`: false when the loop is done, else
    /// the counter lands in `var` and one iteration is charged.
    #[inline]
    fn do_trip(&mut self, var: Sr, h: usize, step: bool) -> R<bool> {
        let [V::Int(mut i), V::Int(e0), V::Int(st)] = self.slots[h..h + 3] else {
            unreachable!("loop control slots hold integers")
        };
        if step {
            i = i.wrapping_add(st);
            self.slots[h] = V::Int(i);
        }
        if (st > 0 && i > e0) || (st < 0 && i < e0) {
            return Ok(false);
        }
        let v = self.at(var);
        self.slots[v] = V::Int(i);
        self.ops.loop_iters += 1;
        self.charge_plain(self.params.loop_control);
        self.bump_event()?;
        Ok(true)
    }

    #[inline]
    fn to_int(&self, v: V, line: u32) -> R<i64> {
        match v {
            V::Int(i) => Ok(i),
            V::Lit(x) | V::F64(x) => Ok(x.trunc() as i64),
            V::F32(x) => Ok((x as f64).trunc() as i64),
            other => Err(self.invalid(line, format!("expected integer, got {other:?}"))),
        }
    }

    /// A scalar slot's value (the `Load` op's read).
    #[inline]
    fn scalar(&self, s: Sr) -> R<V> {
        match self.slots[self.at(s)].scalar() {
            Some(v) => Ok(v),
            None => Err(self.invalid(0, "scalar read of array or unallocated slot")),
        }
    }

    /// A scalar slot's value with its shadow.
    #[inline]
    fn load(&self, s: Sr) -> R<E> {
        Ok(E::new(self.scalar(s)?, self.load_sh(self.at(s))))
    }

    /// A scalar from an absolute slot index (copy-out, function results).
    fn frame_scalar(&self, i: usize, what: &'static str) -> R<E> {
        match self.slots[i].scalar() {
            Some(v) => Ok(E::new(v, self.load_sh(i))),
            None => Err(self.invalid(0, what)),
        }
    }

    /// `n` subscripts popped off the stack, in a fixed buffer (Fortran
    /// arrays have at most seven dimensions).
    fn subs(&mut self, n: u8, line: u32) -> R<[i64; 8]> {
        let (n, mut out) = (usize::from(n), [0; 8]);
        if n > out.len() {
            return Err(self.invalid(line, "more than 8 subscripts"));
        }
        let base = self.stack.len() - n;
        for (k, s) in out.iter_mut().enumerate().take(n) {
            *s = self.to_int(self.stack[base + k].v, line)?;
        }
        self.stack.truncate(base);
        Ok(out)
    }

    /// An element access's array and element offset. Slot subscripts are
    /// addressed in place (rank 1 or 2). Errors keep the walker's order:
    /// subscript, then array, then bounds.
    #[inline]
    fn addr(&mut self, slot: Sr, subs: Subs, line: u32) -> R<(usize, usize)> {
        let (i, j) = match subs {
            Subs::Var(a) => (self.to_int(self.scalar(a)?, line)?, None),
            Subs::Off(a, k) => {
                let i = self.to_int(self.scalar(a)?, line)?;
                self.charge_plain(self.params.op_int);
                (i.wrapping_add(i64::from(k)), None)
            }
            Subs::Vars(a, b) => {
                let (a, b) = (self.scalar(a)?, self.scalar(b)?);
                (self.to_int(a, line)?, Some(self.to_int(b, line)?))
            }
            Subs::Stack(n) => {
                let subs = self.subs(n, line)?;
                let id = self.arr(slot, line)?;
                let off = self.arrays[id].offset(&subs[..usize::from(n)]);
                return off.map(|off| (id, off)).ok_or_else(|| self.oob(line));
            }
        };
        let id = self.arr(slot, line)?;
        let off = match (&self.arrays[id].bounds[..], j) {
            (&[(lo, hi)], None) if (lo..=hi).contains(&i) => (i - lo) as usize,
            (&[(lo, hi), (lo2, hi2)], Some(j))
                if (lo..=hi).contains(&i) && (lo2..=hi2).contains(&j) =>
            {
                (i - lo) as usize + (j - lo2) as usize * (hi - lo + 1) as usize
            }
            _ => return Err(self.oob(line)),
        };
        Ok((id, off))
    }

    fn pop_bounds(&mut self, n: usize, line: u32) -> R<Vec<(i64, i64)>> {
        let base = self.stack.len() - 2 * n;
        let bounds = (0..n)
            .map(|d| {
                let lo = self.to_int(self.stack[base + 2 * d].v, line)?;
                Ok((lo, self.to_int(self.stack[base + 2 * d + 1].v, line)?))
            })
            .collect::<R<_>>()?;
        self.stack.truncate(base);
        Ok(bounds)
    }

    /// The arena index of the array in `s`.
    #[inline]
    fn arr(&self, s: Sr, line: u32) -> R<usize> {
        match self.slots[self.at(s)] {
            V::Arr(id) => Ok(id as usize),
            V::Unalloc => Err(Box::new(RunError::Unallocated {
                proc: self.name(),
                line: self.at_line(line),
            })),
            _ => Err(self.invalid(line, "expected an array")),
        }
    }

    #[cold]
    fn oob(&self, line: u32) -> Box<RunError> {
        Box::new(RunError::OutOfBounds {
            proc: self.name(),
            line: self.at_line(line),
        })
    }

    fn make_array(&self, decl: &SlotDecl, bounds: Vec<(i64, i64)>, line: u32) -> R<ArrayVal> {
        Ok(match decl.ty {
            STy::Fp(p) if self.sh_on => ArrayVal::new_fp(p, bounds).with_shadow(),
            STy::Fp(p) => ArrayVal::new_fp(p, bounds),
            STy::Int => ArrayVal::new_int(bounds),
            STy::Bool => ArrayVal::new_bool(bounds),
            STy::Str => return Err(self.invalid(line, "character arrays are not supported")),
        })
    }

    /// Point slot `i` at a new array (or at nothing), releasing the array
    /// it held.
    fn set_array(&mut self, i: usize, a: Option<ArrayVal>) {
        let v = match a {
            Some(a) => {
                let id = match self.free.pop() {
                    Some(id) => {
                        self.arrays[id as usize] = a;
                        self.refs[id as usize] = 1;
                        id
                    }
                    None => {
                        self.arrays.push(a);
                        self.refs.push(1);
                        (self.arrays.len() - 1) as u32
                    }
                };
                V::Arr(id)
            }
            None => V::Unalloc,
        };
        let old = std::mem::replace(&mut self.slots[i], v);
        self.release(old);
    }

    fn release(&mut self, v: V) {
        if let V::Arr(id) = v {
            let id = id as usize;
            self.refs[id] -= 1;
            if self.refs[id] == 0 {
                self.arrays[id] = ArrayVal::new_int(Vec::new());
                self.free.push(id as u32);
            }
        }
    }

    fn drop_frame(&mut self, base: usize) {
        while self.slots.len() > base {
            let v = self.slots.pop().expect("frame slot");
            self.release(v);
        }
        self.sh.truncate(base.min(self.sh.len()));
    }

    // ---- calls -----------------------------------------------------------

    /// Guards, accounting, and the callee's frame. Fortran procedures here
    /// are non-recursive; the depth guard turns accidental recursion into a
    /// reported error.
    fn call_begin(&mut self, proc: usize) -> R<()> {
        if self.depth > 64 {
            return Err(Box::new(RunError::StackOverflow));
        }
        self.check_budget()?;
        // The timer sees every invocation; non-inlined calls pay overhead
        // and poison enclosing vectorizable loops.
        self.proc_calls[proc] += 1;
        if !self.ir.procs[proc].inlinable && self.depth > 0 {
            self.mark_call();
            self.ops.timed_calls += 1;
            self.charge_plain(self.params.call_overhead + self.params.timer_overhead);
        }
        let base = self.slots.len();
        self.slots.extend_from_slice(&self.code.frames[proc]);
        if self.sh_on {
            self.sh.resize(self.slots.len(), 0.0);
        }
        let (proc, base) = (proc as u32, base as u32);
        self.pend.push(Act {
            proc,
            base,
            ..Act::default()
        });
        Ok(())
    }

    /// Associate a whole array with a dummy: by reference, never converting.
    fn bind_array(&mut self, src: Sr, dst: usize) -> R<()> {
        let id = self.arr(src, 0)?;
        let act = *self.pend.last().expect("a bound call");
        let decl = &self.ir.procs[act.proc as usize].slots[dst];
        match (decl.ty, self.arrays[id].data.fp_precision()) {
            (STy::Fp(dp), Some(ap)) if dp != ap => {
                return Err(self.invalid(
                    0,
                    format!(
                        "argument kind mismatch binding array to dummy `{}` \
                         (kind={} vs kind={}) — Fortran would not compile this; \
                         run the transformer to synthesize wrappers",
                        decl.name,
                        ap.kind(),
                        dp.kind()
                    ),
                ))
            }
            (STy::Int, Some(_)) | (STy::Fp(_), None) => {
                return Err(self.invalid(
                    0,
                    format!("argument type mismatch on dummy `{}`", decl.name),
                ))
            }
            _ => {}
        }
        self.refs[id] += 1;
        self.slots[act.base as usize + dst] = V::Arr(id as u32);
        Ok(())
    }

    // ---- shadow execution ------------------------------------------------
    //
    // None of these charge cycles, count ops, or bump events: shadow-on and
    // shadow-off runs are bit-identical in everything but the report.

    /// Shadow of a scalar slot: the stored fp64 shadow for FP slots, the
    /// primary widened to f64 for everything else.
    #[inline]
    fn load_sh(&self, i: usize) -> f64 {
        match self.slots[i] {
            V::F32(_) | V::F64(_) => self.sh.get(i).copied().unwrap_or(0.0),
            V::Int(x) => x as f64,
            V::Bool(b) => f64::from(u8::from(b)),
            _ => 0.0,
        }
    }

    /// After a scalar store: persist the value's shadow and fold the
    /// divergence into the variable's stats. Non-FP slots snap their
    /// shadow to the primary.
    fn store_sh(&mut self, slot: Sr, i: usize, sh: f64) {
        let (prim, fp) = match self.slots[i] {
            V::F32(x) => (f64::from(x), true),
            V::F64(x) => (x, true),
            V::Int(x) => (x as f64, false),
            V::Bool(b) => (f64::from(u8::from(b)), false),
            _ => return,
        };
        self.sh[i] = if fp { sh } else { prim };
        if fp {
            self.note_var(slot, prim, sh);
        }
    }

    fn note_var(&mut self, slot: Sr, prim: f64, sh: f64) {
        let k = match slot.global() {
            true => slot.idx(),
            false => self.var_base[self.cur_proc] + slot.idx(),
        };
        if let Some(st) = &mut self.shadow {
            st.vars[k].update(prim, sh);
        }
    }

    /// Shadow of a binary op's result; also the cancellation detector.
    fn shadow_bin(&mut self, op: BinOp, a: E, b: E, r: V) -> f64 {
        match r {
            V::Bool(x) => return f64::from(u8::from(x)),
            _ if op.is_logical() || op.is_comparison() => return 0.0,
            // Integer arithmetic: shadow snaps to the primary.
            V::Int(i) => return i as f64,
            _ => {}
        }
        let sh = apply_f64(op, a.sh, b.sh);
        // Catastrophic cancellation: only meaningful for runtime FP add/sub
        // (literal folds are compile-time and precision-independent).
        if matches!(op, BinOp::Add | BinOp::Sub) && r.prec().is_some() {
            if let (Some(x), Some(y), Some(pr)) = (a.v.as_f64(), b.v.as_f64(), r.as_f64()) {
                self.note_cancellation(x, y, pr, sh);
            }
        }
        sh
    }

    fn note_cancellation(&mut self, x: f64, y: f64, prim: f64, sh: f64) {
        let m = x.abs().max(y.abs());
        if m <= 0.0 || !prim.is_finite() {
            return;
        }
        // Exponent drop: result at least CANCEL_LOST_BITS bits below the
        // larger operand.
        if prim.abs() >= m * CANCEL_LOST_BITS.exp2().recip() {
            return;
        }
        let rel = shadow_rel(prim, sh);
        if rel < CANCEL_DIVERGENCE {
            // Benign cancellation: the shadow cancelled the same way.
            return;
        }
        let lost_bits = if prim == 0.0 {
            f64::from(f64::MANTISSA_DIGITS)
        } else {
            (m / prim.abs()).log2()
        };
        let ev = CancellationEvent {
            proc: self.name().to_string(),
            line: self.cur_line,
            lost_bits,
            rel_err: rel,
        };
        if let Some(st) = &mut self.shadow {
            st.cancellations += 1;
            let worse = (st.worst_cancellation.as_ref()).is_none_or(|w| ev.rel_err > w.rel_err);
            if worse {
                st.worst_cancellation = Some(ev);
            }
        }
    }

    /// Record provenance for the first non-finite value and build the error.
    #[cold]
    fn nonfinite_at(&mut self, line: u32, op: &'static str) -> Box<RunError> {
        let proc = self.name();
        let line = self.at_line(line);
        self.note_nonfinite(op, &proc, line, false);
        Box::new(RunError::NonFinite { proc, line })
    }

    fn note_nonfinite(&mut self, op: &str, proc: &str, line: u32, injected: bool) {
        if let Some(st) = &mut self.shadow {
            if st.nonfinite.is_none() {
                st.nonfinite = Some(NonFiniteOrigin {
                    op: op.to_string(),
                    proc: proc.to_string(),
                    line,
                    injected,
                });
            }
        }
    }

    /// Build the shadow report, resolving slot keys to display names.
    /// `None` unless shadow execution was enabled.
    pub fn shadow_report(&self) -> Option<ShadowReport> {
        let st = self.shadow.as_ref()?;
        let shadow = |name: String, e: &VarErr| VarShadow {
            name,
            max_rel: e.max_rel,
            final_rel: e.final_rel,
            stores: e.stores,
            min_primary: Some(e.min_primary),
            max_primary: Some(e.max_primary),
        };
        let ir = self.ir;
        let globals = (ir.globals.iter().enumerate()).map(|(i, g)| (i, "@global", &g.name));
        let locals = ir.procs.iter().enumerate().flat_map(|(p, proc)| {
            (proc.slots.iter().enumerate())
                .map(move |(j, s)| (self.var_base[p] + j, &*proc.name, &s.name))
        });
        let mut vars: Vec<VarShadow> = (globals.chain(locals))
            .filter(|(k, ..)| st.vars[*k].stores > 0)
            .map(|(k, scope, name)| shadow(format!("{scope}::{name}"), &st.vars[k]))
            .collect();
        vars.sort_by(|a, b| b.max_rel.total_cmp(&a.max_rel).then(a.name.cmp(&b.name)));
        let mut records: Vec<VarShadow> = (st.records.iter())
            .map(|(k, e)| shadow(k.clone(), e))
            .collect();
        records.sort_by(|a, b| b.max_rel.total_cmp(&a.max_rel).then(a.name.cmp(&b.name)));
        Some(ShadowReport {
            worst_rel: vars.first().map(|v| v.max_rel).unwrap_or(0.0),
            vars,
            records,
            cancellations: st.cancellations,
            worst_cancellation: st.worst_cancellation.clone(),
            nonfinite: st.nonfinite.clone(),
        })
    }

    // ---- cost charging ---------------------------------------------------

    /// Charge `cycles` tagged with a precision (discountable when the
    /// enclosing loop vectorizes).
    #[inline]
    fn charge_tagged(&mut self, prec: FpPrecision, cycles: f64) {
        let proc = self.cur_proc;
        if let Some(ctx) = self.loop_stack.last_mut() {
            let b = ctx.bucket(proc);
            match prec {
                FpPrecision::Single => b.f32_cost += cycles,
                FpPrecision::Double => b.f64_cost += cycles,
            }
        } else {
            self.proc_cycles[proc] += cycles;
            self.total += cycles;
        }
    }

    /// Charge untaggable (integer/control) work — discounted at f64 lanes.
    #[inline]
    fn charge_plain(&mut self, cycles: f64) {
        self.charge_tagged(FpPrecision::Double, cycles);
    }

    /// Charge a precision conversion between scalar operands. Conversion
    /// instructions vectorize (`vcvtps2pd`), so this does NOT demote the
    /// enclosing loop — it just costs (tagged f64, so it discounts at f64
    /// lanes when the loop vectorizes).
    fn charge_cast(&mut self) {
        self.ops.casts += 1;
        self.charge_tagged(FpPrecision::Double, self.params.cast);
    }

    /// Charge a converting *store* (an array element written at a different
    /// precision than its value). Mixed-width store streams are where the
    /// vectorizer gives up, so this demotes the enclosing loop — it is also
    /// what makes synthesized wrapper copy loops expensive.
    fn charge_cast_store(&mut self) {
        self.ops.cast_stores += 1;
        if let Some(ctx) = self.loop_stack.last_mut() {
            ctx.saw_cast = true;
        }
        self.charge_tagged(FpPrecision::Double, self.params.cast);
    }

    /// Mark that a non-inlined call (or other vectorization-hostile event)
    /// happened inside any enclosing loop.
    fn mark_call(&mut self) {
        if let Some(ctx) = self.loop_stack.last_mut() {
            ctx.saw_call = true;
        }
    }

    #[inline]
    fn charge_op(&mut self, class: OpClass, prec: FpPrecision) {
        match prec {
            FpPrecision::Single => self.ops.fp32_ops += 1,
            FpPrecision::Double => self.ops.fp64_ops += 1,
        }
        let cost = self.op_cost[class as usize][usize::from(prec == FpPrecision::Double)];
        self.charge_tagged(prec, cost);
    }

    #[inline]
    fn charge_mem(&mut self, prec: FpPrecision) {
        self.ops.mem_ops += 1;
        self.charge_tagged(prec, self.params.mem_cost(prec));
    }

    #[inline]
    fn bump_event(&mut self) -> R<()> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(Box::new(RunError::EventLimit));
        }
        if self.events & (DEADLINE_CHECK_INTERVAL - 1) == 0 {
            if let Some(at) = self.deadline_at {
                if std::time::Instant::now() >= at {
                    return Err(Box::new(RunError::Deadline {
                        ms: self.deadline_ms,
                    }));
                }
            }
        }
        if self.events >= self.fault_at {
            return Err(Box::new(self.fire_fault()));
        }
        Ok(())
    }

    #[inline]
    fn check_budget(&self) -> R<()> {
        if self.total > self.budget {
            return Err(Box::new(RunError::Timeout {
                budget: self.budget,
            }));
        }
        Ok(())
    }

    fn fold_top_loop(&mut self) {
        if let Some(mut ctx) = self.loop_stack.pop() {
            ctx.fold(&self.params, &mut self.proc_cycles, &mut self.total);
            self.spare_loops.push(ctx);
        }
    }

    // ---- conversions -----------------------------------------------------

    #[inline]
    fn finite(&mut self, v: V, line: u32, op: &'static str) -> R<V> {
        match v.is_finite() {
            true => Ok(v),
            false => Err(self.nonfinite_at(line, op)),
        }
    }

    /// Convert a value for a slot, charging casts (assignment context).
    fn convert(&mut self, ty: STy, v: V, line: u32) -> R<V> {
        match (ty, v) {
            (STy::Fp(p), V::F32(_) | V::F64(_)) => {
                if v.prec() != Some(p) {
                    self.charge_cast();
                }
                self.finite(v.to_prec(p), line, "store")
            }
            (STy::Fp(p), V::Lit(x)) => self.finite(V::fp(x, p), line, "store"),
            (STy::Fp(p), V::Int(i)) => {
                self.charge_plain(self.params.op_int);
                Ok(V::fp(i as f64, p))
            }
            (STy::Int, V::Int(_)) | (STy::Bool, V::Bool(_)) | (STy::Str, V::Str(_)) => Ok(v),
            (STy::Int, V::F32(_) | V::F64(_)) => {
                self.charge_cast();
                self.to_int(v, line).map(V::Int)
            }
            (STy::Int, V::Lit(x)) => Ok(V::Int(x.trunc() as i64)),
            (ty, v) => Err(self.invalid(line, format!("cannot assign {v:?} to a {ty:?} variable"))),
        }
    }

    /// Argument copy-in: the assignment rules, but a precision-mismatched
    /// FP association is invalid Fortran.
    fn convert_arg(&mut self, decl: &SlotDecl, v: V, line: u32) -> R<V> {
        if let (STy::Fp(p), Some(vp)) = (decl.ty, v.prec()) {
            if vp != p {
                return Err(self.invalid(
                    line,
                    format!(
                        "argument kind mismatch on dummy `{}` (kind={} vs kind={}) — \
                         Fortran would not compile this; run the transformer to \
                         synthesize wrappers",
                        decl.name,
                        vp.kind(),
                        p.kind()
                    ),
                ));
            }
        }
        self.convert(decl.ty, v, line)
    }

    /// Copy-out conversion: part of the call model, so never charged.
    fn convert_plain(&self, ty: STy, v: V, line: u32) -> R<V> {
        match (ty, v) {
            (STy::Fp(p), V::F32(_) | V::F64(_)) => Ok(v.to_prec(p)),
            (STy::Fp(p), V::Lit(x)) => Ok(V::fp(x, p)),
            (STy::Fp(p), V::Int(i)) => Ok(V::fp(i as f64, p)),
            (STy::Int, V::Int(_)) | (STy::Bool, V::Bool(_)) | (STy::Str, V::Str(_)) => Ok(v),
            (ty, v) => Err(self.invalid(line, format!("cannot write back {v:?} into {ty:?}"))),
        }
    }

    /// Convert for an array-element store at precision `p`, charging a
    /// converting store when precisions differ.
    fn store_fp(&mut self, v: V, p: FpPrecision, line: u32) -> R<V> {
        let out = match v {
            V::F32(_) | V::F64(_) => {
                if v.prec() != Some(p) {
                    self.charge_cast_store();
                }
                v.to_prec(p)
            }
            V::Lit(x) => V::fp(x, p),
            V::Int(i) => {
                self.charge_plain(self.params.op_int);
                V::fp(i as f64, p)
            }
            other => return Err(self.invalid(line, format!("expected real, got {other:?}"))),
        };
        self.finite(out, line, "elem-store")
    }

    // ---- arrays ----------------------------------------------------------

    fn load_elem(&mut self, slot: Sr, subs: Subs) -> R<()> {
        let (id, off) = self.addr(slot, subs, 0)?;
        let a = &self.arrays[id];
        let v = match &a.data {
            ArrayData::Int(d) => V::Int(d[off]),
            ArrayData::F32(d) => V::F32(d[off]),
            ArrayData::F64(d) => V::F64(d[off]),
            ArrayData::Bool(_) => return Err(self.invalid(0, "unsupported array read")),
        };
        let sh = a.shadow_at(off);
        if let Some(p) = v.prec() {
            self.charge_mem(p);
        }
        self.push(v, sh);
        Ok(())
    }

    /// `[value, subs..n] -> []`: store through an array element.
    fn store_elem(&mut self, slot: Sr, subs: Subs, line: u32, mode: StoreMode) -> R<()> {
        let (id, off) = self.addr(slot, subs, line)?;
        let e = self.pop();
        match self.arrays[id].data.fp_precision() {
            Some(p) => {
                let fv = self.store_fp(e.v, p, line)?;
                let a = &mut self.arrays[id];
                a.set_fp(off, fv);
                a.shadow_set(off, e.sh);
                if self.sh_on {
                    self.note_var(slot, fv.as_f64().unwrap_or(0.0), e.sh);
                }
                if mode != StoreMode::Writeback {
                    self.charge_mem(p);
                }
            }
            None => {
                let V::Int(iv) = e.v else {
                    return Err(self.invalid(line, "non-integer element write"));
                };
                if let ArrayData::Int(d) = &mut self.arrays[id].data {
                    d[off] = iv;
                }
                if mode == StoreMode::Assign {
                    self.charge_plain(self.params.op_int);
                }
            }
        }
        Ok(())
    }

    fn broadcast(&mut self, slot: Sr, line: u32) -> R<()> {
        let e = self.pop();
        let id = self.arr(slot, line)?;
        let n = self.arrays[id].len();
        match self.arrays[id].data.fp_precision() {
            Some(p) => {
                let fv = self.store_fp(e.v, p, line)?;
                let a = &mut self.arrays[id];
                match (&mut a.data, fv) {
                    (ArrayData::F32(d), V::F32(x)) => d.fill(x),
                    (ArrayData::F64(d), V::F64(x)) => d.fill(x),
                    _ => unreachable!("store_fp converts to the array's precision"),
                }
                if let Some(s) = &mut a.shadow {
                    s.fill(e.sh);
                }
                // Broadcast stores vectorize.
                self.charge_tagged(p, n as f64 * self.params.mem_cost(p) / self.params.lanes(p));
            }
            None => {
                let V::Int(iv) = e.v else {
                    return Err(self.invalid(line, "non-integer broadcast"));
                };
                if let ArrayData::Int(d) = &mut self.arrays[id].data {
                    d.fill(iv);
                }
                self.charge_plain(n as f64 * self.params.op_int);
            }
        }
        Ok(())
    }

    fn array_copy(&mut self, dst: Sr, src: Sr, line: u32) -> R<()> {
        let (d, s) = (self.arr(dst, line)?, self.arr(src, line)?);
        if d == s {
            return Ok(());
        }
        let n = self.arrays[s].len();
        if self.arrays[d].len() != n {
            return Err(self.invalid(line, "array copy shape mismatch"));
        }
        let (Some(dp), Some(sp)) = (
            self.arrays[d].data.fp_precision(),
            self.arrays[s].data.fp_precision(),
        ) else {
            return Err(self.invalid(line, "array copy type mismatch"));
        };
        // Whole-array copies are rare: a copy of the source keeps the
        // borrows simple.
        let src = self.arrays[s].clone();
        let dst = &mut self.arrays[d];
        (0..n).for_each(|off| dst.set_fp(off, src.get_fp(off)));
        if let (Some(ds), Some(ss)) = (&mut dst.shadow, &src.shadow) {
            ds.clone_from(ss);
        }
        let p = &self.params;
        if dp != sp {
            // Converting copy: scalar-rate conversion loop.
            let cost = n as f64 * (p.cast + p.mem_cost(sp) + p.mem_cost(dp));
            if let Some(ctx) = self.loop_stack.last_mut() {
                ctx.saw_cast = true;
            }
            self.charge_tagged(FpPrecision::Double, cost);
        } else {
            let cost = n as f64 * 2.0 * p.mem_cost(sp) / p.lanes(sp);
            self.charge_tagged(sp, cost);
        }
        Ok(())
    }

    fn reduce(&mut self, f: IntrinsicFn, slot: Sr) -> R<()> {
        let id = self.arr(slot, 0)?;
        let a = &self.arrays[id];
        let Some(p) = a.data.fp_precision() else {
            return Err(self.invalid(0, "reduction over non-real array"));
        };
        // Reductions vectorize: charge at SIMD rate directly.
        let cost = a.len() as f64 * (self.params.op_basic + self.params.mem_cost(p))
            / self.params.lanes(p);
        let out = match (&a.data, f) {
            (ArrayData::F32(d), IntrinsicFn::Sum) => V::F32(d.iter().sum()),
            (ArrayData::F64(d), IntrinsicFn::Sum) => V::F64(d.iter().sum()),
            (ArrayData::F32(d), IntrinsicFn::Maxval) => {
                V::F32(d.iter().copied().fold(f32::NEG_INFINITY, f32::max))
            }
            (ArrayData::F64(d), IntrinsicFn::Maxval) => {
                V::F64(d.iter().copied().fold(f64::NEG_INFINITY, f64::max))
            }
            (ArrayData::F32(d), IntrinsicFn::Minval) => {
                V::F32(d.iter().copied().fold(f32::INFINITY, f32::min))
            }
            (ArrayData::F64(d), IntrinsicFn::Minval) => {
                V::F64(d.iter().copied().fold(f64::INFINITY, f64::min))
            }
            _ => return Err(self.invalid(0, "unsupported reduction")),
        };
        let sh = match (self.sh_on, &a.shadow, f) {
            (false, ..) => 0.0,
            (true, Some(s), IntrinsicFn::Sum) => s.iter().sum(),
            (true, Some(s), IntrinsicFn::Maxval) => {
                s.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            }
            (true, Some(s), IntrinsicFn::Minval) => s.iter().copied().fold(f64::INFINITY, f64::min),
            _ => out.as_f64().unwrap_or(0.0),
        };
        self.charge_tagged(p, cost);
        let out = self.finite(out, 0, "reduce")?;
        self.push(out, sh);
        Ok(())
    }

    // ---- output ----------------------------------------------------------

    fn record(&mut self, key: u32, line: u32) -> R<()> {
        let e = self.pop();
        let Some(x) = e.v.as_f64() else {
            return Err(self.invalid(line, "prose_record of non-numeric"));
        };
        let code = self.code;
        let key = &*code.strs[key as usize];
        if let Some(st) = &mut self.shadow {
            st.records
                .entry(key.to_string())
                .or_default()
                .update(x, e.sh);
        }
        self.records
            .scalars
            .entry(key.to_string())
            .or_default()
            .push(x);
        Ok(())
    }

    fn record_array(&mut self, key: u32, slot: Sr, line: u32) -> R<()> {
        let id = self.arr(slot, line)?;
        let a = &self.arrays[id];
        let snap = a.snapshot_f64();
        let code = self.code;
        let key = &*code.strs[key as usize];
        if let (true, Some(sh), Some(st)) = (self.sh_on, &a.shadow, &mut self.shadow) {
            let e = st.records.entry(key.to_string()).or_default();
            snap.iter().zip(sh).for_each(|(p, s)| e.update(*p, *s));
        }
        self.records
            .arrays
            .entry(key.to_string())
            .or_default()
            .push(snap);
        Ok(())
    }

    fn print(&mut self, n: usize) {
        let base = self.stack.len() - n;
        let parts: Vec<String> = (self.stack[base..].iter())
            .map(|e| match e.v {
                V::Int(i) => i.to_string(),
                V::Lit(x) | V::F64(x) => format!("{x}"),
                V::F32(x) => format!("{}", f64::from(x)),
                V::Bool(b) => if b { "T" } else { "F" }.to_string(),
                V::Str(s) => self.code.strs[s as usize].to_string(),
                V::Arr(_) | V::Unalloc => String::new(),
            })
            .collect();
        self.stack.truncate(base);
        self.records.stdout.push(parts.join(" "));
        self.charge_plain(100.0);
    }

    // ---- arithmetic ------------------------------------------------------

    /// Promote a pair of numeric operands to their working precision,
    /// charging (and flagging) a conversion when two concrete FP precisions
    /// mix — before the caller charges the operation itself.
    fn promote(&mut self, a: V, b: V) -> R<Pair> {
        use V::*;
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(self.invalid(0, format!("non-numeric operands {a:?}, {b:?}")));
        };
        // A runtime integer meeting a real (even a kind-generic literal) is
        // real work: charge its conversion. Two concrete FP precisions
        // mixing is the conversion instruction the whole paper is about.
        if matches!(a, Int(_)) != matches!(b, Int(_)) {
            self.charge_plain(self.params.op_int);
        } else if matches!((a, b), (F32(_), F64(_)) | (F64(_), F32(_))) {
            self.charge_cast();
        }
        let f32_of = |v: V| match v {
            Int(i) => i as f32,
            F32(x) => x,
            _ => v.as_f64().unwrap_or(0.0) as f32,
        };
        Ok(match (a.prec().max(b.prec()), a, b) {
            (Some(FpPrecision::Double), ..) => Pair::F64(x, y),
            (Some(FpPrecision::Single), ..) => Pair::F32(f32_of(a), f32_of(b)),
            (None, Int(x), Int(y)) => Pair::Int(x, y),
            (None, Lit(_), Lit(_)) => Pair::Lit(x, y),
            (None, ..) => Pair::LitWork(x, y),
        })
    }

    fn binop(&mut self, op: BinOp, a: V, b: V) -> R<V> {
        if op.is_logical() {
            let (V::Bool(x), V::Bool(y)) = (a, b) else {
                return Err(self.invalid(0, "non-logical operand"));
            };
            return Ok(V::Bool(if op == BinOp::And { x && y } else { x || y }));
        }
        let pair = self.promote(a, b)?;
        if op.is_comparison() {
            let (x, y) = match pair {
                Pair::Int(x, y) => {
                    self.charge_plain(self.params.op_int);
                    (x as f64, y as f64)
                }
                Pair::Lit(x, y) => (x, y),
                Pair::LitWork(x, y) | Pair::F64(x, y) => {
                    self.charge_op(OpClass::Basic, FpPrecision::Double);
                    (x, y)
                }
                Pair::F32(x, y) => {
                    self.charge_op(OpClass::Basic, FpPrecision::Single);
                    (f64::from(x), f64::from(y))
                }
            };
            return Ok(V::Bool(compare(op, x, y)));
        }
        match pair {
            Pair::Int(x, y) => {
                self.charge_plain(self.params.op_int);
                Ok(V::Int(match op {
                    BinOp::Div if y == 0 => {
                        return Err(Box::new(RunError::DivByZero {
                            proc: self.name(),
                            line: 0,
                        }))
                    }
                    BinOp::Div => x.wrapping_div(y),
                    BinOp::Pow => int_pow(x, y),
                    _ => unreachable!("arithmetic operator"),
                }))
            }
            Pair::Lit(x, y) | Pair::LitWork(x, y) => {
                // Pure-literal arithmetic is compile-time folded: no charge.
                if matches!(pair, Pair::LitWork(..)) {
                    self.charge_op(op_class(op), FpPrecision::Double);
                }
                let r = apply_f64(op, x, y);
                if !r.is_finite() {
                    return Err(self.nonfinite_at(0, "arith"));
                }
                Ok(V::Lit(r))
            }
            Pair::F32(x, y) => {
                self.charge_op(op_class(op), FpPrecision::Single);
                self.finite(V::F32(apply_f32(op, x, y)), 0, "arith")
            }
            Pair::F64(x, y) => {
                self.charge_op(op_class(op), FpPrecision::Double);
                self.finite(V::F64(apply_f64(op, x, y)), 0, "arith")
            }
        }
    }

    /// An intrinsic over the `n` arguments at `stack[base..]`. Single-value
    /// intrinsics take the last argument, whose shadow they transform.
    fn intrinsic(&mut self, f: IntrinsicFn, base: usize) -> R<E> {
        use IntrinsicFn::*;
        let last = self.stack[self.stack.len() - 1];
        let transcendental =
            |f32f: fn(f32) -> f32, f64f: fn(f64) -> f64| (OpClass::Transcendental, f32f, f64f);
        let (class, f32f, f64f): Math1 = match f {
            Sqrt => (OpClass::Sqrt, f32::sqrt, f64::sqrt),
            Exp => transcendental(f32::exp, f64::exp),
            Log => transcendental(f32::ln, f64::ln),
            Log10 => transcendental(f32::log10, f64::log10),
            Sin => transcendental(f32::sin, f64::sin),
            Cos => transcendental(f32::cos, f64::cos),
            Tan => transcendental(f32::tan, f64::tan),
            Atan => transcendental(f32::atan, f64::atan),
            Tanh => transcendental(f32::tanh, f64::tanh),
            _ => return self.intrinsic_other(f, base, last),
        };
        let sh = if self.sh_on { f64f(last.sh) } else { last.sh };
        let (prec, v) = match last.v {
            V::Lit(x) => {
                self.charge_op(class, FpPrecision::Double);
                let r = f64f(x);
                if !r.is_finite() {
                    return Err(self.nonfinite_at(0, "math"));
                }
                return Ok(E { v: V::Lit(r), sh });
            }
            V::Int(i) => (FpPrecision::Double, V::F64(f64f(i as f64))),
            V::F32(x) => (FpPrecision::Single, V::F32(f32f(x))),
            V::F64(x) => (FpPrecision::Double, V::F64(f64f(x))),
            other => return Err(self.invalid(0, format!("math intrinsic of {other:?}"))),
        };
        self.charge_op(class, prec);
        let v = self.finite(v, 0, "math")?;
        Ok(E::new(v, sh))
    }

    fn intrinsic_other(&mut self, f: IntrinsicFn, base: usize, last: E) -> R<E> {
        use IntrinsicFn::*;
        let int = |i: i64| E::new(V::Int(i), i as f64);
        let inquiry = |e: &E, x32: f32, x64: f64| {
            let v = match e.v.prec() {
                Some(FpPrecision::Single) => V::F32(x32),
                _ => V::F64(x64),
            };
            E::new(v, v.as_f64().unwrap_or(0.0))
        };
        let first = self.stack[base];
        Ok(match f {
            Abs => {
                let v = match last.v {
                    V::Int(i) => {
                        self.charge_plain(self.params.op_int);
                        V::Int(i.wrapping_abs())
                    }
                    V::Lit(x) => V::Lit(x.abs()),
                    V::F32(x) => {
                        self.charge_op(OpClass::Basic, FpPrecision::Single);
                        V::F32(x.abs())
                    }
                    V::F64(x) => {
                        self.charge_op(OpClass::Basic, FpPrecision::Double);
                        V::F64(x.abs())
                    }
                    other => return Err(self.invalid(0, format!("abs of {other:?}"))),
                };
                E::new(v, last.sh.abs())
            }
            Mod if matches!((first.v, last.v), (V::Int(_), V::Int(_))) => {
                let (V::Int(x), V::Int(y)) = (first.v, last.v) else {
                    unreachable!()
                };
                if y == 0 {
                    return Err(Box::new(RunError::DivByZero {
                        proc: self.name(),
                        line: 0,
                    }));
                }
                self.charge_plain(self.params.op_int);
                int(x.wrapping_rem(y))
            }
            Atan2 | Mod | Sign => {
                let pair = self.promote(first.v, last.v)?;
                let (class, f32f, f64f): Math2 = match f {
                    Atan2 => (OpClass::Transcendental, f32::atan2, f64::atan2),
                    Mod => (OpClass::Div, |x, y| x % y, |x, y| x % y),
                    _ => (
                        OpClass::Basic,
                        |x: f32, y| x.abs().copysign(y),
                        |x: f64, y| x.abs().copysign(y),
                    ),
                };
                self.charge_op(class, pair.precision());
                let v = match pair {
                    Pair::Int(x, y) => V::Int(f64f(x as f64, y as f64) as i64),
                    Pair::Lit(x, y) | Pair::LitWork(x, y) => V::Lit(f64f(x, y)),
                    Pair::F32(x, y) => V::F32(f32f(x, y)),
                    Pair::F64(x, y) => V::F64(f64f(x, y)),
                };
                let sh = match (self.sh_on, v) {
                    (false, _) => last.sh,
                    (true, V::Int(i)) => i as f64,
                    (true, _) => f64f(first.sh, last.sh),
                };
                E {
                    v: self.finite(v, 0, "math")?,
                    sh,
                }
            }
            Max | Min => {
                let (mut acc, mut sacc) = (first.v, first.sh);
                for k in base + 1..self.stack.len() {
                    let e = self.stack[k];
                    let pair = self.promote(acc, e.v)?;
                    self.charge_op(OpClass::Basic, pair.precision());
                    let max = f == Max;
                    acc = match pair {
                        Pair::Int(x, y) => V::Int(if max { x.max(y) } else { x.min(y) }),
                        Pair::Lit(x, y) => V::Lit(if max { x.max(y) } else { x.min(y) }),
                        Pair::F32(x, y) => V::F32(if max { x.max(y) } else { x.min(y) }),
                        Pair::F64(x, y) => V::F64(if max { x.max(y) } else { x.min(y) }),
                        Pair::LitWork(..) => unreachable!("max/min never mix a literal and an int"),
                    };
                    sacc = if max { sacc.max(e.sh) } else { sacc.min(e.sh) };
                }
                match acc {
                    V::Int(i) => int(i),
                    v => E::new(v, sacc),
                }
            }
            Real(k) => self.explicit_convert(last, k.unwrap_or(FpPrecision::Single))?,
            Dble => self.explicit_convert(last, FpPrecision::Double)?,
            Sngl => self.explicit_convert(last, FpPrecision::Single)?,
            Int | Nint | Floor => {
                self.charge_plain(self.params.op_basic);
                let x = match (f, last.v) {
                    (Int, V::Int(i)) => return Ok(int(i)),
                    (_, v) => v.as_f64(),
                };
                let Some(x) = x else {
                    return Err(self.invalid(0, format!("{f:?}() of non-numeric")));
                };
                int(match f {
                    Int => x.trunc() as i64,
                    Nint => x.round() as i64,
                    _ => x.floor() as i64,
                })
            }
            // Environment inquiries report the *variant's* precision: the
            // shadow snaps to the primary value.
            Epsilon => inquiry(&first, f32::EPSILON, f64::EPSILON),
            Huge => inquiry(&first, f32::MAX, f64::MAX),
            Tiny => inquiry(&first, f32::MIN_POSITIVE, f64::MIN_POSITIVE),
            Isnan => {
                let b = match last.v {
                    V::F32(x) => x.is_nan(),
                    V::F64(x) | V::Lit(x) => x.is_nan(),
                    _ => false,
                };
                E::new(V::Bool(b), f64::from(u8::from(b)))
            }
            _ => unreachable!("{f:?} is lowered to its own node or handled above"),
        })
    }

    /// Explicit conversion intrinsics (`real`, `dble`, `sngl`): a real
    /// conversion instruction, charged as a cast when it changes a concrete
    /// precision. The shadow passes through.
    fn explicit_convert(&mut self, e: E, target: FpPrecision) -> R<E> {
        let v = match e.v {
            V::Int(i) => {
                self.charge_plain(self.params.op_int);
                V::fp(i as f64, target)
            }
            V::Lit(x) => V::fp(x, target),
            V::F32(_) | V::F64(_) => {
                if e.v.prec() != Some(target) {
                    self.charge_cast();
                }
                e.v.to_prec(target)
            }
            other => return Err(self.invalid(0, format!("conversion of {other:?}"))),
        };
        Ok(E {
            v: self.finite(v, 0, "convert")?,
            sh: e.sh,
        })
    }
}

/// A one- or two-argument intrinsic: its cost class and its f32 and f64
/// implementations.
type Math1 = (OpClass, fn(f32) -> f32, fn(f64) -> f64);
type Math2 = (OpClass, fn(f32, f32) -> f32, fn(f64, f64) -> f64);

/// Operand pair after promotion.
enum Pair {
    Int(i64, i64),
    /// Both operands compile-time constants: foldable, free.
    Lit(f64, f64),
    /// Kind-generic value involving a runtime integer: real work at f64
    /// rate, but the result stays kind-generic.
    LitWork(f64, f64),
    F32(f32, f32),
    F64(f64, f64),
}

impl Pair {
    fn precision(&self) -> FpPrecision {
        match self {
            Pair::F32(..) => FpPrecision::Single,
            _ => FpPrecision::Double,
        }
    }
}

fn op_class(op: BinOp) -> OpClass {
    match op {
        BinOp::Div => OpClass::Div,
        BinOp::Pow => OpClass::Pow,
        _ => OpClass::Basic,
    }
}

fn compare(op: BinOp, x: f64, y: f64) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!("comparison operator"),
    }
}

fn apply_f64(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Pow if y == y.trunc() && y.abs() <= 64.0 => x.powi(y as i32),
        BinOp::Pow => x.powf(y),
        _ => unreachable!("arithmetic operator"),
    }
}

fn apply_f32(op: BinOp, x: f32, y: f32) -> f32 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Pow if y == y.trunc() && y.abs() <= 64.0 => x.powi(y as i32),
        BinOp::Pow => x.powf(y),
        _ => unreachable!("arithmetic operator"),
    }
}

/// `x ** n` for integers, wrapping on overflow like the other integer
/// operators (exponentiation by squaring). Fortran semantics for negative
/// exponents: the result truncates to 0 except for |base| == 1.
fn int_pow(x: i64, n: i64) -> i64 {
    if n < 0 {
        return match x {
            1 => 1,
            -1 if n % 2 == 0 => 1,
            -1 => -1,
            _ => 0,
        };
    }
    let (mut base, mut n, mut r) = (x, n as u64, 1i64);
    while n > 0 {
        if n & 1 == 1 {
            r = r.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    r
}
