//! Compilation of a lowered program into the engine's flat instruction
//! stream.
//!
//! [`compile`] runs once per [`ProgramIR`] (once per variant) and resolves
//! everything the execution loop would otherwise rediscover per event: call
//! targets, argument binding and copy-out plans, slot types for stores, and
//! jump targets for every structured construct. Expressions become postfix
//! sequences over the machine's value stack; statements become straight
//! runs of ops with explicit jumps. Each procedure's code is its prologue
//! (automatic arrays and local initializers, run in the callee's frame but
//! still charged to the caller), an [`Op::Enter`], the body, and an
//! [`Op::Leave`]. A `do` loop keeps its counter, end and step in three
//! hidden frame slots after the declared ones.
//!
//! Op order is charge order: operands are emitted in the order the cost
//! model charges them, so the flat engine reproduces modeled cycles bit for
//! bit (see DESIGN.md, "Execution engine").

use crate::ir::*;
use crate::value::V;
use prose_fortran::ast::{BinOp, Intent, UnOp};
use std::sync::Arc;

/// Marks a global slot in an [`Sr`].
const GLOBAL: u32 = 1 << 31;
/// `Stmt` line for statements that carry none (`return`, `exit`, `cycle`).
pub(crate) const NO_LINE: u32 = u32::MAX;
/// Absent operand (no function result, no procedure).
pub(crate) const NONE: u32 = u32::MAX;

/// A resolved slot: frame-relative local or absolute global.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sr(u32);

impl Sr {
    /// A `Bin`'s left operand on the value stack (no slot has this index).
    pub const STACK: Sr = Sr(u32::MAX);

    fn of(r: SlotRef) -> Sr {
        match r {
            SlotRef::Local(i) => Sr(i as u32),
            SlotRef::Global(i) => Sr(i as u32 | GLOBAL),
        }
    }

    pub fn global(self) -> bool {
        self.0 & GLOBAL != 0
    }

    pub fn idx(self) -> usize {
        (self.0 & !GLOBAL) as usize
    }
}

/// How an array-element store is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreMode {
    /// Assignment statement: memory traffic, integer stores cost an op.
    Assign,
    /// Charged lvalue write (collective output): memory traffic only.
    Lvalue,
    /// Copy-out after a call: part of the call model, uncharged.
    Writeback,
}

/// Where an element access finds its subscripts: on the value stack, or —
/// the common case — read straight from one or two scalar slots.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Subs {
    Stack(u8),
    Var(Sr),
    /// `v ± k` on an integer slot; the add charges `op_int` as a `Bin` would.
    Off(Sr, i32),
    Vars(Sr, Sr),
}

/// A binary operator's operand: on the value stack, or — the common case —
/// a scalar slot or a literal read in place.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Opnd {
    Stack,
    Slot(Sr),
    Lit(f64),
    Int(i64),
}

/// Fixed diagnostics raised by [`Op::Fail`].
pub(crate) const FAIL_MSGS: [&str; 2] = [
    "deferred bound where explicit shape required",
    "subroutine used as function",
];

/// One instruction. Stack effects are noted as `[inputs] -> [outputs]`;
/// `line` is the statement line an error reports (0: the current line).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `(line)`: statement boundary — one event; sets the diagnostic line.
    Stmt(u32),
    Lit(f64),
    Int(i64),
    Bool(bool),
    Str(u32),
    /// `[] -> [v]`: scalar slot read.
    Load(Sr),
    /// `(array, subscripts)`, `[subs?] -> [v]`: element read.
    Elem(Sr, Subs),
    /// `(op, lhs, rhs)`, `[a?, b?] -> [a op b]`. The left operand is a slot
    /// read in place only when the right one is not on the stack, so
    /// evaluation order holds; else it is [`Sr::STACK`].
    Bin(BinOp, Sr, Opnd),
    Neg,
    Not,
    /// `(f, n)`, `[args..n] -> [f(args)]`.
    Intr(IntrinsicFn, u8),
    /// Raise the array-slot error `size(a, dim)` reports before its `dim`.
    CheckArr(Sr),
    /// `(array, has dim)`, `[dim?] -> [n]`.
    SizeOf(Sr, bool),
    Reduce(IntrinsicFn, Sr),
    /// `(slot, declared type, line, charged)`, `[v] -> []`: scalar store.
    SetScalar(Sr, STy, u32, bool),
    /// `(array, subscripts, line, mode)`, `[v, subs?] -> []`.
    SetElem(Sr, Subs, u32, StoreMode),
    /// `(array, line)`, `[v] -> []`: whole-array broadcast.
    Broadcast(Sr, u32),
    /// `(dst, src, line)`: whole-array copy.
    ArrCopy(Sr, Sr, u32),
    /// `(target, line)`, `[cond] -> []`: charge the branch; jump when false.
    Branch(u32, u32),
    Jump(u32),
    /// `(var, hidden slots, has step, vectorizable, exit, line)`,
    /// `[start, end, step?] -> []`: enter a counted loop and run its first
    /// trip test — jump to `exit` when it makes no trip, else one
    /// iteration's charges.
    DoInit(Sr, u32, bool, bool, u32, u32),
    /// `(var, hidden slots, body)`: step the counter and test it — back to
    /// `body` with one iteration's charges, or fall through when done.
    DoNext(Sr, u32, u32),
    /// `(vectorizable)`: leave a counted loop (normally or unwinding) —
    /// fold its buffered cost, check the budget.
    DoEnd(bool),
    /// `(exit, line)`, `[cond] -> []`: `do while` head.
    WhileTest(u32, u32),
    Budget,
    /// `(proc)`: guards, call accounting, push the callee's frame.
    CallBegin(u32),
    /// `(callee slot)`, `[v] -> []`: bind an argument value.
    BindVal(u32),
    /// `(actual, callee slot)`: associate a whole array.
    BindArr(Sr, u32),
    /// Transfer control to the bound callee.
    CallEnter,
    /// `(callee slot)`, `[] -> [v]`: read the returned frame for copy-out.
    WbLoad(u32),
    /// `(result slot or NONE)`: retire the callee frame, `[] -> [result]`.
    CallDone(u32),
    /// Callee prologue finished: the procedure becomes current.
    Enter,
    /// `(halt)`: return to the caller; `halt` for `stop` / `stop 0`.
    Leave(bool),
    /// `(proc or NONE for globals, slot, rank)`, `[lo, hi..] -> []`: shape
    /// a declared array.
    MakeArr(u32, Sr, u8),
    /// `(proc or NONE, slot)`, `[v] -> []`: declaration initializer.
    Init(u32, Sr),
    /// `(slot, rank, line)`, `[lo, hi..] -> []`.
    Alloc(Sr, u8, u32),
    Dealloc(Sr),
    /// `(key, line)`, `[v] -> []`: `prose_record`.
    Record(u32, u32),
    /// `(key, array, line)`: `prose_record_array`.
    RecordArr(u32, Sr, u32),
    /// `MPI_ALLREDUCE` latency; the value stays for the following store.
    Collective,
    /// `(n)`, `[items..n] -> []`.
    Print(u8),
    Stop(i64),
    /// `(line, message index)`.
    Fail(u32, u8),
    End,
}

/// A compiled program.
pub(crate) struct Code {
    pub ops: Vec<Op>,
    /// Per procedure: pc of its prologue.
    pub entry: Vec<u32>,
    /// Per procedure: initial frame contents (declared plus hidden slots).
    pub frames: Vec<Vec<V>>,
    /// Initial global slots.
    pub globals: Vec<V>,
    /// Interned string literals and record keys.
    pub strs: Vec<Arc<str>>,
    pub boot: u32,
}

/// An enclosing loop: `exit` and `cycle` jumps to patch, and for a counted
/// loop whether it is vectorizable (`None` for `do while`).
struct Scope {
    vect: Option<bool>,
    exits: Vec<usize>,
    cycles: Vec<usize>,
}

struct Compiler<'ir> {
    ir: &'ir ProgramIR,
    ops: Vec<Op>,
    strs: Vec<Arc<str>>,
    /// Procedure being compiled (`NONE` for global initializers).
    proc: u32,
    hidden: u32,
    scopes: Vec<Scope>,
}

pub(crate) fn compile(ir: &ProgramIR) -> Code {
    let mut c = Compiler {
        ir,
        ops: Vec::new(),
        strs: Vec::new(),
        proc: NONE,
        hidden: 0,
        scopes: Vec::new(),
    };
    c.intern(&Arc::from(""));
    let mut entry = Vec::with_capacity(ir.procs.len());
    let mut frames = Vec::with_capacity(ir.procs.len());
    for (p, proc) in ir.procs.iter().enumerate() {
        entry.push(c.ops.len() as u32);
        c.proc = p as u32;
        c.hidden = proc.slots.len() as u32;
        for (i, decl) in proc.slots.iter().enumerate() {
            if !decl.is_dummy {
                c.decl_init(decl, Sr::of(SlotRef::Local(i)));
            }
        }
        c.ops.push(Op::Enter);
        c.body(&proc.body);
        c.ops.push(Op::Leave(false));
        let mut frame: Vec<V> = proc.slots.iter().map(default_slot).collect();
        frame.resize(c.hidden as usize, V::Int(0));
        frames.push(frame);
    }
    let boot = c.ops.len() as u32;
    c.proc = NONE;
    for (i, decl) in ir.globals.iter().enumerate() {
        c.decl_init(decl, Sr::of(SlotRef::Global(i)));
    }
    c.ops.extend([
        Op::CallBegin(ir.main_proc as u32),
        Op::CallEnter,
        Op::CallDone(NONE),
        Op::End,
    ]);
    Code {
        ops: c.ops,
        entry,
        frames,
        globals: ir.globals.iter().map(default_slot).collect(),
        strs: c.strs,
        boot,
    }
}

impl Compiler<'_> {
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        let i = self.strs.iter().position(|t| t == s).unwrap_or_else(|| {
            self.strs.push(Arc::clone(s));
            self.strs.len() - 1
        });
        i as u32
    }

    fn here(&self) -> usize {
        self.ops.len()
    }

    fn patch(&mut self, at: usize, to: usize) {
        let to = to as u32;
        match &mut self.ops[at] {
            Op::Jump(t) | Op::Branch(t, _) | Op::DoInit(.., t, _) | Op::WhileTest(t, _) => *t = to,
            other => unreachable!("patching {other:?}"),
        }
    }

    fn slot_ty(&self, r: SlotRef) -> STy {
        match r {
            SlotRef::Local(i) => self.ir.procs[self.proc as usize].slots[i].ty,
            SlotRef::Global(i) => self.ir.globals[i].ty,
        }
    }

    /// Declaration-time initialization: explicit-shape arrays and scalar
    /// initializers, in declaration order.
    fn decl_init(&mut self, decl: &SlotDecl, slot: Sr) {
        match (&decl.dims, &decl.init) {
            (Some(dims), _) if !decl.allocatable => {
                self.bounds(dims, 0);
                let (proc, n) = (self.proc, dims.len() as u8);
                self.ops.push(Op::MakeArr(proc, slot, n));
            }
            (None, Some(init)) => {
                self.expr(init);
                let proc = self.proc;
                self.ops.push(Op::Init(proc, slot));
            }
            _ => {}
        }
    }

    /// Emit `(lo, hi)` per dimension. A deferred bound emits the error the
    /// walk raises at that dimension, so the shaping op after it never runs.
    fn bounds(&mut self, dims: &[IDim], line: u32) {
        for d in dims {
            match d {
                IDim::Explicit { lower, upper } => {
                    match lower {
                        Some(e) => self.expr(e),
                        None => self.ops.push(Op::Int(1)),
                    }
                    self.expr(upper);
                }
                IDim::Deferred => return self.ops.push(Op::Fail(line, 0)),
            }
        }
    }

    fn body(&mut self, body: &[IStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    /// Leave every enclosing loop (innermost first) and the procedure.
    fn leave(&mut self, halt: bool) {
        for s in self.scopes.iter().rev() {
            if let Some(vect) = s.vect {
                self.ops.push(Op::DoEnd(vect));
            }
        }
        self.ops.push(Op::Leave(halt));
    }

    /// Compile a loop body in a new scope; returns the scope with the
    /// `exit` / `cycle` jumps still to patch.
    fn loop_body(&mut self, vect: Option<bool>, test: usize, body: &[IStmt]) -> Scope {
        self.scopes.push(Scope {
            vect,
            exits: vec![test],
            cycles: Vec::new(),
        });
        self.body(body);
        self.scopes.pop().expect("loop scope")
    }

    fn close(&mut self, scope: Scope, done: usize, cont: usize) {
        scope.exits.into_iter().for_each(|j| self.patch(j, done));
        scope.cycles.into_iter().for_each(|j| self.patch(j, cont));
    }

    fn stmt(&mut self, s: &IStmt) {
        let line = stmt_line(s);
        self.ops.push(Op::Stmt(line));
        match s {
            IStmt::AssignScalar { slot, value, line } => {
                self.expr(value);
                let ty = self.slot_ty(*slot);
                self.ops.push(Op::SetScalar(Sr::of(*slot), ty, *line, true));
            }
            IStmt::AssignElem {
                slot,
                indices,
                value,
                line,
            } => {
                self.expr(value);
                self.elem_store(*slot, indices, *line, StoreMode::Assign);
            }
            IStmt::AssignBroadcast { slot, value, line } => {
                self.expr(value);
                self.ops.push(Op::Broadcast(Sr::of(*slot), *line));
            }
            IStmt::AssignArrayCopy { dst, src, line } => {
                self.ops
                    .push(Op::ArrCopy(Sr::of(*dst), Sr::of(*src), *line))
            }
            IStmt::If {
                arms,
                else_body,
                line,
            } => {
                let mut ends = Vec::new();
                for (cond, body) in arms {
                    self.expr(cond);
                    let br = self.here();
                    self.ops.push(Op::Branch(NONE, *line));
                    self.body(body);
                    ends.push(self.here());
                    self.ops.push(Op::Jump(NONE));
                    let next = self.here();
                    self.patch(br, next);
                }
                self.body(else_body);
                let end = self.here();
                ends.into_iter().for_each(|j| self.patch(j, end));
            }
            IStmt::Do {
                var,
                start,
                end,
                step,
                body,
                meta,
                line,
            } => {
                self.expr(start);
                self.expr(end);
                if let Some(st) = step {
                    self.expr(st);
                }
                let (var, hid, vect) = (Sr::of(*var), self.hidden, meta.vectorizable);
                let (init, stepped) = (self.here(), step.is_some());
                self.hidden += 3;
                self.ops
                    .push(Op::DoInit(var, hid, stepped, vect, NONE, *line));
                let scope = self.loop_body(Some(vect), init, body);
                let (next, top) = (self.here(), init as u32 + 1);
                self.ops
                    .extend([Op::DoNext(var, hid, top), Op::DoEnd(vect)]);
                self.close(scope, next + 1, next);
            }
            IStmt::DoWhile { cond, body, line } => {
                let top = self.here();
                self.expr(cond);
                let test = self.here();
                self.ops.push(Op::WhileTest(NONE, *line));
                let scope = self.loop_body(None, test, body);
                let cont = self.here();
                self.ops.extend([Op::Budget, Op::Jump(top as u32)]);
                self.close(scope, cont + 2, cont);
            }
            IStmt::CallSub { proc, args, .. } => self.call(*proc, args, false),
            IStmt::CallIntrinsicSub {
                f,
                name_arg,
                args,
                line,
            } => {
                let key = self.intern(&name_arg.clone().unwrap_or_else(|| Arc::from("unnamed")));
                match (f, &args[..]) {
                    (IntrinsicSub::ProseRecord, [IArg::Value(e)]) => {
                        self.expr(e);
                        self.ops.push(Op::Record(key, *line));
                    }
                    (IntrinsicSub::ProseRecordArray, [IArg::ArrayRef(r)]) => {
                        self.ops.push(Op::RecordArr(key, Sr::of(*r), *line))
                    }
                    (
                        IntrinsicSub::MpiAllreduceSum | IntrinsicSub::MpiAllreduceMax,
                        [IArg::Value(e), IArg::ScalarRef(out)],
                    ) => {
                        self.expr(e);
                        self.ops.push(Op::Collective);
                        self.lvalue_store(out, *line, StoreMode::Lvalue);
                    }
                    _ => unreachable!("lowering guarantees intrinsic argument shapes"),
                }
            }
            IStmt::Return => self.leave(false),
            IStmt::Exit | IStmt::Cycle => {
                let at = self.here();
                let exit = matches!(s, IStmt::Exit);
                match self.scopes.last_mut() {
                    Some(scope) => {
                        let jumps = if exit {
                            &mut scope.exits
                        } else {
                            &mut scope.cycles
                        };
                        jumps.push(at);
                        self.ops.push(Op::Jump(NONE));
                    }
                    // Outside any loop the flow signal ends the procedure.
                    None => self.ops.push(Op::Leave(false)),
                }
            }
            IStmt::Print { items, .. } => {
                items.iter().for_each(|e| self.expr(e));
                self.ops.push(Op::Print(items.len() as u8));
            }
            IStmt::Stop { code, .. } => match code {
                None | Some(0) => self.leave(true),
                Some(c) => self.ops.push(Op::Stop(*c)),
            },
            IStmt::Allocate { slot, dims, line } => {
                self.bounds(dims, *line);
                self.ops
                    .push(Op::Alloc(Sr::of(*slot), dims.len() as u8, *line));
            }
            IStmt::Deallocate { slots, .. } => {
                for r in slots {
                    self.ops.push(Op::Dealloc(Sr::of(*r)));
                }
            }
        }
    }

    /// Store the value on top of the stack through `lv`.
    fn lvalue_store(&mut self, lv: &ILValue, line: u32, mode: StoreMode) {
        match lv {
            ILValue::Scalar(r) => {
                let ty = self.slot_ty(*r);
                self.ops.push(Op::SetScalar(
                    Sr::of(*r),
                    ty,
                    line,
                    mode != StoreMode::Writeback,
                ));
            }
            ILValue::Elem { slot, indices } => self.elem_store(*slot, indices, line, mode),
        }
    }

    fn elem_store(&mut self, slot: SlotRef, indices: &[IExpr], line: u32, mode: StoreMode) {
        let subs = self.subs(indices);
        self.ops.push(Op::SetElem(Sr::of(slot), subs, line, mode));
    }

    fn subs(&mut self, indices: &[IExpr]) -> Subs {
        let in_place = match indices {
            [IExpr::LoadScalar(a)] => Some(Subs::Var(Sr::of(*a))),
            [IExpr::LoadScalar(a), IExpr::LoadScalar(b)] => {
                Some(Subs::Vars(Sr::of(*a), Sr::of(*b)))
            }
            // `v ± k` on an integer slot; a real-typed `v` keeps the general path.
            [IExpr::Bin { op, lhs, rhs }] => match (op, &**lhs, &**rhs) {
                (BinOp::Add | BinOp::Sub, IExpr::LoadScalar(v), IExpr::IntLit(k))
                    if self.slot_ty(*v) == STy::Int =>
                {
                    let k = if *op == BinOp::Add {
                        Some(*k)
                    } else {
                        k.checked_neg()
                    };
                    let k = k.and_then(|k| i32::try_from(k).ok());
                    k.map(|k| Subs::Off(Sr::of(*v), k))
                }
                _ => None,
            },
            _ => None,
        };
        in_place.unwrap_or_else(|| {
            indices.iter().for_each(|e| self.expr(e));
            Subs::Stack(indices.len() as u8)
        })
    }

    /// A call: guards and accounting, argument binding in order, the
    /// transfer, then copy-out of every non-`intent(in)` scalar reference.
    fn call(&mut self, proc: usize, args: &[IArg], as_fun: bool) {
        let callee = &self.ir.procs[proc];
        self.ops.push(Op::CallBegin(proc as u32));
        let mut writebacks = Vec::new();
        for (arg, &dst) in args.iter().zip(&callee.params) {
            match arg {
                IArg::Value(e) => self.expr(e),
                IArg::ScalarRef(lv) => {
                    match lv {
                        ILValue::Scalar(r) => self.ops.push(Op::Load(Sr::of(*r))),
                        ILValue::Elem { slot, indices } => self.elem_load(*slot, indices),
                    }
                    if callee.slots[dst].intent != Some(Intent::In) {
                        writebacks.push((lv, dst));
                    }
                }
                IArg::ArrayRef(r) => {
                    self.ops.push(Op::BindArr(Sr::of(*r), dst as u32));
                    continue;
                }
            }
            self.ops.push(Op::BindVal(dst as u32));
        }
        self.ops.push(Op::CallEnter);
        for (lv, dst) in writebacks {
            self.ops.push(Op::WbLoad(dst as u32));
            self.lvalue_store(lv, 0, StoreMode::Writeback);
        }
        let result = match (as_fun, callee.result_slot) {
            (true, Some(rs)) if callee.is_function => rs as u32,
            _ => NONE,
        };
        self.ops.push(Op::CallDone(result));
        if as_fun && result == NONE {
            self.ops.push(Op::Fail(0, 1));
        }
    }

    fn elem_load(&mut self, slot: SlotRef, indices: &[IExpr]) {
        let subs = self.subs(indices);
        let slot = Sr::of(slot);
        self.ops.push(Op::Elem(slot, subs));
    }

    fn expr(&mut self, e: &IExpr) {
        match e {
            IExpr::RealLit(v) => self.ops.push(Op::Lit(*v)),
            IExpr::IntLit(v) => self.ops.push(Op::Int(*v)),
            IExpr::BoolLit(b) => self.ops.push(Op::Bool(*b)),
            IExpr::StrLit(s) => {
                let i = self.intern(s);
                self.ops.push(Op::Str(i));
            }
            IExpr::LoadScalar(r) => self.ops.push(Op::Load(Sr::of(*r))),
            IExpr::LoadElem { slot, indices } => self.elem_load(*slot, indices),
            IExpr::CallFun { proc, args } => self.call(*proc, args, true),
            IExpr::Intrinsic { f, args } => {
                args.iter().for_each(|a| self.expr(a));
                self.ops.push(Op::Intr(*f, args.len() as u8));
            }
            IExpr::SizeOf { slot, dim } => {
                let slot = Sr::of(*slot);
                if let Some(d) = dim {
                    self.ops.push(Op::CheckArr(slot));
                    self.expr(d);
                }
                self.ops.push(Op::SizeOf(slot, dim.is_some()));
            }
            IExpr::Reduce { f, slot } => self.ops.push(Op::Reduce(*f, Sr::of(*slot))),
            IExpr::Bin { op, lhs, rhs } => {
                let l = match (&**lhs, opnd(rhs)) {
                    (IExpr::LoadScalar(l), Some(_)) => Sr::of(*l),
                    _ => {
                        self.expr(lhs);
                        Sr::STACK
                    }
                };
                let r = opnd(rhs).unwrap_or_else(|| {
                    self.expr(rhs);
                    Opnd::Stack
                });
                self.ops.push(Op::Bin(*op, l, r));
            }
            IExpr::Un { op, operand } => {
                self.expr(operand);
                match op {
                    UnOp::Neg => self.ops.push(Op::Neg),
                    UnOp::Not => self.ops.push(Op::Not),
                    UnOp::Plus => {}
                }
            }
        }
    }
}

/// An operand read in place: a scalar slot or a literal.
fn opnd(e: &IExpr) -> Option<Opnd> {
    match *e {
        IExpr::LoadScalar(r) => Some(Opnd::Slot(Sr::of(r))),
        IExpr::RealLit(x) => Some(Opnd::Lit(x)),
        IExpr::IntLit(i) => Some(Opnd::Int(i)),
        _ => None,
    }
}

/// The source line a statement carries ([`NO_LINE`] if none).
fn stmt_line(s: &IStmt) -> u32 {
    match s {
        IStmt::AssignScalar { line, .. }
        | IStmt::AssignElem { line, .. }
        | IStmt::AssignBroadcast { line, .. }
        | IStmt::AssignArrayCopy { line, .. }
        | IStmt::If { line, .. }
        | IStmt::Do { line, .. }
        | IStmt::DoWhile { line, .. }
        | IStmt::CallSub { line, .. }
        | IStmt::CallIntrinsicSub { line, .. }
        | IStmt::Print { line, .. }
        | IStmt::Stop { line, .. }
        | IStmt::Allocate { line, .. }
        | IStmt::Deallocate { line, .. } => *line,
        IStmt::Return | IStmt::Exit | IStmt::Cycle => NO_LINE,
    }
}

fn default_slot(d: &SlotDecl) -> V {
    if d.dims.is_some() {
        V::Unalloc
    } else {
        match d.ty {
            STy::Fp(p) => V::fp(0.0, p),
            STy::Int => V::Int(0),
            STy::Bool => V::Bool(false),
            STy::Str => V::Str(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stencil update compiles to in-place operands: no stack subscripts,
    /// and no `Load` feeding a `Bin`.
    #[test]
    fn stencil_operands_compile_in_place() {
        let src = "program t\n real(kind=8) :: u(9), tend_u(9), h(9), dts, grav, rdx\n \
            integer :: i\n u(i) = u(i) + dts*(tend_u(i) - grav*(h(i+1) - h(i-1))*0.5d0*rdx)\n \
            dts = grav * rdx\nend program t";
        let p = prose_fortran::parse_program(src).expect("parses");
        let ix = prose_fortran::analyze(&p).expect("analyzes");
        let ir = crate::lower::lower_program(&p, &ix, &Default::default(), 16).expect("lowers");
        let ops = compile(&ir).ops;
        use Subs::{Off, Stack};
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, Op::Elem(_, Off(..)))), 2);
        assert_eq!(
            count(|op| matches!(op, Op::Bin(_, l, _) if *l != Sr::STACK)),
            1
        );
        assert_eq!(
            count(|op| matches!(op, Op::Elem(_, Stack(_)) | Op::SetElem(_, Stack(_), ..))),
            0
        );
        let load_bin = ops
            .windows(2)
            .any(|w| matches!(w, [Op::Load(_), Op::Bin(..)]));
        assert!(!load_bin, "{ops:?}");
    }
}
