//! Lowering: resolve the analyzed AST into the interpreter IR.
//!
//! All name resolution happens here, once per variant: locals vs. module
//! globals, array indexing vs. function reference vs. intrinsic, and the
//! static half of the vectorization decision for every counted loop.
//!
//! Array argument association adopts the actual argument's bounds (models
//! pass whole arrays of matching shape; Fortran sequence-association tricks
//! are out of scope and documented as such).

use crate::ir::*;
use prose_analysis::vect::analyze_counted_loop;
use prose_fortran::ast::{self, DimSpec, Expr, LValue, Procedure, Program, Stmt, TypeSpec};
use prose_fortran::error::{FortranError, Result};
use prose_fortran::sema::{intrinsic, ProgramIndex, ScopeId, ScopeKind};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Lower an analyzed program. `wrapper_names` marks synthesized conversion
/// wrappers (never inline candidates); `inline_max_stmts` is the inlining
/// threshold from the cost model.
pub fn lower_program(
    program: &Program,
    index: &ProgramIndex,
    wrapper_names: &HashSet<String>,
    inline_max_stmts: usize,
) -> Result<ProgramIR> {
    lower_program_with_maps(program, index, wrapper_names, inline_max_stmts).map(|(ir, _, _)| ir)
}

/// Global slot numbering: `(module scope, variable name)` → global index.
pub(crate) type GlobalMap = HashMap<(ScopeId, String), usize>;
/// Procedure id numbering: procedure name (`@main` for the main body) → id.
pub(crate) type ProcIdMap = HashMap<String, usize>;

/// [`lower_program`], also returning the global slot map and the procedure
/// id map used during lowering, so the variant fast path
/// ([`crate::template`]) can lower synthesized wrapper procedures against
/// the same slot numbering later.
pub(crate) fn lower_program_with_maps(
    program: &Program,
    index: &ProgramIndex,
    wrapper_names: &HashSet<String>,
    inline_max_stmts: usize,
) -> Result<(ProgramIR, GlobalMap, ProcIdMap)> {
    let mut globals: Vec<SlotDecl> = Vec::new();
    let mut global_map: HashMap<(ScopeId, String), usize> = HashMap::new();

    // Pass 1: create global slots (dims/inits patched in pass 2 so that
    // specification expressions may reference later declarations).
    for m in &program.modules {
        let scope = index.module_scope(&m.name).expect("module indexed");
        for d in &m.decls {
            for e in &d.entities {
                let idx = globals.len();
                globals.push(make_slot_decl(d, e, false));
                global_map.insert((scope, e.name.clone()), idx);
            }
        }
    }

    let proc_list: Vec<(&Procedure, ScopeId)> = (program.all_procedures())
        .map(|(_, p)| (p, index.scope_of_procedure(&p.name).expect("proc indexed")))
        .collect();
    let main_proc = proc_list.len();
    let mut proc_ids: ProcIdMap = (proc_list.iter().enumerate())
        .map(|(i, (p, _))| (p.name.clone(), i))
        .collect();
    proc_ids.insert("@main".into(), main_proc);

    let mut lw = Lowerer {
        index,
        globals,
        global_map,
        proc_ids,
    };

    // Pass 2: patch global dims and inits.
    let mut patches = Vec::new();
    for m in &program.modules {
        let scope = index.module_scope(&m.name).expect("module indexed");
        let ctx = ProcCtx {
            scope,
            slots: Vec::new(),
            slot_map: HashMap::new(),
            lw: &lw,
            local_arrays: None,
        };
        patches
            .extend(ctx.decl_patches(&m.decls, |name| lw.global_map[&(scope, name.to_string())])?);
    }
    for (idx, dims, init) in patches {
        (lw.globals[idx].dims, lw.globals[idx].init) = (dims, init);
    }

    let lower = |p: &Procedure, scope| {
        lower_procedure(&lw, p, scope, wrapper_names, inline_max_stmts, None)
    };
    let mut procs = Vec::with_capacity(proc_list.len() + 1);
    for (p, scope) in &proc_list {
        procs.push(lower(p, *scope)?);
    }
    let Some(mp) = &program.main else {
        return Err(FortranError::sema(
            0,
            "program has no main program unit to execute",
        ));
    };
    let scope = (0..index.scope_count())
        .map(ScopeId)
        .find(|s| index.scope_info(*s).kind == ScopeKind::Main)
        .expect("main scope");
    let pseudo = Procedure {
        kind: ast::ProcKind::Subroutine,
        name: "@main".into(),
        params: vec![],
        uses: mp.uses.clone(),
        decls: mp.decls.clone(),
        body: mp.body.clone(),
        span: mp.span,
    };
    procs.push(lower(&pseudo, scope)?);
    let (globals, map, ids) = (lw.globals, lw.global_map, lw.proc_ids);
    Ok((
        ProgramIR {
            procs,
            globals,
            main_proc,
        },
        map,
        ids,
    ))
}

/// Rebuild a [`Lowerer`] from a finished baseline lowering, for lowering
/// synthesized wrapper procedures later (built once per template, shared
/// across variant instantiations).
pub(crate) fn wrapper_lowerer<'a>(
    index: &'a ProgramIndex,
    base: &ProgramIR,
    global_map: HashMap<(ScopeId, String), usize>,
    proc_ids: HashMap<String, usize>,
) -> Lowerer<'a> {
    Lowerer {
        index,
        globals: base.globals.clone(),
        global_map,
        proc_ids,
    }
}

/// Lower one synthesized wrapper procedure against the *baseline* program's
/// index and slot numbering (the wrapper itself has no scope in `index`).
///
/// Local names resolve through the wrapper's own declarations; everything
/// else (module globals referenced by forwarded dimension expressions, the
/// callee procedure) resolves through `callee_scope` — the same names the
/// faithful path resolves after inserting the wrapper into the callee's
/// module and re-analyzing the variant source.
pub(crate) fn lower_wrapper_procedure(
    lw: &Lowerer<'_>,
    p: &Procedure,
    callee_scope: ScopeId,
) -> Result<ProcIR> {
    // Wrapper locals whose declarations carry dimensions: the wrapper-local
    // substitute for `ProgramIndex::lookup(..).is_array()`.
    let arrays: HashSet<String> = p
        .decls
        .iter()
        .flat_map(|d| d.entities.iter().filter(|e| d.dims_for(e).is_some()))
        .map(|e| e.name.clone())
        .collect();
    let wrapper_names: HashSet<String> = std::iter::once(p.name.clone()).collect();
    lower_procedure(lw, p, callee_scope, &wrapper_names, 0, Some(arrays))
}

pub(crate) struct Lowerer<'a> {
    index: &'a ProgramIndex,
    globals: Vec<SlotDecl>,
    global_map: HashMap<(ScopeId, String), usize>,
    proc_ids: HashMap<String, usize>,
}

fn lower_procedure(
    lw: &Lowerer<'_>,
    p: &Procedure,
    scope: ScopeId,
    wrapper_names: &HashSet<String>,
    inline_max_stmts: usize,
    local_arrays: Option<HashSet<String>>,
) -> Result<ProcIR> {
    // Pass 1: create slots.
    let mut slots = Vec::new();
    let mut slot_map = HashMap::new();
    for d in &p.decls {
        for e in &d.entities {
            let idx = slots.len();
            slots.push(make_slot_decl(d, e, p.params.contains(&e.name)));
            slot_map.insert(e.name.clone(), idx);
        }
    }
    let mut ctx = ProcCtx {
        scope,
        slots,
        slot_map,
        lw,
        local_arrays,
    };

    // Pass 2: dims and inits (may reference any slot).
    for (idx, dims, init) in ctx.decl_patches(&p.decls, |name| ctx.slot_map[name])? {
        (ctx.slots[idx].dims, ctx.slots[idx].init) = (dims, init);
    }

    let params: Vec<usize> = p
        .params
        .iter()
        .map(|name| {
            *ctx.slot_map
                .get(name)
                .expect("sema checked dummy declarations")
        })
        .collect();
    let result_slot = p.result_name().map(|r| {
        *ctx.slot_map
            .get(r)
            .expect("sema checked result declaration")
    });

    let body = ctx.lower_stmts(&p.body)?;

    let stmt_count = count_stmts(&body);
    let has_loop = body_has_loop(&body);
    let leaf = body_is_leaf(&body);
    let is_wrapper = wrapper_names.contains(&p.name);
    let inlinable = !is_wrapper && !has_loop && leaf && stmt_count <= inline_max_stmts;

    Ok(ProcIR {
        name: Arc::from(p.name.as_str()),
        is_function: p.is_function(),
        result_slot,
        params,
        slots: ctx.slots,
        body,
        inlinable,
        is_wrapper,
    })
}

fn make_slot_decl(d: &ast::Declaration, e: &ast::EntityDecl, is_dummy: bool) -> SlotDecl {
    let ty = match d.type_spec {
        TypeSpec::Real(p) => STy::Fp(p),
        TypeSpec::Integer => STy::Int,
        TypeSpec::Logical => STy::Bool,
        TypeSpec::Character => STy::Str,
    };
    SlotDecl {
        name: Arc::from(e.name.as_str()),
        ty,
        dims: None,
        init: None,
        allocatable: d.is_allocatable(),
        intent: d.intent(),
        is_const: d.is_parameter(),
        is_dummy,
    }
}

/// A declared entity's slot, lowered dimensions and lowered initializer.
type DeclPatch = (usize, Option<Vec<IDim>>, Option<IExpr>);

/// Per-procedure lowering context (read-only after slot creation).
struct ProcCtx<'a> {
    scope: ScopeId,
    slots: Vec<SlotDecl>,
    slot_map: HashMap<String, usize>,
    lw: &'a Lowerer<'a>,
    /// `Some` when lowering a synthesized wrapper that has no scope in the
    /// program index: the set of local names declared with dimensions.
    /// Local name classification then comes from the wrapper's own
    /// declarations instead of an index lookup.
    local_arrays: Option<HashSet<String>>,
}

impl<'a> ProcCtx<'a> {
    fn err(&self, line: u32, msg: impl Into<String>) -> FortranError {
        FortranError::sema(line, msg.into())
    }

    /// Resolve a variable name to a slot reference.
    fn resolve(&self, name: &str) -> Option<SlotRef> {
        if let Some(i) = self.slot_map.get(name) {
            return Some(SlotRef::Local(*i));
        }
        let sym = self.lw.index.lookup(self.scope, name)?;
        self.lw
            .global_map
            .get(&(sym.scope, sym.name.clone()))
            .map(|i| SlotRef::Global(*i))
    }

    /// [`Self::resolve`], or the unresolved-name error at `line`.
    fn slot(&self, name: &str, line: u32) -> Result<SlotRef> {
        let err = || self.err(line, format!("unresolved `{name}`"));
        self.resolve(name).ok_or_else(err)
    }

    fn slot_decl(&self, r: SlotRef) -> &SlotDecl {
        match r {
            SlotRef::Local(i) => &self.slots[i],
            SlotRef::Global(i) => &self.lw.globals[i],
        }
    }

    fn is_array_name(&self, name: &str) -> bool {
        if let Some(arrays) = &self.local_arrays {
            if self.slot_map.contains_key(name) {
                return arrays.contains(name);
            }
        }
        self.lw
            .index
            .lookup(self.scope, name)
            .map(|s| s.is_array())
            .unwrap_or(false)
    }

    /// Is `name` a user-procedure reference (not a variable) here?
    fn is_proc_name(&self, name: &str) -> bool {
        if self.local_arrays.is_some() && self.slot_map.contains_key(name) {
            return false;
        }
        self.lw.index.lookup(self.scope, name).is_none() && self.lw.index.procedure(name).is_some()
    }

    /// Each declared entity's slot (by `slot_of`), lowered dimensions and
    /// lowered initializer.
    fn decl_patches(
        &self,
        decls: &[ast::Declaration],
        slot_of: impl Fn(&str) -> usize,
    ) -> Result<Vec<DeclPatch>> {
        let mut out = Vec::new();
        for d in decls {
            for e in &d.entities {
                let dims = match d.dims_for(e) {
                    Some(ds) => Some(self.lower_dims(ds, d.span.line, false)?),
                    None => None,
                };
                let init = e.init.as_ref().map(|x| self.lower_expr(x)).transpose()?;
                out.push((slot_of(&e.name), dims, init));
            }
        }
        Ok(out)
    }

    /// Declared dimensions, or an `allocate`'s (`alloc`), which may not
    /// defer a bound. A declaration's errors are reported at its line.
    fn lower_dims(&self, dims: &[DimSpec], line: u32, alloc: bool) -> Result<Vec<IDim>> {
        let dims = (dims.iter())
            .map(|d| match d {
                DimSpec::Upper(e) => Ok(IDim::Explicit {
                    lower: None,
                    upper: self.lower_expr(e)?,
                }),
                DimSpec::Range(lo, hi) => Ok(IDim::Explicit {
                    lower: Some(self.lower_expr(lo)?),
                    upper: self.lower_expr(hi)?,
                }),
                DimSpec::Deferred if alloc => {
                    Err(self.err(line, "`:` is not a valid allocate bound"))
                }
                DimSpec::Deferred => Ok(IDim::Deferred),
            })
            .collect::<Result<Vec<_>>>();
        match alloc {
            true => dims,
            false => dims.map_err(|e| self.err(line, e.to_string())),
        }
    }

    fn lower_stmts(&self, body: &[Stmt]) -> Result<Vec<IStmt>> {
        body.iter().map(|s| self.lower_stmt(s)).collect()
    }

    fn lower_stmt(&self, s: &Stmt) -> Result<IStmt> {
        let line = s.span().line;
        match s {
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var(name) => {
                        let slot = self.slot(name, line)?;
                        if self.is_array_name(name) {
                            // `a = b` whole-array copy vs `a = <scalar>`
                            // broadcast. Checked before lowering the value:
                            // a bare array reference is only legal here.
                            if let Expr::Var(srcn) = value {
                                if self.is_array_name(srcn) {
                                    let src = self.slot(srcn, line)?;
                                    return Ok(IStmt::AssignArrayCopy {
                                        dst: slot,
                                        src,
                                        line,
                                    });
                                }
                            }
                            let v = self.lower_expr(value)?;
                            Ok(IStmt::AssignBroadcast {
                                slot,
                                value: v,
                                line,
                            })
                        } else {
                            let v = self.lower_expr(value)?;
                            Ok(IStmt::AssignScalar {
                                slot,
                                value: v,
                                line,
                            })
                        }
                    }
                    LValue::Index { name, indices } => {
                        let slot = self.slot(name, line)?;
                        let idx = indices
                            .iter()
                            .map(|e| self.lower_expr(e))
                            .collect::<Result<Vec<_>>>()?;
                        let v = self.lower_expr(value)?;
                        Ok(IStmt::AssignElem {
                            slot,
                            indices: idx,
                            value: v,
                            line,
                        })
                    }
                }
            }
            Stmt::If {
                arms, else_body, ..
            } => {
                let mut iarms = Vec::with_capacity(arms.len());
                for (cond, b) in arms {
                    iarms.push((self.lower_expr(cond)?, self.lower_stmts(b)?));
                }
                let ielse = match else_body {
                    Some(b) => self.lower_stmts(b)?,
                    None => Vec::new(),
                };
                Ok(IStmt::If {
                    arms: iarms,
                    else_body: ielse,
                    line,
                })
            }
            Stmt::Do {
                var,
                start,
                end,
                step,
                body,
                ..
            } => {
                let vslot = self
                    .resolve(var)
                    .ok_or_else(|| self.err(line, format!("unresolved loop var `{var}`")))?;
                let la = analyze_counted_loop(var, body, &|n| self.is_array_name(n), &|n| {
                    self.is_proc_name(n)
                });
                let meta = LoopMeta {
                    vectorizable: la.vectorizable,
                    blocker: la.blocker,
                };
                Ok(IStmt::Do {
                    var: vslot,
                    start: self.lower_expr(start)?,
                    end: self.lower_expr(end)?,
                    step: step.as_ref().map(|e| self.lower_expr(e)).transpose()?,
                    body: self.lower_stmts(body)?,
                    meta,
                    line,
                })
            }
            Stmt::DoWhile { cond, body, .. } => Ok(IStmt::DoWhile {
                cond: self.lower_expr(cond)?,
                body: self.lower_stmts(body)?,
                line,
            }),
            Stmt::Call { name, args, .. } => {
                if let Some(i) = intrinsic(name) {
                    if i.kind == prose_fortran::sema::IntrinsicKind::Subroutine {
                        return self.lower_intrinsic_sub(name, args, line);
                    }
                }
                let proc = *self
                    .lw
                    .proc_ids
                    .get(name)
                    .ok_or_else(|| self.err(line, format!("unknown procedure `{name}`")))?;
                let iargs = self.lower_args(name, args, line)?;
                Ok(IStmt::CallSub {
                    proc,
                    args: iargs,
                    line,
                })
            }
            Stmt::Return { .. } => Ok(IStmt::Return),
            Stmt::Exit { .. } => Ok(IStmt::Exit),
            Stmt::Cycle { .. } => Ok(IStmt::Cycle),
            Stmt::Print { items, .. } => {
                let it = items
                    .iter()
                    .map(|e| self.lower_expr(e))
                    .collect::<Result<Vec<_>>>()?;
                Ok(IStmt::Print { items: it, line })
            }
            Stmt::Stop { code, .. } => Ok(IStmt::Stop { code: *code, line }),
            Stmt::Allocate { items, .. } => {
                let mut stmts = Vec::new();
                for (name, dims) in items {
                    let slot = self.slot(name, line)?;
                    let idims = self.lower_dims(dims, line, true)?;
                    stmts.push(IStmt::Allocate {
                        slot,
                        dims: idims,
                        line,
                    });
                }
                if stmts.len() == 1 {
                    Ok(stmts.pop().unwrap())
                } else {
                    Ok(IStmt::If {
                        arms: vec![(IExpr::BoolLit(true), stmts)],
                        else_body: vec![],
                        line,
                    })
                }
            }
            Stmt::Deallocate { names, .. } => {
                let slots = names
                    .iter()
                    .map(|n| self.slot(n, line))
                    .collect::<Result<Vec<_>>>()?;
                Ok(IStmt::Deallocate { slots, line })
            }
        }
    }

    fn lower_intrinsic_sub(&self, name: &str, args: &[Expr], line: u32) -> Result<IStmt> {
        match name {
            "prose_record" | "prose_record_array" => {
                let label: Arc<str> = match &args[0] {
                    Expr::StrLit(s) => Arc::from(s.as_str()),
                    _ => {
                        return Err(self.err(
                            line,
                            "first argument of prose_record must be a string literal",
                        ))
                    }
                };
                if name == "prose_record" {
                    let v = self.lower_expr(&args[1])?;
                    Ok(IStmt::CallIntrinsicSub {
                        f: IntrinsicSub::ProseRecord,
                        name_arg: Some(label),
                        args: vec![IArg::Value(v)],
                        line,
                    })
                } else {
                    let slot =
                        match &args[1] {
                            Expr::Var(n) if self.is_array_name(n) => self.slot(n, line)?,
                            _ => return Err(self.err(
                                line,
                                "second argument of prose_record_array must be an array variable",
                            )),
                        };
                    Ok(IStmt::CallIntrinsicSub {
                        f: IntrinsicSub::ProseRecordArray,
                        name_arg: Some(label),
                        args: vec![IArg::ArrayRef(slot)],
                        line,
                    })
                }
            }
            "mpi_allreduce_sum" | "mpi_allreduce_max" => {
                let f = if name == "mpi_allreduce_sum" {
                    IntrinsicSub::MpiAllreduceSum
                } else {
                    IntrinsicSub::MpiAllreduceMax
                };
                let local = IArg::Value(self.lower_expr(&args[0])?);
                let out = self.lower_lvalue_arg(&args[1], line)?;
                Ok(IStmt::CallIntrinsicSub {
                    f,
                    name_arg: None,
                    args: vec![local, out],
                    line,
                })
            }
            other => Err(self.err(line, format!("unsupported intrinsic subroutine `{other}`"))),
        }
    }

    fn lower_lvalue_arg(&self, e: &Expr, line: u32) -> Result<IArg> {
        match e {
            Expr::Var(n) if !self.is_array_name(n) => {
                let slot = self.slot(n, line)?;
                Ok(IArg::ScalarRef(ILValue::Scalar(slot)))
            }
            Expr::NameRef { name, args } if self.is_array_name(name) => {
                let slot = self.slot(name, line)?;
                let idx = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<Vec<_>>>()?;
                Ok(IArg::ScalarRef(ILValue::Elem { slot, indices: idx }))
            }
            _ => Err(self.err(line, "output argument must be a variable or array element")),
        }
    }

    /// Lower call arguments against the callee's dummy shapes.
    fn lower_args(&self, callee: &str, args: &[Expr], line: u32) -> Result<Vec<IArg>> {
        let pinfo = self
            .lw
            .index
            .procedure(callee)
            .ok_or_else(|| self.err(line, format!("unknown procedure `{callee}`")))?;
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let param = &pinfo.params[i];
            let dummy = self
                .lw
                .index
                .lookup(pinfo.scope, param)
                .ok_or_else(|| self.err(line, format!("undeclared dummy `{param}`")))?;
            if dummy.is_array() {
                match a {
                    Expr::Var(n) if self.is_array_name(n) => {
                        let slot = self.slot(n, line)?;
                        out.push(IArg::ArrayRef(slot));
                    }
                    _ => {
                        return Err(self.err(
                            line,
                            format!(
                                "argument {} of `{callee}` must be a whole array (dummy `{param}` is rank {})",
                                i + 1,
                                dummy.rank.unwrap_or(0)
                            ),
                        ))
                    }
                }
            } else {
                match a {
                    Expr::Var(n) if !self.is_array_name(n) => {
                        let slot = self.slot(n, line)?;
                        if self.slot_decl(slot).is_const {
                            out.push(IArg::Value(IExpr::LoadScalar(slot)));
                        } else {
                            out.push(IArg::ScalarRef(ILValue::Scalar(slot)));
                        }
                    }
                    Expr::NameRef { name, args: idx } if self.is_array_name(name) => {
                        let slot = self.slot(name, line)?;
                        let ii = idx
                            .iter()
                            .map(|e| self.lower_expr(e))
                            .collect::<Result<Vec<_>>>()?;
                        out.push(IArg::ScalarRef(ILValue::Elem { slot, indices: ii }));
                    }
                    other => out.push(IArg::Value(self.lower_expr(other)?)),
                }
            }
        }
        Ok(out)
    }

    fn lower_expr(&self, e: &Expr) -> Result<IExpr> {
        match e {
            Expr::RealLit { value, .. } => Ok(IExpr::RealLit(*value)),
            Expr::IntLit(v) => Ok(IExpr::IntLit(*v)),
            Expr::LogicalLit(b) => Ok(IExpr::BoolLit(*b)),
            Expr::StrLit(s) => Ok(IExpr::StrLit(Arc::from(s.as_str()))),
            Expr::Var(n) => {
                if self.is_array_name(n) {
                    return Err(self.err(
                        0,
                        format!("whole-array expression `{n}` is not supported in this context"),
                    ));
                }
                let slot = self.slot(n, 0)?;
                Ok(IExpr::LoadScalar(slot))
            }
            Expr::NameRef { name, args } => {
                if self.is_array_name(name) {
                    let slot = self.slot(name, 0)?;
                    let idx = args
                        .iter()
                        .map(|a| self.lower_expr(a))
                        .collect::<Result<Vec<_>>>()?;
                    return Ok(IExpr::LoadElem { slot, indices: idx });
                }
                if self.resolve(name).is_none() {
                    if let Some(intr) = intrinsic(name) {
                        if intr.kind == prose_fortran::sema::IntrinsicKind::Function {
                            return self.lower_intrinsic_fn(name, args);
                        }
                    }
                }
                let proc = *self
                    .lw
                    .proc_ids
                    .get(name)
                    .ok_or_else(|| self.err(0, format!("unknown function `{name}`")))?;
                let iargs = self.lower_args(name, args, 0)?;
                Ok(IExpr::CallFun { proc, args: iargs })
            }
            Expr::Bin { op, lhs, rhs } => Ok(IExpr::Bin {
                op: *op,
                lhs: Box::new(self.lower_expr(lhs)?),
                rhs: Box::new(self.lower_expr(rhs)?),
            }),
            Expr::Un { op, operand } => Ok(IExpr::Un {
                op: *op,
                operand: Box::new(self.lower_expr(operand)?),
            }),
        }
    }

    fn lower_intrinsic_fn(&self, name: &str, args: &[Expr]) -> Result<IExpr> {
        use IntrinsicFn::*;
        match name {
            "size" => {
                let slot = match &args[0] {
                    Expr::Var(n) if self.is_array_name(n) => self.slot(n, 0)?,
                    _ => return Err(self.err(0, "size() requires an array variable")),
                };
                let dim = match args.get(1) {
                    Some(d) => Some(Box::new(self.lower_expr(d)?)),
                    None => None,
                };
                return Ok(IExpr::SizeOf { slot, dim });
            }
            "sum" | "maxval" | "minval" => {
                let slot = match &args[0] {
                    Expr::Var(n) if self.is_array_name(n) => self.slot(n, 0)?,
                    _ => return Err(self.err(0, format!("{name}() requires an array variable"))),
                };
                let f = match name {
                    "sum" => Sum,
                    "maxval" => Maxval,
                    _ => Minval,
                };
                return Ok(IExpr::Reduce { f, slot });
            }
            "real" => {
                let prec = match args.get(1) {
                    Some(Expr::IntLit(k)) => prose_fortran::ast::FpPrecision::from_kind(*k),
                    Some(_) => return Err(self.err(0, "real() kind must be a literal")),
                    None => None,
                };
                let a0 = self.lower_expr(&args[0])?;
                return Ok(IExpr::Intrinsic {
                    f: Real(prec),
                    args: vec![a0],
                });
            }
            _ => {}
        }
        let f = match name {
            "abs" => Abs,
            "sqrt" => Sqrt,
            "exp" => Exp,
            "log" => Log,
            "log10" => Log10,
            "sin" => Sin,
            "cos" => Cos,
            "tan" => Tan,
            "atan" => Atan,
            "atan2" => Atan2,
            "tanh" => Tanh,
            "max" => Max,
            "min" => Min,
            "mod" => Mod,
            "sign" => Sign,
            "dble" => Dble,
            "sngl" => Sngl,
            "int" => Int,
            "nint" => Nint,
            "floor" => Floor,
            "epsilon" => Epsilon,
            "huge" => Huge,
            "tiny" => Tiny,
            "isnan" => Isnan,
            other => return Err(self.err(0, format!("unsupported intrinsic `{other}`"))),
        };
        let iargs = args
            .iter()
            .map(|a| self.lower_expr(a))
            .collect::<Result<Vec<_>>>()?;
        Ok(IExpr::Intrinsic { f, args: iargs })
    }
}

fn count_stmts(body: &[IStmt]) -> usize {
    let mut n = 0;
    for s in body {
        n += 1;
        match s {
            IStmt::If {
                arms, else_body, ..
            } => {
                for (_, b) in arms {
                    n += count_stmts(b);
                }
                n += count_stmts(else_body);
            }
            IStmt::Do { body, .. } | IStmt::DoWhile { body, .. } => n += count_stmts(body),
            _ => {}
        }
    }
    n
}

fn body_has_loop(body: &[IStmt]) -> bool {
    body.iter().any(|s| match s {
        IStmt::Do { .. } | IStmt::DoWhile { .. } => true,
        IStmt::If {
            arms, else_body, ..
        } => arms.iter().any(|(_, b)| body_has_loop(b)) || body_has_loop(else_body),
        _ => false,
    })
}

/// Leaf: calls no user procedures.
fn body_is_leaf(body: &[IStmt]) -> bool {
    fn expr_has_call(e: &IExpr) -> bool {
        match e {
            IExpr::CallFun { .. } => true,
            IExpr::Bin { lhs, rhs, .. } => expr_has_call(lhs) || expr_has_call(rhs),
            IExpr::Un { operand, .. } => expr_has_call(operand),
            IExpr::Intrinsic { args, .. } => args.iter().any(expr_has_call),
            IExpr::LoadElem { indices, .. } => indices.iter().any(expr_has_call),
            IExpr::SizeOf { dim, .. } => dim.as_deref().map(expr_has_call).unwrap_or(false),
            _ => false,
        }
    }
    fn stmt_is_leaf(s: &IStmt) -> bool {
        match s {
            IStmt::CallSub { .. } => false,
            IStmt::AssignScalar { value, .. } | IStmt::AssignBroadcast { value, .. } => {
                !expr_has_call(value)
            }
            IStmt::AssignElem { indices, value, .. } => {
                !expr_has_call(value) && !indices.iter().any(expr_has_call)
            }
            IStmt::If {
                arms, else_body, ..
            } => {
                arms.iter()
                    .all(|(c, b)| !expr_has_call(c) && b.iter().all(stmt_is_leaf))
                    && else_body.iter().all(stmt_is_leaf)
            }
            IStmt::Do {
                start,
                end,
                step,
                body,
                ..
            } => {
                !expr_has_call(start)
                    && !expr_has_call(end)
                    && !step.as_ref().map(expr_has_call).unwrap_or(false)
                    && body.iter().all(stmt_is_leaf)
            }
            IStmt::DoWhile { cond, body, .. } => {
                !expr_has_call(cond) && body.iter().all(stmt_is_leaf)
            }
            IStmt::Print { items, .. } => !items.iter().any(expr_has_call),
            _ => true,
        }
    }
    body.iter().all(stmt_is_leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_fortran::{analyze, parse_program};

    fn lower(src: &str) -> ProgramIR {
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        lower_program(&p, &ix, &HashSet::new(), 16).unwrap()
    }

    #[test]
    fn lowers_main_with_globals_and_procs() {
        let ir = lower(
            r#"
module m
  real(kind=8) :: shared = 1.5d0
contains
  subroutine bump()
    shared = shared + 1.0d0
  end subroutine bump
end module m
program main
  use m
  call bump()
end program main
"#,
        );
        assert_eq!(ir.globals.len(), 1);
        assert_eq!(&*ir.globals[0].name, "shared");
        assert!(ir.globals[0].init.is_some());
        assert_eq!(ir.procs.len(), 2); // bump + @main
        let bump = &ir.procs[ir.proc_index("bump").unwrap()];
        assert!(matches!(
            bump.body[0],
            IStmt::AssignScalar {
                slot: SlotRef::Global(0),
                ..
            }
        ));
    }

    #[test]
    fn resolves_array_vs_function_reference() {
        let ir = lower(
            r#"
module m
contains
  function f(x) result(r)
    real(kind=8) :: x, r
    r = x
  end function f
  subroutine s(a, n)
    real(kind=8) :: a(n)
    integer :: n
    a(1) = f(a(2))
  end subroutine s
end module m
program main
end program main
"#,
        );
        let s = &ir.procs[ir.proc_index("s").unwrap()];
        match &s.body[0] {
            IStmt::AssignElem {
                value: IExpr::CallFun { args, .. },
                ..
            } => {
                assert!(matches!(args[0], IArg::ScalarRef(ILValue::Elem { .. })));
            }
            other => panic!("bad lowering: {other:?}"),
        }
        // The dummy array slot has its declared dims lowered.
        assert!(s.slots.iter().any(|d| &*d.name == "a" && d.dims.is_some()));
    }

    #[test]
    fn loop_metadata_attached() {
        let ir = lower(
            r#"
module m
contains
  subroutine k(u, t, n)
    real(kind=8) :: u(n), t(n)
    integer :: n, i
    do i = 1, n
      t(i) = u(i) * 2.0d0
    end do
    do i = 2, n
      t(i) = t(i-1) + u(i)
    end do
  end subroutine k
end module m
program main
end program main
"#,
        );
        let k = &ir.procs[ir.proc_index("k").unwrap()];
        match (&k.body[0], &k.body[1]) {
            (IStmt::Do { meta: m1, .. }, IStmt::Do { meta: m2, .. }) => {
                assert!(m1.vectorizable);
                assert!(!m2.vectorizable);
            }
            other => panic!("bad lowering: {other:?}"),
        }
    }

    #[test]
    fn small_leaf_function_is_inlinable_but_loops_are_not() {
        let ir = lower(
            r#"
module m
contains
  function flux(q) result(f)
    real(kind=8) :: q, f
    f = q * 0.5d0 + 1.0d0
  end function flux
  subroutine big(u, n)
    real(kind=8) :: u(n)
    integer :: n, i
    do i = 1, n
      u(i) = flux(u(i))
    end do
  end subroutine big
end module m
program main
end program main
"#,
        );
        assert!(ir.procs[ir.proc_index("flux").unwrap()].inlinable);
        assert!(!ir.procs[ir.proc_index("big").unwrap()].inlinable);
    }

    #[test]
    fn wrappers_are_never_inlinable() {
        let src = r#"
module m
contains
  function flux_w8(q) result(f)
    real(kind=8) :: q, f
    f = q
  end function flux_w8
end module m
program main
end program main
"#;
        let p = parse_program(src).unwrap();
        let ix = analyze(&p).unwrap();
        let mut wrappers = HashSet::new();
        wrappers.insert("flux_w8".to_string());
        let ir = lower_program(&p, &ix, &wrappers, 16).unwrap();
        let w = &ir.procs[ir.proc_index("flux_w8").unwrap()];
        assert!(w.is_wrapper);
        assert!(!w.inlinable);
    }

    #[test]
    fn intrinsic_subs_lower() {
        let ir = lower(
            r#"
program main
  real(kind=8) :: x, g, a(3)
  x = 1.0d0
  a = 0.0d0
  call prose_record('x', x)
  call prose_record_array('a', a)
  call mpi_allreduce_sum(x * 2.0d0, g)
end program main
"#,
        );
        let main = &ir.procs[ir.main_proc];
        assert!(matches!(
            main.body[2],
            IStmt::CallIntrinsicSub {
                f: IntrinsicSub::ProseRecord,
                ..
            }
        ));
        assert!(matches!(
            main.body[3],
            IStmt::CallIntrinsicSub {
                f: IntrinsicSub::ProseRecordArray,
                ..
            }
        ));
        match &main.body[4] {
            IStmt::CallIntrinsicSub {
                f: IntrinsicSub::MpiAllreduceSum,
                args,
                ..
            } => {
                assert!(matches!(args[0], IArg::Value(_)));
                assert!(matches!(args[1], IArg::ScalarRef(_)));
            }
            other => panic!("bad lowering: {other:?}"),
        }
    }

    #[test]
    fn whole_array_assignment_is_broadcast() {
        let ir = lower("program main\n real(kind=8) :: a(4)\n a = 1.0d0\nend program main\n");
        let main = &ir.procs[ir.main_proc];
        assert!(matches!(main.body[0], IStmt::AssignBroadcast { .. }));
    }

    #[test]
    fn size_and_reductions_lower_to_dedicated_nodes() {
        let ir = lower(
            "program main\n real(kind=8) :: a(4), s\n integer :: n\n a = 1.0d0\n n = size(a)\n s = sum(a) + maxval(a) - minval(a)\nend program main\n",
        );
        let main = &ir.procs[ir.main_proc];
        assert!(matches!(
            main.body[1],
            IStmt::AssignScalar {
                value: IExpr::SizeOf { .. },
                ..
            }
        ));
        match &main.body[2] {
            IStmt::AssignScalar {
                value: IExpr::Bin { .. },
                ..
            } => {}
            other => panic!("bad lowering: {other:?}"),
        }
    }

    #[test]
    fn named_constant_args_pass_by_value() {
        let ir = lower(
            r#"
module m
  real(kind=8), parameter :: c = 2.0d0
contains
  subroutine s(x)
    real(kind=8) :: x
    x = x + 1.0d0
  end subroutine s
  subroutine t()
    real(kind=8) :: y
    y = c
    call s(y)
  end subroutine t
end module m
program main
  use m
  call t()
end program main
"#,
        );
        let t = &ir.procs[ir.proc_index("t").unwrap()];
        match &t.body[1] {
            IStmt::CallSub { args, .. } => {
                assert!(matches!(args[0], IArg::ScalarRef(_)));
            }
            other => panic!("bad lowering: {other:?}"),
        }
    }

    #[test]
    fn explicit_bounds_with_ranges_lower() {
        let ir = lower("program main\n real(kind=8) :: a(0:4, 2)\n a = 0.0d0\nend program main\n");
        let main = &ir.procs[ir.main_proc];
        let a = main.slots.iter().find(|s| &*s.name == "a").unwrap();
        let dims = a.dims.as_ref().unwrap();
        assert_eq!(dims.len(), 2);
        assert!(matches!(&dims[0], IDim::Explicit { lower: Some(_), .. }));
        assert!(matches!(&dims[1], IDim::Explicit { lower: None, .. }));
    }
}
