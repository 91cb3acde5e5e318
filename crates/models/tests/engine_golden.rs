//! Golden contract of the execution engine.
//!
//! Every case runs a model (or a small error program) and folds everything
//! observable about the run into one FNV-1a digest: recorded values (bit
//! patterns), total modeled cycles, event count, operation counters,
//! per-procedure timers, the error variant with its `proc:line`, and the
//! fp64 shadow report. The expected digests are constants: any change to
//! modeled cycles, numerics, or diagnostics shows up here as a digest
//! mismatch, so an engine rewrite must reproduce them bit for bit.
//!
//! Coverage: the five embedded models at `Small`, each under six precision
//! maps (declared, all atoms single, four pseudo-random atom maps drawn by
//! an inline SplitMix64), each run with shadow execution off and on through
//! both variant paths — `run_ir` on the instantiated IR template and
//! `run_program` on the transformed source.

use prose_fortran::ast::FpPrecision;
use prose_fortran::precision::PrecisionMap;
use prose_fortran::{analyze, parse_program};
use prose_interp::{
    run_ir_shadow, run_program_shadow, IrTemplate, RunConfig, RunError, RunOutcome, ShadowReport,
    VarShadow,
};
use prose_models::{adcirc, funarc, guardrail, mom6, mpas, ModelSize, ModelSpec};
use prose_transform::{make_variant, VariantPlan, VariantTemplate};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 ^= u64::from(*x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn digest_outcome(h: &mut Fnv, o: &RunOutcome) {
    h.str("ok");
    for (k, vs) in &o.records.scalars {
        h.str(k);
        h.u64(vs.len() as u64);
        vs.iter().for_each(|v| h.f64(*v));
    }
    for (k, rows) in &o.records.arrays {
        h.str(k);
        h.u64(rows.len() as u64);
        for row in rows {
            h.u64(row.len() as u64);
            row.iter().for_each(|v| h.f64(*v));
        }
    }
    for line in &o.records.stdout {
        h.str(line);
    }
    h.f64(o.total_cycles);
    h.u64(o.events);
    let c = &o.ops;
    for v in [
        c.fp32_ops,
        c.fp64_ops,
        c.mem_ops,
        c.casts,
        c.cast_stores,
        c.timed_calls,
        c.loop_iters,
        c.allreduces,
    ] {
        h.u64(v);
    }
    let mut timers: Vec<_> = o.timers.iter().collect();
    timers.sort_by(|a, b| a.0.cmp(b.0));
    for (name, t) in timers {
        h.str(name);
        h.f64(t.cycles);
        h.u64(t.calls);
    }
}

fn digest_error(h: &mut Fnv, e: &RunError) {
    match e {
        RunError::NonFinite { proc, line } => {
            h.str("NonFinite");
            h.str(proc);
            h.u64(u64::from(*line));
        }
        RunError::OutOfBounds { proc, line } => {
            h.str("OutOfBounds");
            h.str(proc);
            h.u64(u64::from(*line));
        }
        RunError::Unallocated { proc, line } => {
            h.str("Unallocated");
            h.str(proc);
            h.u64(u64::from(*line));
        }
        RunError::Invalid { proc, line, .. } => {
            h.str("Invalid");
            h.str(proc);
            h.u64(u64::from(*line));
        }
        RunError::DivByZero { proc, line } => {
            h.str("DivByZero");
            h.str(proc);
            h.u64(u64::from(*line));
        }
        RunError::Stop { code } => {
            h.str("Stop");
            h.u64(*code as u64);
        }
        RunError::Timeout { budget } => {
            h.str("Timeout");
            h.f64(*budget);
        }
        RunError::Deadline { ms } => {
            h.str("Deadline");
            h.u64(*ms);
        }
        RunError::EventLimit => h.str("EventLimit"),
        RunError::Lower(msg) => {
            h.str("Lower");
            h.str(msg);
        }
        RunError::StackOverflow => h.str("StackOverflow"),
    }
}

fn digest_vars(h: &mut Fnv, vars: &[VarShadow]) {
    h.u64(vars.len() as u64);
    for v in vars {
        h.str(&v.name);
        h.f64(v.max_rel);
        h.f64(v.final_rel);
        h.u64(v.stores);
        h.f64(v.min_primary.unwrap_or(f64::NAN));
        h.f64(v.max_primary.unwrap_or(f64::NAN));
    }
}

fn digest_shadow(h: &mut Fnv, r: &Option<ShadowReport>) {
    let Some(r) = r else {
        h.str("no-shadow");
        return;
    };
    digest_vars(h, &r.vars);
    digest_vars(h, &r.records);
    h.f64(r.worst_rel);
    h.u64(r.cancellations);
    if let Some(c) = &r.worst_cancellation {
        h.str(&c.proc);
        h.u64(u64::from(c.line));
        h.f64(c.lost_bits);
        h.f64(c.rel_err);
    }
    if let Some(n) = &r.nonfinite {
        h.str(&n.op);
        h.str(&n.proc);
        h.u64(u64::from(n.line));
        h.u64(u64::from(n.injected));
    }
}

fn digest_run(h: &mut Fnv, run: (Result<RunOutcome, RunError>, Option<ShadowReport>)) {
    match &run.0 {
        Ok(o) => digest_outcome(h, o),
        Err(e) => digest_error(h, e),
    }
    digest_shadow(h, &run.1);
}

fn models() -> Vec<ModelSpec> {
    vec![
        mpas::mpas_a(ModelSize::Small),
        adcirc::adcirc(ModelSize::Small),
        mom6::mom6(ModelSize::Small),
        funarc::funarc(ModelSize::Small),
        guardrail::guardrail_smoke(ModelSize::Small),
    ]
}

/// Digest of one model under one precision map: shadow off and on, each
/// through the template path and the faithful path.
fn model_digest(spec: &ModelSpec, map_no: u64) -> u64 {
    let m = spec.load().expect("model loads");
    let mut map = PrecisionMap::declared(&m.index);
    match map_no {
        0 => {}
        1 => m
            .atoms
            .iter()
            .for_each(|a| map.set(*a, FpPrecision::Single)),
        n => {
            let mut state = n.wrapping_mul(0x2545_f491_4f6c_dd1d);
            for a in &m.atoms {
                if splitmix(&mut state) & 1 == 1 {
                    map.set(*a, FpPrecision::Single);
                }
            }
        }
    }
    let variant = make_variant(&m.program, &m.index, &map).expect("variant transforms");
    let vt = VariantTemplate::new(&m.program, &m.index);
    let inline_max = RunConfig::default().cost.inline_max_stmts;
    let it = IrTemplate::new(&m.program, &m.index, inline_max).expect("template lowers");
    let VariantPlan {
        wrappers,
        decisions,
    } = vt.instantiate(&map);
    let pairs: Vec<_> = wrappers.into_iter().map(|w| (w.callee, w.ast)).collect();
    let ir = it
        .instantiate(&map, &pairs, &decisions)
        .expect("template instantiates");

    let mut h = Fnv::new();
    for shadow in [false, true] {
        let cfg = RunConfig {
            wrapper_names: variant.wrappers.iter().cloned().collect(),
            shadow,
            ..RunConfig::default()
        };
        digest_run(&mut h, run_ir_shadow(&ir, &cfg));
        digest_run(
            &mut h,
            run_program_shadow(&variant.program, &variant.index, &cfg),
        );
    }
    h.0
}

fn check_model(model: usize, expected: [u64; 6]) {
    let spec = &models()[model];
    let got: Vec<u64> = (0..6).map(|n| model_digest(spec, n)).collect();
    assert_eq!(
        got,
        expected.to_vec(),
        "{}: engine digests changed (declared, all-32, 4 random maps)",
        spec.name
    );
}

#[test]
fn mpas_a_digests() {
    check_model(
        0,
        [
            5903686519137322047,
            10414723546104218965,
            13044347335922258429,
            4635528683992233781,
            11649050856410930484,
            5201946560129170893,
        ],
    );
}

#[test]
fn adcirc_digests() {
    check_model(
        1,
        [
            979720201138253241,
            5214029940404093197,
            7951686971458390341,
            10327665142446640032,
            8955618132398947202,
            1853130948301063391,
        ],
    );
}

#[test]
fn mom6_digests() {
    check_model(
        2,
        [
            6018957315335680949,
            14344960593407827252,
            593646151075361374,
            3302932344496167002,
            3364131031496181170,
            5986685074845381414,
        ],
    );
}

#[test]
fn funarc_digests() {
    check_model(
        3,
        [
            7002570760712391791,
            13344763356708977515,
            16510330164278105629,
            11307785376867606237,
            4736665118219484365,
            5186559984842520863,
        ],
    );
}

#[test]
fn guardrail_digests() {
    check_model(
        4,
        [
            3777228826254884745,
            13513232748967699189,
            1420631907068304797,
            11432119872256355377,
            590072113103656558,
            4296701462000850836,
        ],
    );
}

/// Digest of a small error program run with shadow off and on.
fn program_digest(src: &str, cfg: RunConfig) -> u64 {
    run_digest(src, cfg, true)
}

/// Digest of a small program run with shadow off and on; `fails` asserts
/// that both runs end in an error.
fn run_digest(src: &str, cfg: RunConfig, fails: bool) -> u64 {
    let p = parse_program(src).expect("program parses");
    let ix = analyze(&p).expect("program analyzes");
    let mut h = Fnv::new();
    for shadow in [false, true] {
        let cfg = RunConfig {
            shadow,
            ..cfg.clone()
        };
        let run = run_program_shadow(&p, &ix, &cfg);
        assert_eq!(run.0.is_err(), fails, "unexpected run result: {:?}", run.0);
        digest_run(&mut h, run);
    }
    h.0
}

const NON_FINITE: &str = r#"
module m
contains
  subroutine grow(x, n)
    real(kind=4), intent(inout) :: x
    integer, intent(in) :: n
    integer :: i
    do i = 1, n
      x = x * x + 1.0
    end do
  end subroutine grow
end module m
program t
  use m
  real(kind=4) :: x
  x = 3.0
  call grow(x, 40)
  call prose_record('x', x)
end program t
"#;

const OUT_OF_BOUNDS: &str = r#"
module m
contains
  function pick(a, k) result(r)
    real(kind=8), intent(in) :: a(4)
    integer, intent(in) :: k
    real(kind=8) :: r
    r = a(k) * 2.0d0
  end function pick
end module m
program t
  use m
  real(kind=8) :: a(4), s
  integer :: i
  a = 1.5d0
  s = 0.0d0
  do i = 1, 6
    s = s + pick(a, i)
  end do
  call prose_record('s', s)
end program t
"#;

const DIV_BY_ZERO: &str = r#"
program t
  integer :: i, q
  real(kind=8) :: s
  s = 0.0d0
  do i = 3, -1, -1
    q = 12 / i
    s = s + 1.0d0 * q
  end do
  call prose_record('s', s)
end program t
"#;

const STACK_OVERFLOW: &str = r#"
module m
contains
  function depth(x) result(r)
    real(kind=8) :: x, r
    r = depth(x * 0.5d0) + 1.0d0
  end function depth
end module m
program t
  use m
  real(kind=8) :: y
  y = depth(8.0d0)
end program t
"#;

#[test]
fn error_path_digests() {
    let cases = [NON_FINITE, OUT_OF_BOUNDS, DIV_BY_ZERO, STACK_OVERFLOW];
    let got: Vec<u64> = cases
        .iter()
        .map(|src| program_digest(src, RunConfig::default()))
        .collect();
    assert_eq!(
        got,
        vec![
            2457447475605149147,
            7608442273747185139,
            6332024540645665585,
            9120815871311234308
        ],
        "error-path digests changed"
    );
}

/// An injected fault fires at the same event on every run, so its
/// `proc:line` (and the shadow report's provenance) is part of the contract.
#[test]
fn injected_fault_digests() {
    use prose_faults::InjectedFault;
    let got: Vec<u64> = [
        mpas::mpas_a(ModelSize::Small),
        funarc::funarc(ModelSize::Small),
    ]
    .iter()
    .map(|spec| {
        let cfg = RunConfig {
            fault: Some(InjectedFault::NonFinite { after_events: 5000 }),
            ..RunConfig::default()
        };
        program_digest(&spec.source, cfg)
    })
    .collect();
    assert_eq!(
        got,
        vec![10266212862429972261, 13346200782534011008],
        "injected-fault digests changed"
    );
}

// ---- operand-addressing edges ----------------------------------------------
//
// Small programs on the edges of element addressing and loop control: an
// affine subscript `i ± k` off either end of a rank-1 array, a rank-2
// access out of bounds in its second dimension, a real-typed subscript,
// integer wrap-around near `huge`, zero-trip and negative-step loops with
// `cycle` and `exit`, and a fault and an event limit that land on a loop
// step.

const AFFINE_LOW: &str = r#"
module m
contains
  function prev(a, i) result(r)
    real(kind=8), intent(in) :: a(6)
    integer, intent(in) :: i
    real(kind=8) :: r
    r = a(i - 1) + a(i)
  end function prev
end module m
program t
  use m
  real(kind=8) :: a(6), s
  integer :: i
  a = 0.25d0
  s = 0.0d0
  do i = 6, 0, -1
    s = s + prev(a, i)
  end do
  call prose_record('s', s)
end program t
"#;

const AFFINE_HIGH: &str = r#"
program t
  real(kind=4) :: a(5), b(5)
  real(kind=8) :: s
  integer :: i
  a = 1.5
  b = 0.0
  s = 0.0d0
  do i = 1, 5
    b(i + 1) = a(i) * 2.0
    s = s + b(i)
  end do
  call prose_record('s', s)
end program t
"#;

const VARS_OOB: &str = r#"
module m
contains
  subroutine sweep(c, n, s)
    real(kind=8), intent(inout) :: c(3, 3)
    integer, intent(in) :: n
    real(kind=8), intent(inout) :: s
    integer :: i, j
    do j = 1, n
      do i = 1, 3
        c(i, j) = c(i, j) + 1.0d0
        s = s + c(i, j)
      end do
    end do
  end subroutine sweep
end module m
program t
  use m
  real(kind=8) :: c(3, 3), s
  c = 0.5d0
  s = 0.0d0
  call sweep(c, 4, s)
  call prose_record('s', s)
end program t
"#;

const REAL_SUBSCRIPT: &str = r#"
program t
  real(kind=8) :: a(8), x, s
  integer :: i
  do i = 1, 8
    a(i) = 1.0d0 * i
  end do
  s = 0.0d0
  x = 0.5d0
  do i = 1, 6
    s = s + a(x + 1) + a(x - 0.25d0 + 2)
    a(x + 2) = s
    x = x + 1.0d0
  end do
  call prose_record('s', s)
  call prose_record_array('a', a)
end program t
"#;

const INT_WRAP: &str = r#"
program t
  real(kind=8) :: a(4), s
  integer :: j, m
  a = 2.0d0
  j = huge(j)
  m = j + 1
  s = 1.0d0 * m
  call prose_record('s', s)
  m = m - 1
  s = 1.0d0 * m + a(m - j + 4)
  call prose_record('s', s)
  s = s + a(j + 2)
  call prose_record('s', s)
end program t
"#;

const LOOP_EDGES: &str = r#"
program t
  real(kind=8) :: a(10), s
  integer :: i, j, k
  a = 1.0d0
  s = 0.0d0
  i = -7
  do i = 5, 1
    s = s + 100.0d0
    if (i > 2) cycle
    exit
  end do
  s = s + i
  do i = 0, 1, -1
    s = s + 1000.0d0
  end do
  s = s + i
  do i = 10, 1, -3
    if (i == 7) cycle
    s = s + a(i)
    if (i < 3) exit
    a(i - 1) = s
  end do
  s = s + i
  k = 0
  do i = 9, 2, -2
    do j = i, 1, -1
      if (j == 4) cycle
      if (j < 3) exit
      k = k + j
    end do
    if (k > 40) exit
  end do
  s = s + k + 0.5d0 * i + 0.25d0 * j
  call prose_record('s', s)
  call prose_record_array('a', a)
end program t
"#;

/// Loop-step events: after the three leading statements, each trip of the
/// loop is a step event followed by one body statement, so the step events
/// are 4 (the first trip test), 6, 8, ...
const LOOP_STEPS: &str = r#"
program t
  real(kind=8) :: s, a(8)
  integer :: i
  s = 0.0d0
  a = 1.0d0
  do i = 1, 8
    s = s + a(i) * 0.5d0
  end do
  call prose_record('s', s)
end program t
"#;

#[test]
fn addressing_edge_digests() {
    let cases = [
        (AFFINE_LOW, true),
        (AFFINE_HIGH, true),
        (VARS_OOB, true),
        (REAL_SUBSCRIPT, false),
        (INT_WRAP, true),
        (LOOP_EDGES, false),
    ];
    let got: Vec<u64> = cases
        .iter()
        .map(|(src, fails)| run_digest(src, RunConfig::default(), *fails))
        .collect();
    assert_eq!(
        got,
        vec![
            18083027611125607263,
            10283011268144970586,
            6170209652708315542,
            5630850344130701874,
            15336094706307768206,
            12904789557718408044
        ],
        "addressing edge digests changed"
    );
}

/// A fault and an event limit that land on loop-step events: the first
/// trip test (event 4) and a later step (event 10).
#[test]
fn loop_step_limit_digests() {
    use prose_faults::InjectedFault;
    let mut got = Vec::new();
    for at in [4, 10] {
        let fault = RunConfig {
            fault: Some(InjectedFault::NonFinite { after_events: at }),
            ..RunConfig::default()
        };
        let limit = RunConfig {
            max_events: at - 1,
            ..RunConfig::default()
        };
        got.push(program_digest(LOOP_STEPS, fault));
        got.push(program_digest(LOOP_STEPS, limit));
    }
    assert_eq!(
        got,
        vec![
            514142345403294344,
            4394214056635776046,
            18436579854048893841,
            11080371626994805226
        ],
        "loop-step limit digests changed"
    );
}
