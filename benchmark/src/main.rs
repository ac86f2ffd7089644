//! `benchmark` — the end-to-end and per-layer benchmark of `disengage`
//! that `BENCHMARK.json` describes.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--chrome-trace PATH]
//! benchmark --smoke
//! benchmark --compare A.json B.json
//! ```
//!
//! `--trace 0` measures one workload end to end: it sets the workload
//! up at least three times (set-up time is their median), then runs iterations
//! at one worker per core in ten rounds for at least
//! `--seconds` and at least 100 iterations, then a few iterations with
//! the counting allocator on for peak memory. `--trace 1` instead runs
//! the traced pass — the pipeline composed from each layer's public
//! function at one worker — alternating with `RunSession` at one and
//! at one worker per core, and reports every layer. Every iteration's
//! output is compared byte for byte with the set-up run's, which is
//! itself checked against the generator's ground truth.
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (each `{"value", "unit"}`); the line before it
//! is a `{"report": …}` with per-round values and spreads, which
//! `--compare` reads. The exit code is nonzero on any failed check.

mod alloc;
mod calib;
mod compare;
mod metrics;
mod render;
mod stats;
mod traced;
mod workload;

use disengage_obs::json::Value;
use metrics::{Round, TracedRun, END_TO_END};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use traced::{Sample, Tracer};
use workload::{Next, Params, Run, Setup, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per `--trace 0` run: at least [`MIN_SETUPS`], and more (up
/// to [`MAX_SETUPS`]) while together they take under
/// [`SETUP_BUDGET_S`]; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 11;
const SETUP_BUDGET_S: f64 = 1.5;
/// Measured rounds per run; the report carries each round's values.
const ROUNDS: usize = 10;
/// Iterations with the counting allocator on, for `peak_live_mb`.
const MEMORY_SAMPLES: usize = 5;
/// Fewest traced passes per `--trace 1` run.
const MIN_TRACED: usize = 3;
/// Where cached workloads keep their artifact stores, under the
/// working directory.
const SCRATCH: &str = ".bench_work";

fn usage() -> &'static str {
    "usage: benchmark --workload paper_cold|scan_ocr|dict_sweep|warm_replay
                 [--seed N] [--seconds S] [--trace 0|1]
                 [--chrome-trace PATH]
       benchmark --smoke
       benchmark --compare A.json B.json"
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    chrome_trace: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--chrome-trace" => args.chrome_trace = Some(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value()?;
                let b = it.next().ok_or("--compare takes two files")?.clone();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.smoke && args.compare.is_none() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::compare(a, b)
    } else if args.smoke {
        smoke()
    } else {
        let workload = args.workload.expect("checked by parse_args");
        let params = Params::new(args.seed, available_cores(), None);
        if args.trace {
            measure_layers(workload, params, args.seconds, args.chrome_trace.as_deref())
        } else {
            measure_end_to_end(workload, params, args.seconds)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Process CPU time (user + system, every thread) from `/proc/self/stat`.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ (100/s) ticks.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Sets the workload up at least `min` times, each from an empty
/// cache, and more while the set-ups total under `budget_s` seconds;
/// the first set-up run is checked against ground truth and every
/// later one against the first. Returns the last set-up, every
/// set-up's wall time, and each one's host-speed factor.
fn setup_repeated(
    workload: Workload,
    params: Params,
    min: usize,
    budget_s: f64,
) -> Result<(Setup, Vec<f64>, Vec<f64>), String> {
    let (mut walls, mut speeds): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut last: Option<Setup> = None;
    while walls.len() < min || (walls.iter().sum::<f64>() < budget_s && walls.len() < MAX_SETUPS) {
        // The previous set-up's cache directory goes before the next
        // set-up starts timing.
        let first = last.take().map(|s| s.references().join(""));
        let kernel: Vec<f64> = (0..5).map(|_| calib::sample(params.jobs)).collect();
        speeds.push(calib::factor(&kernel));
        let (setup, secs, outcomes) = workload::setup(workload, params, Path::new(SCRATCH))?;
        match first {
            None => {
                for outcome in &outcomes {
                    workload::validate_reference(outcome, workload.simulated_ocr())?;
                }
            }
            Some(r) if r != setup.references().join("") => {
                return Err("set-up runs disagree: the pipeline is not deterministic".to_owned())
            }
            Some(_) => {}
        }
        walls.push(secs);
        last = Some(setup);
    }
    Ok((last.expect("at least one set-up"), walls, speeds))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()));
    format!("panicked: {}", msg.unwrap_or_default())
}

/// Checks one end-to-end run; `Err` carries the reason it failed.
fn checked(setup: &Setup, result: std::thread::Result<Result<Run, String>>) -> Result<Run, String> {
    let run = result.map_err(|p| panic_message(&*p))??;
    setup.check(&run)?;
    Ok(run)
}

/// One traced pass over `next`, recorded into `t`; `Err` when it
/// panics or its bytes differ from `RunSession`'s.
fn traced_pass(setup: &Setup, next: &Next, t: &mut Tracer) -> Result<traced::Counts, String> {
    let (text, counts) = catch_unwind(AssertUnwindSafe(|| traced::composed(setup, next, t)))
        .map_err(|p| panic_message(&*p))?;
    if text != setup.inputs[next.input].reference {
        return Err("the composed layers disagree with RunSession".to_owned());
    }
    Ok(counts)
}

/// Tallies attempts and failures, keeping the first failure's reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.first_error.get_or_insert(reason);
    }
}

fn metric_obj(names: &[(String, &str)], values: &[f64]) -> Value {
    Value::Obj(
        names
            .iter()
            .zip(values)
            .map(|((name, unit), v)| {
                (
                    name.clone(),
                    Value::Obj(vec![
                        ("value".to_owned(), Value::num(*v)),
                        ("unit".to_owned(), Value::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Prints the report line and the result line; `Ok(correct)`.
fn emit(
    tally: &Tally,
    names: &[(String, &str)],
    values: &[f64],
    report: Vec<(String, Value)>,
) -> Result<bool, String> {
    if let Some(i) = values.iter().position(|v| !v.is_finite()) {
        return Err(format!("metric {} is not finite", names[i].0));
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    if let Some(e) = &tally.first_error {
        eprintln!("FAILED: {e}");
    }
    for ((name, unit), v) in names.iter().zip(values) {
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    println!(
        "{}",
        Value::Obj(vec![("report".to_owned(), Value::Obj(report))]).render()
    );
    println!(
        "{}",
        Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), Value::Num(tally.attempted as f64)),
            ("failed".to_owned(), Value::Num(tally.failed as f64)),
            ("metrics".to_owned(), metric_obj(names, values)),
        ])
        .render()
    );
    Ok(correct)
}

fn base_report(workload: Workload, params: Params, trace: bool) -> Vec<(String, Value)> {
    vec![
        (
            "workload".to_owned(),
            Value::Str(workload.name().to_owned()),
        ),
        (
            "corpus_seed".to_owned(),
            Value::Num(params.corpus_seed as f64),
        ),
        ("trace".to_owned(), Value::Num(f64::from(u8::from(trace)))),
        ("jobs".to_owned(), Value::Num(params.jobs as f64)),
        ("cores".to_owned(), Value::Num(available_cores() as f64)),
    ]
}

fn floats(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::num(v)).collect())
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn measure_end_to_end(workload: Workload, params: Params, seconds: f64) -> Result<bool, String> {
    let (setup, setups, setup_speeds) =
        setup_repeated(workload, params, MIN_SETUPS, SETUP_BUDGET_S)?;
    let mut tally = Tally::default();
    // The independent path: the composed layers must reproduce the
    // session's bytes, on every input, before anything is timed.
    for _ in &setup.inputs {
        tally.record(traced_pass(&setup, &setup.next(), &mut Tracer::new()));
    }

    let min_per_round = stats::samples_for_tail(0.9).div_ceil(ROUNDS);
    let round_secs = seconds / ROUNDS as f64;
    let mut rounds: Vec<Round> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut round = Round::default();
        let mut kernel = Vec::new();
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        while round.iterations < min_per_round || start.elapsed().as_secs_f64() < round_secs {
            round.iterations += 1;
            kernel.push(calib::sample(params.jobs));
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| setup.run(params.jobs)));
            let wall = t0.elapsed().as_secs_f64();
            if let Some(run) = tally.record(checked(&setup, result)) {
                round.walls.push(wall);
                round.records += run.records as u64;
            }
        }
        // The kernel ran on CPU the whole time, on `jobs` threads.
        round.cpu_s = cpu_seconds()? - cpu0 - kernel.iter().sum::<f64>() * params.jobs as f64;
        round.speed = calib::factor(&kernel);
        rounds.push(round);
    }

    let mut peaks = Vec::new();
    for _ in 0..MEMORY_SAMPLES {
        alloc::start();
        let result = catch_unwind(AssertUnwindSafe(|| setup.run(params.jobs)));
        alloc::stop();
        if tally.record(checked(&setup, result)).is_some() {
            peaks.push(alloc::peak_bytes() as f64);
        }
    }

    let scaled_setups: Vec<f64> = setups
        .iter()
        .zip(&setup_speeds)
        .map(|(s, f)| s * f)
        .collect();
    let values = metrics::end_to_end(&Round::merge(&rounds, true), &peaks, &scaled_setups);
    let raw = metrics::end_to_end(&Round::merge(&rounds, false), &peaks, &setups);
    let names: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_owned(), m.unit))
        .collect();
    // Per-round values of the four per-iteration metrics.
    let per_round: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| metrics::end_to_end(&Round::merge(std::slice::from_ref(r), true), &[], &[]))
        .collect();
    let mut round_values = Vec::new();
    let mut round_spread = Vec::new();
    for (i, m) in END_TO_END.iter().enumerate().take(4) {
        let column: Vec<f64> = per_round.iter().map(|v| v[i]).collect();
        round_spread.push((m.name.to_owned(), Value::num(stats::spread(&column))));
        round_values.push((m.name.to_owned(), floats(&column)));
    }
    round_spread.push((
        "setup_s".to_owned(),
        Value::num(stats::spread(&scaled_setups)),
    ));
    let speeds: Vec<f64> = rounds.iter().map(|r| r.speed).collect();
    let iterations: usize = rounds.iter().map(|r| r.iterations).sum();
    let mut report = base_report(workload, params, false);
    report.extend([
        ("iterations".to_owned(), Value::Num(iterations as f64)),
        (
            "tail_percentile".to_owned(),
            stats::supported_tail(iterations).map_or(Value::Null, Value::num),
        ),
        (
            "reference_kernel_s".to_owned(),
            Value::num(calib::REFERENCE_S),
        ),
        ("round_speed_factor".to_owned(), floats(&speeds)),
        ("setup_speed_factor".to_owned(), floats(&setup_speeds)),
        ("setup_samples_raw_s".to_owned(), floats(&setups)),
        ("peak_samples".to_owned(), floats(&peaks)),
        (
            "raw".to_owned(),
            Value::Obj(
                names
                    .iter()
                    .zip(&raw)
                    .map(|((n, _), v)| (n.clone(), Value::num(*v)))
                    .collect(),
            ),
        ),
        ("rounds".to_owned(), Value::Obj(round_values)),
        ("round_spread".to_owned(), Value::Obj(round_spread)),
    ]);
    eprintln!(
        "{}: {iterations} iterations at {} jobs, {} set-ups, host speed x{:.3}",
        workload.name(),
        params.jobs,
        setups.len(),
        stats::median(&speeds)
    );
    emit(&tally, &names, &values, report)
}

/// `--trace 1`: the per-layer metrics of one workload.
fn measure_layers(
    workload: Workload,
    params: Params,
    seconds: f64,
    chrome_trace: Option<&str>,
) -> Result<bool, String> {
    let (setup, _, _) = setup_repeated(workload, params, 1, 0.0)?;
    let mut tally = Tally::default();
    let mut t = Tracer::new();
    let (mut samples, mut jobs1, mut jobs_n, mut obs_overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut speeds = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_TRACED || start.elapsed().as_secs_f64() < seconds {
        // One round: the traced pass, then the session at one and at
        // every core's worth of workers, all on the same input.
        t.iteration = samples.len();
        speeds.push(calib::factor(&[
            calib::sample(params.jobs),
            calib::sample(params.jobs),
        ]));
        let next = setup.next();
        let Some(counts) = tally.record(traced_pass(&setup, &next, &mut t)) else {
            break;
        };
        samples.push(Sample::from_spans(&t.spans, t.iteration, counts));
        for jobs in [1, params.jobs] {
            let again = setup.again(next.input);
            let result = t.span(&format!("session_jobs{jobs}"), || {
                catch_unwind(AssertUnwindSafe(|| setup.run_next(again, jobs)))
            });
            let wall = t.spans.last().map_or(0.0, traced::Span::duration);
            if let Some(run) = tally.record(checked(&setup, result)) {
                if jobs == 1 {
                    jobs1.push(wall);
                    obs_overhead.push(run.telemetry.gauge("obs.overhead.frac").unwrap_or(0.0));
                } else {
                    jobs_n.push(wall);
                }
            }
        }
    }
    // Allocation counts repeat exactly, so one counted pass gives them;
    // it runs last so its counting never slows a timed pass, and always
    // on the first input so the counts do not depend on how many passes
    // the time allowed.
    let mut counted_t = Tracer::new();
    alloc::start();
    let counts = tally.record(traced_pass(&setup, &setup.again(0), &mut counted_t));
    alloc::stop();
    let counted = Sample::from_spans(&counted_t.spans, 0, counts.unwrap_or_default());

    let values = metrics::per_layer(&TracedRun {
        samples: &samples,
        counted: &counted,
        session_jobs1: &jobs1,
        session_jobs: &jobs_n,
        obs_overhead: &obs_overhead,
    });
    let table = metrics::per_layer_table();
    let coverage = values[table.len() - 1];
    if coverage < 0.95 {
        tally.fail(format!(
            "layer calls cover only {coverage:.3} of the traced wall"
        ));
    }
    eprintln!(
        "{}: {} traced passes; self time per pass:",
        workload.name(),
        samples.len()
    );
    for (name, secs) in traced::self_time_table(&t.spans, samples.len()) {
        eprintln!("  {name:<28} {:>10.3} ms", secs * 1e3);
    }
    if let Some(path) = chrome_trace {
        let json = traced::chrome_trace(&t.spans, workload.name());
        disengage_obs::validate_chrome_trace(&json).map_err(|e| format!("chrome trace: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    let coverage_samples: Vec<f64> = samples.iter().map(Sample::coverage).collect();
    let mut report = base_report(workload, params, true);
    report.extend([
        ("traced_passes".to_owned(), Value::Num(samples.len() as f64)),
        ("session_jobs1_s".to_owned(), floats(&jobs1)),
        ("session_jobs_s".to_owned(), floats(&jobs_n)),
        ("coverage_samples".to_owned(), floats(&coverage_samples)),
        (
            "reference_kernel_s".to_owned(),
            Value::num(calib::REFERENCE_S),
        ),
        ("round_speed_factor".to_owned(), floats(&speeds)),
        (
            "round_spread".to_owned(),
            Value::Obj(vec![(
                "trace.coverage".to_owned(),
                Value::num(stats::spread(&coverage_samples)),
            )]),
        ),
    ]);
    let names: Vec<(String, &str)> = table.into_iter().map(|(n, u, _)| (n, u)).collect();
    emit(&tally, &names, &values, report)
}

/// `--smoke`: every workload at scale 0.05, two end-to-end iterations
/// and one traced pass each, every check on.
fn smoke() -> Result<bool, String> {
    let mut all = true;
    for workload in Workload::ALL {
        let start = Instant::now();
        let params = Params::new(None, available_cores(), Some(workload::SMOKE_SCALE));
        let (setup, _, _) = setup_repeated(workload, params, 1, 0.0)?;
        let mut tally = Tally::default();
        for _ in 0..2 {
            let result = catch_unwind(AssertUnwindSafe(|| setup.run(params.jobs)));
            tally.record(checked(&setup, result));
        }
        let mut t = Tracer::new();
        for i in 0..setup.inputs.len() {
            t.iteration = i;
            tally.record(traced_pass(&setup, &setup.next(), &mut t));
        }
        if let Err(e) =
            disengage_obs::validate_chrome_trace(&traced::chrome_trace(&t.spans, workload.name()))
        {
            tally.fail(format!("chrome trace: {e}"));
        }
        let ok = tally.failed == 0;
        all &= ok;
        eprintln!(
            "smoke {:<12} {} ({} checks, {:.2}s){}",
            workload.name(),
            if ok { "ok" } else { "FAILED" },
            tally.attempted,
            start.elapsed().as_secs_f64(),
            tally
                .first_error
                .map(|e| format!(": {e}"))
                .unwrap_or_default()
        );
    }
    Ok(all)
}
