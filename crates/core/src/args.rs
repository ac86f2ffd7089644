//! The command-line front end shared by the `disengage` and `repro`
//! binaries: how the shared flags parse ([`CommonArgs::parse`]), the
//! run they describe ([`CommonArgs::run_config`]), and what they ask
//! of the finished run: the `--lineage`, `--trace`, `--flight` and
//! `--prom` files ([`CommonArgs::write_exports`]) and the `--health`
//! rules ([`CommonArgs::health_rules`], loaded before the run so a bad
//! rule file fails before any work). Each binary keeps its own
//! recorders, commands and telemetry rendering, and calls these steps
//! in its own order.
//!
//! Every value-taking flag accepts both the `--flag value` and
//! `--flag=value` spellings (optional-value flags, such as
//! `--telemetry` and `--lineage`, take their value inline only, so a
//! bare flag never swallows the next argument). Unknown `--` flags are
//! an error (with usage text), not silently ignored; `--help` / `-h`
//! short-circuit to the usage text with exit 0.

use crate::telemetry::execution_trace_json;
use crate::RunConfig;
use disengage_chaos::FaultPlan;
use disengage_obs::{flight, health, Collector, HealthRule};
use disengage_par::TaskTimeline;
use std::fmt;
use std::path::Path;

/// How the run's telemetry is rendered on stdout/export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No telemetry rendering.
    #[default]
    Off,
    /// Human-readable span tree + metrics.
    Tree,
    /// Raw JSON (wall-clock timings and cache counters included).
    Json,
    /// Canonical JSON: wall clock zeroed, `cache.*` dropped — the
    /// byte-comparable form `scripts/verify.sh` diffs.
    StableJson,
}

/// How `disengage profile` renders the self-profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// No profile rendering (commands other than `profile` default
    /// here; `profile` itself upgrades it to the table).
    #[default]
    Off,
    /// Human-readable stage × phase table.
    Table,
    /// JSON (`ProfileReport::to_json`).
    Json,
    /// Folded stacks for speedscope / inferno.
    Folded,
}

/// A parse failure: the offending flag and why it was rejected. The
/// `Display` form is the single-line error the binaries print before
/// the usage text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// The flag (or bare argument) that failed.
    pub flag: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

impl ArgError {
    fn new(flag: &str, reason: impl Into<String>) -> ArgError {
        ArgError {
            flag: flag.to_owned(),
            reason: reason.into(),
        }
    }
}

/// The flags shared by every pipeline-driving binary, parsed from raw
/// arguments. Binary-specific flags can be layered on via
/// [`CommonArgs::parse_with`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommonArgs {
    /// Non-flag arguments, in order (subcommands, output paths).
    pub positional: Vec<String>,
    /// `--scale=` corpus scale factor, if given.
    pub scale: Option<f64>,
    /// `--seed=` corpus seed, if given.
    pub seed: Option<u64>,
    /// `--jobs=` worker-pool size (0 = all cores), if given.
    pub jobs: Option<usize>,
    /// `--telemetry[=MODE]` rendering mode (bare = tree).
    pub telemetry: TelemetryMode,
    /// `--chaos=RATE[,SEED[,ATTEMPTS]]` fault plan, if armed.
    pub chaos: Option<FaultPlan>,
    /// `--lineage[=PATH]`: record provenance; `Some(Some(path))` also
    /// exports the JSONL to `path`.
    pub lineage: Option<Option<String>>,
    /// `--trace=PATH`: export a Chrome trace to `path`.
    pub trace: Option<String>,
    /// `--profile[=MODE]` self-profile rendering (bare = table).
    pub profile: ProfileMode,
    /// `--cache-dir=PATH`: artifact-cache root.
    pub cache_dir: Option<String>,
    /// `--cache-cap=N`: per-stage artifact cap (0 = unbounded), if
    /// given.
    pub cache_cap: Option<usize>,
    /// `--shards=LIST`: comma-separated shard labels to run. Labels
    /// are `<manufacturer>_<filing-year>` (e.g. `waymo_2016`); an
    /// all-`-`-prefixed list excludes instead.
    pub shards: Option<Vec<String>>,
    /// `--flight=PATH`: export the canonical flight-recorder dump to
    /// `path` after the run (the crash dump is always-on regardless).
    pub flight: Option<String>,
    /// `--health[=FILE]`: evaluate health rules after the run;
    /// `Some(Some(path))` loads the rule file, `Some(None)` uses the
    /// built-in defaults.
    pub health: Option<Option<String>>,
    /// `--prom=PATH`: export the Prometheus/OpenMetrics text
    /// exposition to `path` after the run.
    pub prom: Option<String>,
    /// `--help` / `-h` was given.
    pub help: bool,
}

/// Splits one raw argument into `(flag, inline_value)` — the
/// `--flag=value` spelling carries its value inline.
fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((flag, value)) => (flag, Some(value)),
        None => (arg, None),
    }
}

impl CommonArgs {
    /// Parses the shared flags from raw arguments (without the program
    /// name). Unknown `--` flags are errors.
    ///
    /// # Errors
    ///
    /// An [`ArgError`] naming the offending flag: unknown flag,
    /// missing value, or malformed value.
    pub fn parse(args: &[String]) -> Result<CommonArgs, ArgError> {
        Self::parse_with(args, |_, _| Ok(false))
    }

    /// [`CommonArgs::parse`] with an escape hatch for binary-specific
    /// flags: `extra(flag, value)` returns `Ok(true)` to claim a flag,
    /// `Ok(false)` to fall through to the unknown-flag error.
    ///
    /// # Errors
    ///
    /// See [`CommonArgs::parse`]; `extra` can also raise its own.
    pub fn parse_with(
        args: &[String],
        mut extra: impl FnMut(&str, Option<&str>) -> Result<bool, ArgError>,
    ) -> Result<CommonArgs, ArgError> {
        let mut out = CommonArgs::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if arg == "-h" || arg == "--help" {
                out.help = true;
                i += 1;
                continue;
            }
            if !arg.starts_with("--") {
                out.positional.push(arg.clone());
                i += 1;
                continue;
            }
            let (flag, inline) = split_flag(arg);
            // A flag that requires a value takes it inline or from the
            // next argument.
            let mut take_value = |flag: &str| -> Result<String, ArgError> {
                if let Some(v) = inline {
                    return Ok(v.to_owned());
                }
                i += 1;
                match args.get(i) {
                    Some(v) => Ok(v.clone()),
                    None => Err(ArgError::new(flag, "expected a value")),
                }
            };
            match flag {
                "--scale" => {
                    let v = take_value(flag)?;
                    out.scale = Some(parse_scale(flag, &v)?);
                }
                "--seed" => {
                    let v = take_value(flag)?;
                    out.seed = Some(
                        v.parse()
                            .map_err(|_| ArgError::new(flag, format!("`{v}` is not a u64")))?,
                    );
                }
                "--jobs" => {
                    let v = take_value(flag)?;
                    out.jobs = Some(v.parse().map_err(|_| {
                        ArgError::new(flag, format!("`{v}` is not a worker count"))
                    })?);
                }
                "--telemetry" => {
                    // Value optional: bare `--telemetry` means the
                    // human-readable tree (the next argument is NOT
                    // consumed).
                    out.telemetry = match inline {
                        None | Some("tree") => TelemetryMode::Tree,
                        Some("off") => TelemetryMode::Off,
                        Some("json") => TelemetryMode::Json,
                        Some("stable-json") => TelemetryMode::StableJson,
                        Some(other) => {
                            return Err(ArgError::new(
                                flag,
                                format!("`{other}` is not off|tree|json|stable-json"),
                            ))
                        }
                    };
                }
                "--chaos" => {
                    let v = take_value(flag)?;
                    out.chaos = Some(parse_chaos(flag, &v)?);
                }
                "--lineage" => {
                    // Value optional: bare `--lineage` records without
                    // exporting (the next argument is NOT consumed).
                    out.lineage = Some(inline.map(str::to_owned));
                }
                "--trace" => {
                    out.trace = Some(take_value(flag)?);
                }
                "--profile" => {
                    // Value optional: bare `--profile` means the table
                    // (the next argument is NOT consumed).
                    out.profile = match inline {
                        None | Some("table") => ProfileMode::Table,
                        Some("off") => ProfileMode::Off,
                        Some("json") => ProfileMode::Json,
                        Some("folded") => ProfileMode::Folded,
                        Some(other) => {
                            return Err(ArgError::new(
                                flag,
                                format!("`{other}` is not off|table|json|folded"),
                            ))
                        }
                    };
                }
                "--cache-dir" => {
                    let v = take_value(flag)?;
                    if v.is_empty() {
                        return Err(ArgError::new(flag, "expected a directory path"));
                    }
                    out.cache_dir = Some(v);
                }
                "--cache-cap" => {
                    let v = take_value(flag)?;
                    out.cache_cap = Some(v.parse().map_err(|_| {
                        ArgError::new(flag, format!("`{v}` is not an entry count (0 = unbounded)"))
                    })?);
                }
                "--shards" => {
                    let v = take_value(flag)?;
                    let list: Vec<String> = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect();
                    if list.is_empty() {
                        return Err(ArgError::new(
                            flag,
                            "expected a comma-separated list of shard labels",
                        ));
                    }
                    out.shards = Some(list);
                }
                "--flight" => {
                    let v = take_value(flag)?;
                    if v.is_empty() {
                        return Err(ArgError::new(flag, "expected an output path"));
                    }
                    out.flight = Some(v);
                }
                "--health" => {
                    // Value optional: bare `--health` uses the built-in
                    // rules (the next argument is NOT consumed).
                    match inline {
                        Some("") => return Err(ArgError::new(flag, "expected a rule file path")),
                        other => out.health = Some(other.map(str::to_owned)),
                    }
                }
                "--prom" => {
                    let v = take_value(flag)?;
                    if v.is_empty() {
                        return Err(ArgError::new(flag, "expected an output path"));
                    }
                    out.prom = Some(v);
                }
                _ => {
                    if !extra(flag, inline)? {
                        return Err(ArgError::new(flag, "unknown flag"));
                    }
                }
            }
            i += 1;
        }
        Ok(out)
    }

    /// Rejects `--profile` with any mode but `off`, for every command
    /// but `disengage profile`: no other command renders a
    /// self-profile, so accepting the flag would ignore it.
    ///
    /// # Errors
    ///
    /// The usage error naming `disengage profile`.
    pub fn reject_profile(&self) -> Result<(), ArgError> {
        if self.profile == ProfileMode::Off {
            return Ok(());
        }
        Err(ArgError::new(
            "--profile",
            "only `disengage profile` renders a self-profile",
        ))
    }

    /// The run the flags describe: [`RunConfig::new`] (the paper
    /// corpus at seed `0x5EED`, scale 1.0, on all cores) with each
    /// corpus, worker, chaos, cache and shard flag that was given.
    pub fn run_config(&self) -> RunConfig {
        let mut config = RunConfig::new().with_jobs(self.jobs.unwrap_or(0));
        if let Some(seed) = self.seed {
            config.corpus.seed = seed;
        }
        if let Some(scale) = self.scale {
            config.corpus.scale = scale;
        }
        if let Some(plan) = self.chaos {
            config = config.with_chaos(plan);
        }
        if let Some(dir) = &self.cache_dir {
            config = config.with_cache_dir(dir);
        }
        if let Some(cap) = self.cache_cap {
            config = config.with_cache_cap(cap);
        }
        if let Some(shards) = &self.shards {
            config = config.with_shards(shards.clone());
        }
        config
    }

    /// Writes the `--lineage` JSONL, the `--trace` Chrome trace of
    /// `timeline`, the canonical `--flight` dump and the `--prom`
    /// exposition that the flags ask for, each followed by a `wrote`
    /// line on stderr.
    ///
    /// # Errors
    ///
    /// `could not write PATH: e` for the first file that fails.
    pub fn write_exports(&self, obs: &Collector, timeline: &TaskTimeline) -> Result<(), String> {
        let failed = |path: &str, e: std::io::Error| format!("could not write {path}: {e}");
        if let Some(Some(path)) = &self.lineage {
            let prov = obs.provenance();
            std::fs::write(path, prov.to_jsonl()).map_err(|e| failed(path, e))?;
            eprintln!("wrote {path} ({} events)", prov.entries().len());
        }
        if let Some(path) = &self.trace {
            let body = execution_trace_json(&obs.report(), timeline);
            std::fs::write(path, body).map_err(|e| failed(path, e))?;
            eprintln!("wrote {path} ({} tasks)", timeline.len());
        }
        if let Some(path) = &self.flight {
            let suspects = flight::suspects(&obs.provenance(), 8);
            flight::write_dump(Path::new(path), obs, None, "run complete", &suspects, true)
                .map_err(|e| failed(path, e))?;
            eprintln!("wrote {path}");
        }
        if let Some(path) = &self.prom {
            let body = disengage_obs::render_prometheus(&obs.report());
            std::fs::write(path, body).map_err(|e| failed(path, e))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }

    /// Loads the health rules a run is to be judged by, before it
    /// runs: the rules `--health=FILE` names, or the built-in rules
    /// for a bare `--health` or a `required` verdict; `None` when
    /// neither asks for one. A binary evaluates them against the
    /// finished run with [`health::evaluate`].
    ///
    /// # Errors
    ///
    /// `PATH: e` when the rule file cannot be read or parsed.
    pub fn health_rules(&self, required: bool) -> Result<Option<Vec<HealthRule>>, String> {
        Ok(Some(match &self.health {
            None if !required => return Ok(None),
            Some(Some(path)) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                health::parse_rules(&text).map_err(|e| format!("{path}: {e}"))?
            }
            _ => health::default_rules(),
        }))
    }

    /// The usage lines for the shared flags, for embedding in each
    /// binary's help text.
    pub fn shared_usage() -> &'static str {
        "  --scale=F           corpus scale factor in (0, 4] (default 1.0)\n\
         \x20 --seed=N            corpus seed (default 0x5EED)\n\
         \x20 --jobs=N            worker-pool size; 0 = all cores (default)\n\
         \x20 --telemetry[=MODE]  off|tree|json|stable-json (bare = tree; default off)\n\
         \x20 --chaos=RATE[,SEED[,ATTEMPTS]]  arm fault injection\n\
         \x20 --lineage[=PATH]    record provenance; optionally export JSONL\n\
         \x20 --trace=PATH        export a Chrome execution trace\n\
         \x20 --profile[=MODE]    off|table|json|folded self-profile view (bare = table;\n\
         \x20                     `disengage profile` only)\n\
         \x20 --cache-dir=PATH    content-addressed stage artifact cache\n\
         \x20 --cache-cap=N       per-stage cached-artifact cap; 0 = unbounded\n\
         \x20                     (default scales with the shard count)\n\
         \x20 --shards=LIST       run only these corpus shards (labels like\n\
         \x20                     waymo_2016; prefix every label with - to exclude)\n\
         \x20 --flight=PATH       export the canonical flight-recorder dump\n\
         \x20 --health[=FILE]     evaluate health rules after the run (bare = built-ins)\n\
         \x20 --prom=PATH         export the Prometheus text exposition\n\
         \x20 -h, --help          this help"
    }
}

/// Parses `--scale`: a float in (0, 4].
fn parse_scale(flag: &str, v: &str) -> Result<f64, ArgError> {
    let scale: f64 = v
        .parse()
        .map_err(|_| ArgError::new(flag, format!("`{v}` is not a number")))?;
    if !(scale > 0.0 && scale <= 4.0) {
        return Err(ArgError::new(flag, format!("{scale} is outside (0, 4]")));
    }
    Ok(scale)
}

/// Parses `--chaos=RATE[,SEED[,ATTEMPTS]]` into a [`FaultPlan`]. The
/// `RATE[,SEED]` prefix delegates to [`FaultPlan::parse`] (so the CLI
/// form and its default seed stay in one place); the optional third
/// component overrides the repair-attempt budget.
fn parse_chaos(flag: &str, v: &str) -> Result<FaultPlan, ArgError> {
    let parts: Vec<&str> = v.split(',').collect();
    if parts.len() > 3 {
        return Err(ArgError::new(flag, "expected RATE[,SEED[,ATTEMPTS]]"));
    }
    let mut plan = FaultPlan::parse(&parts[..parts.len().min(2)].join(","))
        .map_err(|e| ArgError::new(flag, e))?;
    if let Some(attempts) = parts.get(2) {
        plan.repair_attempts = attempts
            .parse()
            .map_err(|_| ArgError::new(flag, format!("attempts `{attempts}` is not a u32")))?;
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonArgs, ArgError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CommonArgs::parse(&owned)
    }

    #[test]
    fn both_spellings_parse() {
        let eq = parse(&["--scale=0.5", "--seed=7", "--jobs=2"]).unwrap();
        let sp = parse(&["--scale", "0.5", "--seed", "7", "--jobs", "2"]).unwrap();
        assert_eq!(eq, sp);
        assert_eq!(eq.scale, Some(0.5));
        assert_eq!(eq.seed, Some(7));
        assert_eq!(eq.jobs, Some(2));
    }

    #[test]
    fn positionals_survive_around_flags() {
        let a = parse(&["run", "--jobs=1", "out.json"]).unwrap();
        assert_eq!(a.positional, ["run", "out.json"]);
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert_eq!(err.flag, "--bogus");
        assert!(err.reason.contains("unknown"));
        // Misspellings of real flags fail too, loudly.
        assert!(parse(&["--job=2"]).is_err());
        assert!(parse(&["--cachedir=x"]).is_err());
    }

    #[test]
    fn help_short_and_long() {
        assert!(parse(&["-h"]).unwrap().help);
        assert!(parse(&["--help"]).unwrap().help);
        assert!(!parse(&[]).unwrap().help);
    }

    #[test]
    fn malformed_values_are_rejected() {
        // Scale: not a number, zero, negative, above the cap.
        for bad in ["--scale=abc", "--scale=0", "--scale=-1", "--scale=4.5"] {
            assert!(parse(&[bad]).is_err(), "{bad} must fail");
        }
        // Seed and jobs: non-numeric and negative.
        for bad in ["--seed=x", "--seed=-1", "--jobs=many", "--jobs=-2"] {
            assert!(parse(&[bad]).is_err(), "{bad} must fail");
        }
        // Telemetry: unknown mode (an empty `=` value is also unknown).
        assert!(parse(&["--telemetry=loud"]).is_err());
        assert!(parse(&["--telemetry="]).is_err());
        // Profile: unknown mode.
        assert!(parse(&["--profile=flame"]).is_err());
        assert!(parse(&["--profile="]).is_err());
        // Chaos: bad rate, rate out of range, bad seed, junk attempts.
        for bad in [
            "--chaos=abc,7",
            "--chaos=1.5,7",
            "--chaos=0.1,x",
            "--chaos=0.1,7,many",
            "--chaos=0.1,7,3,9",
        ] {
            assert!(parse(&[bad]).is_err(), "{bad} must fail");
        }
        // Values must exist at all.
        for bad in ["--scale", "--seed", "--jobs", "--chaos", "--trace"] {
            assert!(parse(&[bad]).is_err(), "{bad} without value must fail");
        }
        // --cache-dir needs a non-empty path.
        assert!(parse(&["--cache-dir="]).is_err());
        // --cache-cap needs a non-negative integer.
        for bad in [
            "--cache-cap",
            "--cache-cap=",
            "--cache-cap=lots",
            "--cache-cap=-1",
        ] {
            assert!(parse(&[bad]).is_err(), "{bad} must fail");
        }
        // --shards needs a non-empty label list.
        for bad in ["--shards", "--shards=", "--shards=,", "--shards= , "] {
            assert!(parse(&[bad]).is_err(), "{bad} must fail");
        }
    }

    #[test]
    fn shards_parse_as_trimmed_label_list() {
        assert_eq!(parse(&[]).unwrap().shards, None);
        let a = parse(&["--shards=waymo_2016"]).unwrap();
        assert_eq!(a.shards, Some(vec!["waymo_2016".to_owned()]));
        let b = parse(&["--shards", "waymo_2016, tesla_2016"]).unwrap();
        assert_eq!(
            b.shards,
            Some(vec!["waymo_2016".to_owned(), "tesla_2016".to_owned()])
        );
        // Exclusion labels pass through verbatim; the session resolves
        // the `-` prefix against the enumeration.
        let c = parse(&["--shards=-waymo_2016"]).unwrap();
        assert_eq!(c.shards, Some(vec!["-waymo_2016".to_owned()]));
    }

    #[test]
    fn cache_cap_parses_including_unbounded_zero() {
        assert_eq!(parse(&[]).unwrap().cache_cap, None);
        assert_eq!(parse(&["--cache-cap=16"]).unwrap().cache_cap, Some(16));
        assert_eq!(parse(&["--cache-cap", "3"]).unwrap().cache_cap, Some(3));
        assert_eq!(parse(&["--cache-cap=0"]).unwrap().cache_cap, Some(0));
    }

    #[test]
    fn chaos_parses_with_and_without_attempts() {
        // Rate alone gets the default injection seed (the legacy CLI form).
        let one = parse(&["--chaos=0.05"]).unwrap().chaos.unwrap();
        assert_eq!(one.seed, FaultPlan::parse("0.05").unwrap().seed);
        let two = parse(&["--chaos=0.05,7"]).unwrap().chaos.unwrap();
        assert_eq!((two.rate, two.seed), (0.05, 7));
        let three = parse(&["--chaos=0.05,7,3"]).unwrap().chaos.unwrap();
        assert_eq!(three.repair_attempts, 3);
    }

    #[test]
    fn telemetry_value_is_optional_and_not_greedy() {
        // Bare --telemetry is the tree view and must not swallow the
        // next positional (the pre-refactor CLI accepted it bare).
        let a = parse(&["--telemetry", "summary"]).unwrap();
        assert_eq!(a.telemetry, TelemetryMode::Tree);
        assert_eq!(a.positional, ["summary"]);
        assert_eq!(
            parse(&["--telemetry=stable-json"]).unwrap().telemetry,
            TelemetryMode::StableJson
        );
    }

    #[test]
    fn only_profile_off_passes_the_profile_rejection() {
        assert_eq!(parse(&[]).unwrap().reject_profile(), Ok(()));
        assert_eq!(parse(&["--profile=off"]).unwrap().reject_profile(), Ok(()));
        for flag in ["--profile", "--profile=json", "--profile=folded"] {
            let err = parse(&[flag]).unwrap().reject_profile().unwrap_err();
            assert_eq!(err.flag, "--profile");
            assert!(err.to_string().contains("disengage profile"), "{err}");
        }
    }

    #[test]
    fn profile_value_is_optional_and_not_greedy() {
        // Bare --profile is the table view and must not swallow the
        // next positional.
        let a = parse(&["--profile", "profile"]).unwrap();
        assert_eq!(a.profile, ProfileMode::Table);
        assert_eq!(a.positional, ["profile"]);
        assert_eq!(
            parse(&["--profile=json"]).unwrap().profile,
            ProfileMode::Json
        );
        assert_eq!(
            parse(&["--profile=folded"]).unwrap().profile,
            ProfileMode::Folded
        );
        assert_eq!(parse(&["--profile=off"]).unwrap().profile, ProfileMode::Off);
        assert_eq!(parse(&[]).unwrap().profile, ProfileMode::Off);
    }

    #[test]
    fn lineage_value_is_optional_and_not_greedy() {
        // Bare --lineage must not swallow the next positional.
        let a = parse(&["--lineage", "run"]).unwrap();
        assert_eq!(a.lineage, Some(None));
        assert_eq!(a.positional, ["run"]);
        let b = parse(&["--lineage=out.jsonl"]).unwrap();
        assert_eq!(b.lineage, Some(Some("out.jsonl".to_owned())));
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&["--flight=f.json", "--prom=m.prom"]).unwrap();
        assert_eq!(a.flight.as_deref(), Some("f.json"));
        assert_eq!(a.prom.as_deref(), Some("m.prom"));
        assert_eq!(a.health, None);
        // Bare --health uses built-in rules and must not swallow the
        // next positional.
        let b = parse(&["--health", "run"]).unwrap();
        assert_eq!(b.health, Some(None));
        assert_eq!(b.positional, ["run"]);
        let c = parse(&["--health=rules.txt"]).unwrap();
        assert_eq!(c.health, Some(Some("rules.txt".to_owned())));
        // Empty values are rejected.
        for bad in ["--flight=", "--prom=", "--health="] {
            assert!(parse(&[bad]).is_err(), "{bad} must fail");
        }
    }

    #[test]
    fn run_config_is_the_paper_run_with_each_flag_in_its_field() {
        assert_eq!(parse(&[]).unwrap().run_config(), RunConfig::new());
        let config = parse(&[
            "--seed=7",
            "--scale=0.5",
            "--jobs=3",
            "--chaos=0.05,9",
            "--cache-dir=.cache",
            "--cache-cap=4",
            "--shards=waymo_2016",
        ])
        .unwrap()
        .run_config();
        let expected = RunConfig::new()
            .with_corpus(disengage_corpus::CorpusConfig {
                seed: 7,
                scale: 0.5,
            })
            .with_jobs(3)
            .with_chaos(FaultPlan::parse("0.05,9").unwrap())
            .with_cache_dir(".cache")
            .with_cache_cap(4)
            .with_shards(vec!["waymo_2016".to_owned()]);
        assert_eq!(config, expected);
    }

    #[test]
    fn health_rules_load_only_when_asked_for() {
        let plain = parse(&[]).unwrap();
        assert_eq!(plain.health_rules(false), Ok(None));
        let defaults = Some(health::default_rules());
        assert_eq!(plain.health_rules(true), Ok(defaults.clone()));
        let bare = parse(&["--health"]).unwrap();
        assert_eq!(bare.health_rules(false), Ok(defaults));
        let missing = parse(&["--health=no/such/rules.txt"]).unwrap();
        let err = missing.health_rules(false).unwrap_err();
        assert!(err.starts_with("no/such/rules.txt: "), "{err}");
    }

    #[test]
    fn extra_flags_can_be_claimed() {
        let owned: Vec<String> = vec!["--fail-fast".into(), "--jobs=1".into()];
        let mut seen = Vec::new();
        let a = CommonArgs::parse_with(&owned, |flag, value| {
            if flag == "--fail-fast" {
                seen.push((flag.to_owned(), value.map(str::to_owned)));
                return Ok(true);
            }
            Ok(false)
        })
        .unwrap();
        assert_eq!(a.jobs, Some(1));
        assert_eq!(seen, [("--fail-fast".to_owned(), None)]);
    }
}
