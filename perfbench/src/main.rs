//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bba-scale|mpc-plan|rl-onboard|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare <old.jsonl> <new.jsonl>
//! ```
//!
//! One process builds the workload's inputs from the seed (set-up, timed
//! several times), then runs the scenario matrix through `Fleet::run` as a
//! closed loop — workers pull tiles from the executor's cursor — alternating
//! `workers = nproc` and `workers = 1` until `--seconds` have passed. The
//! throughputs are scaled to the reference host speed that [`calib`]
//! measures next to each run. Every run's aggregates are checked (see
//! [`Checker`]). `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ledger of
//! [`ledger`]. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a failed output check
//! makes the process exit non-zero after printing it.

mod calib;
mod ledger;
mod stats;
mod workload;

use sensei_core::PolicyKind;
use sensei_fleet::json::{parse, Json};
use sensei_fleet::{Fleet, FleetConfig, FleetReport, FleetStats};
use stats::Samples;
use std::time::Instant;
use workload::Workload;

/// Hard cap on one workload's measuring loop, whatever `--seconds` says,
/// so a run always ends well inside its time limit.
const MAX_MEASURE_S: f64 = 120.0;

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--record" => args.record = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where a record was measured. `--compare` pairs records only when
/// their host fields — everything but the commit — are equal.
fn fingerprint(nproc: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    sensei_fleet::json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("profile", Json::Str(profile.into())),
        ("commit", Json::Str(git_commit())),
        (
            "workers",
            Json::Arr(vec![Json::Num(nproc as f64), Json::Num(1.0)]),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git (a
/// source export has no `.git`, and reports `unknown`).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or_default()
                        .to_string()
                })
            })
            .unwrap_or_default(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// Resets the process's resident-set high-water mark to its current RSS,
/// so that the next [`peak_rss_mb`] reads the peak of one phase. Where the
/// kernel refuses, the mark keeps counting from process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Process high-water resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean true-QoE gain of `sensei` over `twin`, in percent of the twin.
pub fn sensei_gain_pct(stats: &FleetStats, (sensei, twin): (PolicyKind, PolicyKind)) -> f64 {
    let mean = |k| stats.policy(k).map_or(f64::NAN, |p| p.qoe.mean());
    (mean(sensei) - mean(twin)) / mean(twin) * 100.0
}

/// The output checks every fleet report of a run must pass. A report
/// failing any of them counts all its scheduled sessions as failed.
///
/// * every scheduled session is aggregated;
/// * the aggregates equal the first report's, bit for bit — across
///   repeats, across worker counts, and with telemetry on or off;
/// * `FleetReport::to_json` → `from_json` round-trips equal;
/// * the SENSEI gain is bit-equal across repeats.
pub struct Checker {
    reference: Option<FleetStats>,
    gain_pair: Option<(PolicyKind, PolicyKind)>,
    pub gain_pct: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checker {
    pub fn new(gain_pair: Option<(PolicyKind, PolicyKind)>) -> Self {
        Self {
            reference: None,
            gain_pair,
            gain_pct: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, sessions: u64, why: String) -> bool {
        self.failed += sessions;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
        false
    }

    /// Checks one `Fleet::run` outcome over `scheduled` sessions; returns
    /// whether it passed.
    pub fn check(&mut self, scheduled: u64, outcome: &Result<FleetReport, String>) -> bool {
        self.attempted += scheduled;
        let report = match outcome {
            Ok(report) => report,
            Err(e) => return self.fail(scheduled, format!("fleet run failed: {e}")),
        };
        let stats = &report.stats;
        if stats.sessions != scheduled {
            return self.fail(
                scheduled,
                format!("{} of {scheduled} sessions aggregated", stats.sessions),
            );
        }
        match &self.reference {
            None => self.reference = Some(stats.clone()),
            Some(reference) if reference != stats => {
                return self.fail(
                    scheduled,
                    format!("aggregates differ at {} workers", report.workers),
                )
            }
            Some(_) => {}
        }
        match FleetReport::from_json(&report.to_json()) {
            Ok(back)
                if back.stats == report.stats
                    && back.workers == report.workers
                    && back.telemetry == report.telemetry
                    && back.shard == report.shard => {}
            Ok(_) => return self.fail(scheduled, "report JSON round-trip differs".into()),
            Err(e) => return self.fail(scheduled, format!("report JSON does not parse: {e}")),
        }
        if let Some(pair) = self.gain_pair {
            let gain = sensei_gain_pct(stats, pair);
            match self.gain_pct {
                None if gain.is_finite() => self.gain_pct = Some(gain),
                None => return self.fail(scheduled, format!("SENSEI gain is {gain}")),
                Some(first) if first.to_bits() != gain.to_bits() => {
                    return self.fail(scheduled, format!("SENSEI gain {gain} != {first}"))
                }
                Some(_) => {}
            }
        }
        true
    }
}

/// Runs the matrix once at `workers`, returning the report and the
/// `Fleet::run` wall time.
pub fn fleet_run(
    inputs: &workload::Inputs,
    workers: usize,
    telemetry: bool,
) -> (u64, Result<FleetReport, String>, f64) {
    let fleet = match Fleet::new(
        &inputs.experiment,
        &inputs.matrix,
        FleetConfig::new(workers).with_telemetry(telemetry),
    ) {
        Ok(fleet) => fleet,
        Err(e) => return (0, Err(e.to_string()), 0.0),
    };
    let scheduled = fleet.num_scenarios();
    let started = Instant::now();
    let report = fleet.run().map_err(|e| e.to_string());
    (scheduled, report, started.elapsed().as_secs_f64())
}

/// The set-up builds of one run: their times and their resident-set peaks.
#[derive(Default)]
struct Setup {
    times: Samples,
    rss_mb: Samples,
}

impl Setup {
    /// Builds the workload's inputs and records the set-up time —
    /// generation, onboarding, RL training and `Fleet` construction,
    /// everything before the first `run()` — and the build's peak RSS.
    fn build(
        &mut self,
        workload: Workload,
        seed: u64,
        nproc: usize,
    ) -> Result<workload::Inputs, String> {
        reset_peak_rss();
        let started = Instant::now();
        let inputs = workload::build(workload, seed)?;
        Fleet::new(&inputs.experiment, &inputs.matrix, FleetConfig::new(nproc))
            .map_err(|e| e.to_string())?;
        self.times.push(started.elapsed().as_secs_f64());
        self.rss_mb.push(peak_rss_mb());
        Ok(inputs)
    }
}

/// The fleet runs of one worker count, each next to a reference pass.
#[derive(Default)]
struct Throughput {
    sessions: u64,
    wall_s: f64,
    per_run: Samples,
    pass_s: Samples,
}

impl Throughput {
    fn push(&mut self, sessions: u64, wall_s: f64, pass_s: f64) {
        self.sessions += sessions;
        self.wall_s += wall_s;
        self.per_run.push(sessions as f64 / wall_s);
        self.pass_s.push(pass_s);
    }

    /// Sessions completed ÷ the wall time of all runs together. A shared
    /// host slows the program for seconds at a time; this total weighs each
    /// slow stretch by its length, where a median of per-run rates jumps
    /// between the fast and the slow mode as their shares cross one half.
    fn rate(&self) -> f64 {
        self.sessions as f64 / self.wall_s
    }

    /// [`Self::rate`] at the reference host speed: scaled by the median
    /// reference pass time of the run over its nominal time.
    fn reference_rate(&self) -> f64 {
        self.rate() * self.pass_s.median() / calib::REFERENCE_PASS_S
    }
}

/// Everything one workload run reports.
struct Outcome {
    metrics: Vec<Metric>,
    checker: Checker,
}

fn measure_end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Result<Outcome, String> {
    let mut checker = Checker::new(workload.gain_pair());
    let mut setup = Setup::default();
    let (mut rate, mut rate_1w) = (Throughput::default(), Throughput::default());
    let mut run_rss = Samples::new();
    let reference = calib::Reference::new();
    let repeats = workload.setup_repeats();
    let mut inputs = Some(setup.build(workload, seed, nproc)?);
    describe_inputs(workload, seed, inputs.as_ref().expect("just built"));
    let started = Instant::now();
    let mut warm = false;
    loop {
        // The set-up repeats are spread evenly over the run, so their
        // median averages the host's speed over the run as the throughput
        // samples do. Each rebuild replaces the inputs (built identically
        // from the seed, which the aggregate check confirms), so only one
        // copy is ever alive.
        let built = setup.times.len();
        if built < repeats
            && started.elapsed().as_secs_f64() >= built as f64 * seconds / repeats as f64
        {
            drop(inputs.take());
            inputs = Some(setup.build(workload, seed, nproc)?);
        }
        let inputs = inputs.as_ref().expect("inputs are rebuilt in place");
        // Alternate the two widths so drift on a shared host hits both
        // alike. The first pair is checked but not timed: it warms caches.
        for (workers, throughput) in [(nproc, &mut rate), (1, &mut rate_1w)] {
            let pass_s = reference.seconds(workers);
            reset_peak_rss();
            let (scheduled, report, wall) = fleet_run(inputs, workers, false);
            run_rss.push(peak_rss_mb());
            if checker.check(scheduled, &report) && warm {
                throughput.push(scheduled, wall, pass_s);
            }
        }
        warm = true;
        let elapsed = started.elapsed().as_secs_f64();
        let enough =
            (rate_1w.per_run.len() >= 3 && setup.times.len() >= repeats) || checker.failed > 0;
        if (elapsed >= seconds && enough) || elapsed >= MAX_MEASURE_S {
            break;
        }
    }
    let name = workload.name();
    let rss = setup.rss_mb.median().max(run_rss.median());
    for (suffix, throughput, width) in [("", &rate, nproc), ("_1w", &rate_1w, 1)] {
        println!(
            "[{name}] sessions_per_s{suffix} {:.4} sessions/s at {width} workers; per run {}",
            throughput.rate(),
            throughput.per_run.describe_spread()
        );
        println!(
            "[{name}] sessions_per_ref_s{suffix} {:.4} sessions/ref-s; reference pass {} s on {width} threads",
            throughput.reference_rate(),
            throughput.pass_s.describe_spread()
        );
    }
    println!(
        "[{name}] setup_s           {} s",
        setup.times.describe_spread()
    );
    println!(
        "[{name}] peak_rss_mb       {rss:.2} MiB (set-up {}; fleet runs {})",
        setup.rss_mb.describe_spread(),
        run_rss.describe_spread()
    );
    let failed_share = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "[{name}] failed_share      {failed_share} ratio ({} of {} sessions)",
        checker.failed, checker.attempted
    );
    match checker.gain_pct {
        Some(g) => println!(
            "[{name}] sensei_gain_pct   {g} %  (bit-equal across {} runs)",
            rate.per_run.len() + rate_1w.per_run.len() + 2
        ),
        None => println!("[{name}] sensei_gain_pct   n/a % (no SENSEI policy in this workload)"),
    }
    let metrics = vec![
        (
            "sessions_per_ref_s".into(),
            rate.reference_rate(),
            "sessions/ref-s",
        ),
        (
            "sessions_per_ref_s_1w".into(),
            rate_1w.reference_rate(),
            "sessions/ref-s",
        ),
        ("setup_s".into(), setup.times.median(), "s"),
        ("peak_rss_mb".into(), rss, "MiB"),
    ];
    Ok(Outcome { metrics, checker })
}

fn describe_inputs(workload: Workload, seed: u64, inputs: &workload::Inputs) {
    let experiment = &inputs.experiment;
    println!(
        "[{}] seed {seed}: {} videos x {} traces x {} perturbations x {} players x {} policies = {} sessions per run",
        workload.name(),
        experiment.assets.len(),
        experiment.traces.len(),
        inputs.matrix.perturbations().len(),
        inputs.matrix.num_players(),
        inputs.matrix.policies().len(),
        inputs.matrix.num_scenarios(experiment),
    );
    let chunks: usize = experiment
        .assets
        .iter()
        .map(|a| a.source.num_chunks())
        .sum();
    println!(
        "[{}] {:.1} chunks per video, {:.0} kbps mean trace throughput",
        workload.name(),
        chunks as f64 / experiment.assets.len() as f64,
        experiment.traces.iter().map(|t| t.mean_kbps()).sum::<f64>()
            / experiment.traces.len() as f64
    );
}

fn run_workload(workload: Workload, args: &Args, nproc: usize) -> Result<Outcome, String> {
    if !args.trace {
        return measure_end_to_end(workload, args.seed, args.seconds, nproc);
    }
    // The traced run does not report set-up, so it builds once.
    let inputs = Setup::default().build(workload, args.seed, nproc)?;
    describe_inputs(workload, args.seed, &inputs);
    let mut checker = Checker::new(workload.gain_pair());
    let metrics = ledger::run(
        workload,
        &inputs,
        args.seed,
        args.seconds,
        nproc,
        &mut checker,
    );
    Ok(Outcome { metrics, checker })
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                num(*value),
                unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn compact(json: &Json) -> String {
    match json {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(v) => num(*v),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(compact).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(members) => format!(
            "{{{}}}",
            members
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), compact(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// `--compare OLD NEW`: per workload and metric, the median of each
/// file's records — only between records with equal host fingerprints.
fn compare(old: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Vec<Json>, String> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .map(|l| parse(l).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let (old, new) = (load(old)?, load(new)?);
    let key = |r: &Json| {
        (
            r.get("workload").and_then(Json::as_str).map(str::to_string),
            matches!(r.get("trace"), Some(Json::Bool(true))),
        )
    };
    let median_of = |records: &[&Json], metric: &str| {
        let mut s = Samples::new();
        for r in records {
            if let Some(v) = r
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
            {
                s.push(v);
            }
        }
        (s.len() > 0).then(|| s.median())
    };
    let host = |r: &Json| match r.get("fingerprint") {
        Some(Json::Obj(fields)) => {
            let mut fields = fields.clone();
            fields.remove("commit");
            compact(&Json::Obj(fields))
        }
        _ => "null".into(),
    };
    let mut all_comparable = true;
    let mut keys: Vec<_> = new.iter().map(key).collect();
    keys.sort();
    keys.dedup();
    for k in keys {
        let news: Vec<&Json> = new.iter().filter(|r| key(r) == k).collect();
        let fp = host(news[0]);
        let olds: Vec<&Json> = old
            .iter()
            .filter(|r| key(r) == k && host(r) == fp)
            .collect();
        let label = format!(
            "{} (trace {})",
            k.0.as_deref().unwrap_or("?"),
            u8::from(k.1)
        );
        if olds.is_empty() {
            println!("{label}: no old record with fingerprint {fp}; not compared");
            all_comparable = false;
            continue;
        }
        println!(
            "{label}: {} old vs {} new records, fingerprint {fp}",
            olds.len(),
            news.len()
        );
        if let Some(Json::Obj(metrics)) = news[0].get("metrics") {
            for name in metrics.keys() {
                if let (Some(a), Some(b)) = (median_of(&olds, name), median_of(&news, name)) {
                    let change = if a == 0.0 { 0.0 } else { (b - a) / a * 100.0 };
                    println!("  {name:<40} {a:>14.6} -> {b:>14.6}  ({change:+.2}% of old)");
                }
            }
        }
    }
    Ok(all_comparable)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        match argv.get(1..3).map(|p| compare(&p[0], &p[1])) {
            Some(Ok(true)) => return,
            Some(Ok(false)) => std::process::exit(2),
            Some(Err(e)) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
            None => {
                eprintln!("perfbench: --compare needs two record files");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::from_name(&args.workload) {
        vec![w]
    } else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let fingerprint = fingerprint(nproc);
    println!("[fingerprint] {}", compact(&fingerprint));

    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut all_metrics: Vec<Metric> = Vec::new();
    for &workload in &workloads {
        let outcome = match run_workload(workload, &args, nproc) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        };
        let checker = &outcome.checker;
        for e in &checker.errors {
            println!("[{}] CHECK FAILED: {e}", workload.name());
        }
        attempted += checker.attempted;
        failed += checker.failed;
        correct &= checker.failed == 0 && checker.attempted > 0;
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"fingerprint\": {}, \"metrics\": {}}}",
            workload.name(),
            args.seed,
            args.trace,
            compact(&fingerprint),
            metrics_json(&outcome.metrics)
        );
        println!("[record] {record}");
        if let Some(path) = &args.record {
            use std::io::Write as _;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{record}"));
            if let Err(e) = appended {
                eprintln!("perfbench: cannot append to {path}: {e}");
            }
        }
        if workloads.len() == 1 {
            all_metrics = outcome.metrics;
        } else {
            all_metrics.extend(
                outcome
                    .metrics
                    .into_iter()
                    .map(|(name, v, unit)| (format!("{}.{name}", workload.name()), v, unit)),
            );
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(&all_metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
