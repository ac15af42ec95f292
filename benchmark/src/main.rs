//! Command line of the benchmark. With `--workload` it runs that
//! workload in this process and ends with the one-line JSON result the
//! driver reads; without, it runs the whole suite, one child process per
//! workload so `/proc/self` counters are per workload.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dxh_benchmark::host::{self, Fingerprint};
use dxh_benchmark::report::{quartiles, Metrics, RunResult};
use dxh_benchmark::spec::{
    metric_def, MetricDef, Sizes, Workload, END_TO_END, NOMINAL_SECONDS, PER_LAYER, RUN_SECONDS,
    SMOKE_SCALE,
};
use dxh_benchmark::trace::{Epoch, Trace};
use dxh_benchmark::{e2e, ladder};

const USAGE: &str = "usage: dxh-benchmark [--workload ingest|lookup|hot|blob] [--seed N] \
[--seconds S] [--trace [0|1]] [--smoke] [--aa N] [--dir PATH]
  --workload W  run one workload in this process; the last line of output is the JSON result
  (no workload) run all four, each in a child process
  --seed N      seed of every generator (default 42)
  --seconds S   size of a run: op counts scale by S/20 (default: BENCHMARK.json's run_seconds)
  --trace [1]   traced run: per-layer metrics, spans to <dir>/<workload>.trace.json
  --smoke       all four workloads, untraced and traced, at 0.02 of the nominal counts
  --aa N        the suite N times, workloads interleaved, seeds N apart; spread per metric
  --dir PATH    where data and traces go (default benchmark/out)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<u32>,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        aa: None,
        dir: host::default_out_dir(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` means 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = Some(value("a count")?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--dir" => args.dir = PathBuf::from(value("a path")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.smoke {
        args.seconds = NOMINAL_SECONDS * SMOKE_SCALE;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome =
        std::fs::create_dir_all(&args.dir).map_err(|e| e.to_string()).and_then(|()| {
            match (args.workload, args.aa) {
                (Some(workload), _) => run_one(workload, &args),
                (None, Some(rounds)) => run_aa(rounds, &args),
                (None, None) => run_suite(&args),
            }
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}

/// Puts `found` in registry order and insists every metric of `defs` is
/// there once and finite.
fn in_registry_order(defs: &[MetricDef], found: &Metrics) -> Result<Metrics, String> {
    defs.iter()
        .map(|def| {
            let mut hits = found.iter().filter(|(name, _)| *name == def.name);
            match (hits.next(), hits.next()) {
                (Some(&(_, v)), None) if v.is_finite() => Ok((def.name, v)),
                (Some(&(_, v)), None) => Err(format!("metric {} is not finite: {v}", def.name)),
                (None, _) => Err(format!("metric {} was not measured", def.name)),
                _ => Err(format!("metric {} was measured twice", def.name)),
            }
        })
        .collect()
}

fn print_metrics(metrics: &Metrics) {
    for (name, value) in metrics {
        let unit = metric_def(name).map_or("", |d| d.unit);
        println!("  {name:<40} {value:>16.6} {unit}");
    }
}

/// One workload in this process. Returns whether the run was correct.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let sizes = Sizes::at_seconds(args.seconds);
    let epoch = Epoch::start();
    println!("{}", Fingerprint::collect(&args.dir).header());
    println!(
        "# workload {} | seed {} | seconds {} (scale {:.4} of the nominal counts) | {} clients",
        workload.name(),
        args.seed,
        args.seconds,
        sizes.scale,
        dxh_benchmark::spec::CLIENTS
    );
    let plain = e2e::run(workload, args.seed, &sizes, &args.dir, epoch, None)?;
    let e2e_metrics = in_registry_order(END_TO_END, &plain.gated)?;
    println!("# end to end, untraced");
    print_metrics(&e2e_metrics);
    if !args.trace {
        println!(
            "# timed phase, untraced: per-layer metrics of the top layer, not gated ({} \
             write-call and {} read samples behind the medians)",
            plain.write_samples, plain.read_samples
        );
        print_metrics(&plain.timing);
    }
    let (mut attempted, mut failed) = (plain.attempted, plain.failed);
    let mut wedged = plain.wedged_shards;
    let metrics = if args.trace {
        let mut trace = Trace::default();
        let traced = e2e::run(workload, args.seed, &sizes, &args.dir, epoch, Some(&mut trace))?;
        let ladder = ladder::run(workload, args.seed, &sizes, &args.dir, epoch, &mut trace)?;
        attempted += traced.attempted + ladder.attempted;
        failed += traced.failed + ladder.failed;
        wedged += traced.wedged_shards;
        let mut found = plain.timing;
        found.extend(traced.service);
        found.extend(ladder.metrics);
        let overhead = traced.timed_wall_ns as f64 / plain.timed_wall_ns as f64 - 1.0;
        found.push(("trace.overhead_frac", overhead));
        let layers = in_registry_order(PER_LAYER, &found)?;
        let path = args.dir.join(format!("{}.trace.json", workload.name()));
        trace.write(&path, workload.name(), args.seed, &layers).map_err(|e| e.to_string())?;
        println!(
            "# per layer, traced (op stream hash {:016x}; {} spans and {} calls in {})",
            ladder.stream_hash,
            trace.spans.len(),
            trace.calls.len(),
            path.display()
        );
        print_metrics(&layers);
        println!("  trace_overhead_frac = {overhead:.4} (traced vs untraced timed-phase wall)");
        layers
    } else {
        e2e_metrics
    };
    let correct = failed == 0 && wedged == 0;
    if !correct {
        eprintln!("error: {failed} of {attempted} ops failed, {wedged} shards wedged");
    }
    println!("{}", RunResult { correct, attempted, failed, metrics }.to_json_line());
    Ok(correct)
}

/// Runs one workload in a child process of this same program.
fn run_child(workload: Workload, seed: u64, trace: bool, args: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&args.dir)
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match RunResult::from_json_line(last) {
        Ok(result) if output.status.success() || !result.correct => Ok(result),
        _ => Err(format!(
            "the {} child failed ({}): {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

fn print_result(workload: Workload, traced: bool, result: &RunResult) {
    println!(
        "== {}{}: {} ({} of {} ops failed)",
        workload.name(),
        if traced { " (traced)" } else { "" },
        if result.correct { "correct" } else { "INCORRECT" },
        result.failed,
        result.attempted
    );
    print_metrics(&result.metrics);
}

/// All four workloads once; with `--trace` or `--smoke` a traced run of
/// each as well.
fn run_suite(args: &Args) -> Result<bool, String> {
    println!("{}", Fingerprint::collect(&args.dir).header());
    let mut all_correct = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            if traced && !(args.trace || args.smoke) {
                continue;
            }
            let result = run_child(workload, args.seed, traced, args)?;
            print_result(workload, traced, &result);
            all_correct &= result.correct;
        }
    }
    Ok(all_correct)
}

/// The suite `rounds` times, workloads interleaved so the host's drift
/// hits each alike, then each end-to-end metric's spread across the
/// rounds the way the driver computes it, against its bound.
fn run_aa(rounds: u32, args: &Args) -> Result<bool, String> {
    println!("{}", Fingerprint::collect(&args.dir).header());
    println!("# A/A: {rounds} rounds of {{ingest, lookup, hot, blob}}, seeds {}..", args.seed);
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
    let mut all_correct = true;
    for round in 0..rounds {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let result = run_child(workload, args.seed + u64::from(round), false, args)?;
            all_correct &= result.correct;
            for (m, (_, value)) in
                in_registry_order(END_TO_END, &result.metrics)?.iter().enumerate()
            {
                values[w][m].push(*value);
            }
        }
        println!("# round {} done", round + 1);
    }
    let mut steady = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        println!("== {}", workload.name());
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>9} {:>7}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (m, def) in END_TO_END.iter().enumerate() {
            let (q1, median, q3) = quartiles(&values[w][m]);
            let spread = (q3 - q1) / median;
            let bound = def.bound.expect("end-to-end metrics have bounds");
            // The driver lets setup_s spread freely; only its medians are compared.
            let verdict = if spread * 3.0 <= bound {
                "steady"
            } else if spread <= bound || def.name == "setup_s" {
                "within bound"
            } else {
                steady = false;
                "WIDER THAN BOUND"
            };
            println!(
                "  {:<16} {q1:>12.5} {median:>12.5} {q3:>12.5} {:>8.2}% {:>6.0}%  {verdict}",
                def.name,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("# the spreads above are this host's noise floor for these bounds");
    Ok(all_correct && steady)
}
