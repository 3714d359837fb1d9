//! End-to-end and per-layer benchmark of the Exoshuffle reproduction.
//!
//! ```text
//! perfbench --workload <xl_shuffle|ooc_sort|mt_service> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Sets the workload up (several times, reporting the median), then runs
//! whole rounds of its jobs until `--seconds` have passed, checks every
//! output, and prints one JSON line: `correct`, `attempted`, `failed` and
//! the metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! (from kernel-timed and traced passes) with `--trace 1`. See README.md.

mod check;
mod exec;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use exec::{Digests, Layers, Mode, Pass};
use workloads::{Plan, Round, Workload};

/// End-to-end metrics, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("logical_gb_per_s", "GB/s"),
    ("setup_s", "s"),
    ("peak_rss_bytes", "bytes"),
    ("sim_jct_s", "s"),
    ("sim_jct_tail_s", "s"),
    ("sim_recovery_s", "s"),
];

/// Per-layer metrics, with units.
const PER_LAYER: [(&str, &str); 39] = [
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("rt.engine_s", "s"),
    ("rt.tasks_completed", "count"),
    ("rt.tasks_reexecuted", "count"),
    ("rt.objects_reconstructed", "count"),
    ("rt.net_ops", "count"),
    ("rt.net_gb", "GB"),
    ("rt.disk_read_gb", "GB"),
    ("rt.disk_write_gb", "GB"),
    ("store.spilled_gb", "GB"),
    ("store.spill_files", "count"),
    ("store.restored_gb", "GB"),
    ("store.restore_ops", "count"),
    ("store.fallback_gb", "GB"),
    ("store.spill_writes_elided", "count"),
    ("store.evicted_unwritten", "count"),
    ("store.peak_used_gb", "GB"),
    ("core.tasks_simple", "count"),
    ("core.tasks_merge", "count"),
    ("core.tasks_push", "count"),
    ("core.tasks_push_star", "count"),
    ("sort.map_calls", "count"),
    ("sort.map_s", "s"),
    ("sort.merge_calls", "count"),
    ("sort.merge_s", "s"),
    ("sort.reduce_calls", "count"),
    ("sort.reduce_s", "s"),
    ("sort.real_gb", "GB"),
    ("jobs.admission_wait_s", "sim_s"),
    ("jobs.queued_admissions", "count"),
    ("watch.incidents", "count"),
    ("live.snapshots", "count"),
    ("trace.events", "count"),
    ("trace.chrome_export_s", "s"),
    ("trace.jsonl_export_s", "s"),
    ("trace.overhead_s", "s"),
    ("prof.profile_s", "s"),
    ("prof.trace_events_in", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        quick,
    })
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024.0)
}

/// The result of one benchmark run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    // Set-up: plan, configuration and a warm-up job. The first set-up is
    // timed from the start of `main`.
    let mut digests = Digests::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut t0 = started;
    let mut plan = None;
    for _ in 0..SETUPS {
        let p = Plan::new(args.workload, args.seed, args.quick);
        p.warm_up(&mut digests);
        setups.push(t0.elapsed().as_secs_f64());
        plan = Some(p);
        t0 = Instant::now();
    }
    let plan = plan.expect("at least one set-up");

    let measuring = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let mut peak_rss = None;
    loop {
        if args.trace {
            // Same round twice: kernel-timed, then traced. The traced
            // pass supplies the trace, profile and per-variant task
            // figures; the difference in engine time is the tracing
            // overhead.
            let mut timed = Pass::new(Mode::Timed);
            rounds.push(plan.round(&mut timed, &mut digests));
            let mut traced = Pass::new(Mode::Traced);
            rounds.push(plan.round(&mut traced, &mut digests));
            layers.push(merge_passes(timed.layers, &traced.layers));
        } else {
            let mut plain = Pass::new(Mode::Plain);
            rounds.push(plan.round(&mut plain, &mut digests));
            // Later rounds repeat the same work; the high-water mark they
            // add is allocator retention, which grows with the round count.
            if rounds.len() == 1 {
                peak_rss = peak_rss_bytes();
            }
        }
        if measuring.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    if rounds.iter().any(|r| r.jcts != rounds[0].jcts) {
        errors.push("simulated JCTs differ between rounds".into());
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let metrics = if args.trace {
        layer_medians(&layers)
    } else {
        end_to_end(&rounds, &setups, peak_rss)?
    };
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

fn end_to_end(
    rounds: &[Round],
    setups: &[f64],
    peak_rss: Option<f64>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let first = &rounds[0];
    let throughput: Vec<f64> = rounds.iter().map(|r| r.gb / r.span_s).collect();
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
    Ok(BTreeMap::from([
        (
            "logical_gb_per_s",
            need(stats::median(&throughput), "logical_gb_per_s")?,
        ),
        ("setup_s", need(stats::median(setups), "setup_s")?),
        ("peak_rss_bytes", need(peak_rss, "peak_rss_bytes")?),
        (
            "sim_jct_s",
            need(stats::median(&first.clean_jct_s), "sim_jct_s")?,
        ),
        (
            "sim_jct_tail_s",
            need(stats::tail(&first.clean_jct_s), "sim_jct_tail_s")?,
        ),
        (
            "sim_recovery_s",
            need(stats::median(&first.recovery_s), "sim_recovery_s")?,
        ),
    ]))
}

/// One round's per-layer figures: the kernel-timed pass's, with the
/// trace, profile and per-variant task figures of the traced pass.
fn merge_passes(mut timed: Layers, traced: &Layers) -> Layers {
    for (name, v) in &traced.0 {
        if name.starts_with("trace.") || name.starts_with("prof.") || name.starts_with("core.") {
            timed.0.insert(name, *v);
        }
    }
    let engine_s = timed.get("rt.engine_s");
    timed
        .0
        .insert("trace.overhead_s", traced.get("rt.engine_s") - engine_s);
    timed
        .0
        .insert("sim.events_per_s", timed.get("sim.events") / engine_s);
    timed
}

/// Median over rounds of each per-layer figure; a figure a workload
/// never produces reads 0.
fn layer_medians(rounds: &[Layers]) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = rounds.iter().map(|l| l.get(name)).collect();
            (name, stats::median(&values).unwrap_or(0.0))
        })
        .collect()
}

fn json_line(o: &Outcome, trace: bool) -> String {
    let units = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics: Vec<String> = units
        .iter()
        .map(|&(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(f64::NAN);
            // JSON has no NaN or infinity; null marks a missing figure.
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One line per panic: the known-fault job panics on purpose.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    match run(&args, started) {
        Ok(outcome) => println!("{}", json_line(&outcome, args.trace)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: Workload::from_name(workload).expect("workload"),
            seed: 3,
            seconds: 0.0,
            trace,
            quick: true,
        }
    }

    /// Quick mode runs every workload end to end with all checks, in both
    /// modes, and reports every metric.
    #[test]
    fn quick_mode_runs_every_workload() {
        for w in ["xl_shuffle", "ooc_sort", "mt_service"] {
            for trace in [false, true] {
                let o = run(&args(w, trace), Instant::now()).expect("run");
                assert!(o.correct, "{w} trace={trace}: checks failed");
                let names = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                for (name, _) in names {
                    let v = o.metrics[name];
                    assert!(v.is_finite(), "{w}: {name} = {v}");
                }
                let rounds = if trace { 2 } else { 1 };
                match w {
                    // Four variants clean and killed, plus the known fault.
                    "ooc_sort" => assert_eq!((o.attempted, o.failed), (9 * rounds, rounds)),
                    _ => assert_eq!(o.failed, 0, "{w}"),
                }
                if !trace {
                    for name in ["logical_gb_per_s", "sim_jct_s", "sim_recovery_s"] {
                        assert!(o.metrics[name] > 0.0, "{w}: {name}");
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload ooc_sort --seed 9 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::OocSort, 9, 10.0, true)
        );
        assert!(parse("--workload nope --seed 9 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload ooc_sort --seed 9 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload ooc_sort --seconds 10 --trace 0").is_err());
        assert!(parse("--workload ooc_sort --seed 9 --seconds -1 --trace 0").is_err());
        assert!(parse("--workload ooc_sort --seed").is_err());
    }
}
