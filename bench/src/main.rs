//! End-to-end, layer-attributed study benchmark (see `bench/README.md`).
//!
//! ```text
//! dhub-e2e-bench [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
//! dhub-e2e-bench selfcheck [--seed S] [--seconds N] [--quick]
//! ```
//!
//! Run from the checkout root (`bench/run.sh` does). The last line of
//! standard output of a single-workload run is the result object the
//! benchmark contract asks for.

mod catalog;
mod corpus;
mod host;
mod layers;
mod serve;
mod stats;
mod study;
mod trace;

use catalog::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use dhub_json::Json;
use host::{Calib, ScratchDir};
use stats::Timing;
use std::time::Instant;
use study::StudyKind;

/// Iterations per workload under `--quick`.
const QUICK_ITERS: usize = 3;
/// A measured phase never runs longer than this many times `--seconds`,
/// even if that leaves it short of samples.
const OVERRUN_FACTOR: f64 = 4.0;

/// Settings and scratch space shared by every workload of one process.
pub struct Ctx {
    /// Drives the pull traces, retry jitter and lease schedule; the hub's
    /// shape is fixed (see `corpus`).
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Threads, workers or client connections: `min(2, nproc)`.
    pub threads: usize,
    pub scratch: ScratchDir,
}

impl Ctx {
    /// Whether a measured phase that began at `started` and holds `n`
    /// samples may stop: the time is up and the median has its ten
    /// samples on each side.
    pub fn measured_enough(&self, started: Instant, n: usize) -> bool {
        if self.quick {
            return n >= QUICK_ITERS;
        }
        let elapsed = started.elapsed().as_secs_f64();
        (elapsed >= self.seconds && n >= stats::MIN_SAMPLES)
            || elapsed >= self.seconds * OVERRUN_FACTOR
    }
}

/// Everything one run of one workload reports.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Median and tail of the primary operation, with the sample count.
    pub timing: Option<Timing>,
    /// Exact counts; `selfcheck` requires them identical between runs.
    pub counts: Vec<(&'static str, u64)>,
    pub notes: Vec<(String, String)>,
    /// The span recording of a traced run.
    pub spans: Option<Json>,
    pub calib_ratio: f64,
    pub noisy: bool,
    seed: u64,
    threads: usize,
    store_fs: String,
}

impl RunResult {
    pub fn new(workload: &'static str, ctx: &Ctx, calib: &Calib) -> RunResult {
        RunResult {
            workload,
            traced: false,
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            timing: None,
            counts: Vec::new(),
            notes: Vec::new(),
            spans: None,
            calib_ratio: calib.ratio(),
            noisy: calib.noisy(),
            seed: ctx.seed,
            threads: ctx.threads,
            store_fs: ctx.scratch.store_fs.clone(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The metrics object of the contract: every catalogue metric of this
    /// pass, by name, with its unit.
    fn metrics_json(&self) -> Result<Json, String> {
        let mut m = Json::obj();
        for def in self.defs() {
            let v = self.value(def.name).ok_or_else(|| {
                format!("{}: metric {} was not measured", self.workload, def.name)
            })?;
            if !v.is_finite() {
                return Err(format!(
                    "{}: metric {} is not finite",
                    self.workload, def.name
                ));
            }
            let mut o = Json::obj();
            o.set("value", v).set("unit", def.unit);
            m.set(def.name, o);
        }
        Ok(m)
    }

    /// The one-line result object the contract asks for.
    fn contract_json(&self) -> Result<Json, String> {
        let mut o = Json::obj();
        o.set("correct", self.correct)
            .set("attempted", self.attempted.max(1));
        o.set("failed", self.failed)
            .set("metrics", self.metrics_json()?);
        Ok(o)
    }

    /// The full record written under `bench/out/`.
    fn file_json(&self) -> Result<Json, String> {
        let mut o = self.contract_json()?;
        o.set("workload", self.workload).set("traced", self.traced);
        o.set("seed", self.seed);
        o.set("nproc", host::nproc()).set("T", self.threads);
        o.set("store_fs", self.store_fs.as_str());
        o.set("kernels", dhub_analyzer::kernel_summary())
            .set("commit", host::commit_hash());
        o.set("host_calib_ratio", self.calib_ratio)
            .set("noisy", self.noisy);
        if let Some(t) = &self.timing {
            let mut j = Json::obj();
            j.set("samples", t.n)
                .set("median_ms", t.median)
                .set("hi_ms", t.hi);
            j.set("hi_percentile", t.hi_pct)
                .set("enough_samples", t.enough);
            o.set("op_timing", j);
        }
        let mut counts = Json::obj();
        for (k, v) in &self.counts {
            counts.set(k, *v);
        }
        let mut notes = Json::obj();
        for (k, v) in &self.notes {
            notes.set(k, v.as_str());
        }
        o.set("counts", counts).set("notes", notes);
        if let Some(spans) = &self.spans {
            o.set("spans", spans.clone());
        }
        Ok(o)
    }

    /// Prints every metric as `workload name value unit`, then the context.
    fn print(&self) {
        let w = self.workload;
        for def in self.defs() {
            if let Some(v) = self.value(def.name) {
                println!("{w} {} {v} {}", def.name, def.unit);
            }
        }
        if let Some(t) = &self.timing {
            println!(
                "{w} samples {} (hi = p{:.1}{})",
                t.n,
                t.hi_pct,
                if t.enough {
                    ""
                } else {
                    ", UNDERSAMPLED: smoke reading only"
                }
            );
        }
        for (k, v) in &self.counts {
            println!("{w} count.{k} {v} count");
        }
        for (k, v) in &self.notes {
            println!("{w} note.{k} {v}");
        }
        println!(
            "{w} host.calib_ratio {}{} store_fs={} nproc={} T={} seed={} kernels=[{}]",
            self.calib_ratio,
            if self.noisy { " NOISY" } else { "" },
            self.store_fs,
            host::nproc(),
            self.threads,
            self.seed,
            dhub_analyzer::kernel_summary()
        );
    }

    fn write_file(&self) -> Result<(), String> {
        let dir = host::out_dir();
        let name = if self.traced {
            format!("trace-{}.json", self.workload)
        } else {
            format!("{}.json", self.workload)
        };
        let path = dir.join(name);
        std::fs::write(&path, self.file_json()?.to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

fn run_workload(workload: &'static str, traced: bool, ctx: &Ctx) -> Result<RunResult, String> {
    let kind = match workload {
        "study_mem_bytes" => Some(StudyKind::MemBytes),
        "study_durable_files" => Some(StudyKind::DurableFiles),
        "study_queued_files" => Some(StudyKind::QueuedFiles),
        _ => None,
    };
    match (kind, traced) {
        (Some(k), false) => study::run(k, workload, ctx),
        (Some(k), true) => layers::trace_study(k, workload, ctx),
        (None, false) => serve::run(workload, ctx),
        (None, true) => layers::trace_serve(workload, ctx),
    }
}

struct Args {
    selfcheck: bool,
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        selfcheck: false,
        workload: None,
        seed: 42,
        seconds: 25.0,
        traced: false,
        quick: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i)
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    let num = |s: &String| {
        s.parse::<u64>()
            .map_err(|_| format!("not a whole number: {s}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "selfcheck" => a.selfcheck = true,
            "--quick" => a.quick = true,
            "--workload" => {
                let w = value(&mut i)?;
                a.workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|k| **k == w.as_str())
                        .ok_or_else(|| format!("unknown workload {w} (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => a.seed = num(value(&mut i)?)?,
            "--seconds" => a.seconds = num(value(&mut i)?)?.max(1) as f64,
            "--trace" => {
                a.traced = match value(&mut i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(a)
}

/// Runs the chosen workloads once; the last stdout line of a
/// single-workload run is the contract's result object.
fn run_once(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let workloads: Vec<&'static str> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for w in workloads {
        let r = run_workload(w, args.traced, ctx)?;
        r.print();
        r.write_file()?;
        all_correct &= r.correct;
        println!("{}", r.contract_json()?);
    }
    Ok(all_correct)
}

/// Whether `b` is worse than `a` by more than `bound`.
fn worse_by_more_than(def: &MetricDef, a: f64, b: f64, bound: f64) -> bool {
    match def.better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    }
}

/// One untraced run of `workload` in a process of its own, the way the
/// harness runs it, so that neither set-up time nor the resident set
/// carries anything over from the run before. Returns the record the
/// child wrote under `bench/out/`.
fn run_in_child(workload: &str, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"]);
    cmd.args(["--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("start child: {e}"))?;
    // Exit code 1 is a failed check; its record is still written.
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(format!(
            "{workload} child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let path = host::out_dir().join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    dhub_json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Runs every workload twice back to back and fails if the two sets
/// disagree by more than the benchmark's own bounds, in either direction.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let flag = |r: &Json, key: &str| r.get(key).and_then(Json::as_bool) == Some(true);
    let calib = |r: &Json| {
        r.get("host_calib_ratio")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut sets = Vec::new();
        for set in 1..=2 {
            let mut r = run_in_child(w, args)?;
            if flag(&r, "noisy") {
                println!(
                    "{w} set {set}: noisy (host.calib_ratio {}), re-running once",
                    calib(&r)
                );
                r = run_in_child(w, args)?;
            }
            sets.push(r);
        }
        let (a, b) = (&sets[0], &sets[1]);
        println!(
            "{:<22} {:<22} {:>16} {:>16} {:>8}  verdict",
            "workload", "metric", "set 1", "set 2", "bound"
        );
        for def in &END_TO_END {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{w}: no {} in the child's record", def.name))
            };
            let (va, vb) = (value(a)?, value(b)?);
            let bound = def.bound.unwrap_or(0.0);
            let differs =
                worse_by_more_than(def, va, vb, bound) || worse_by_more_than(def, vb, va, bound);
            // Three iterations say nothing about a timing: `--quick`
            // compares results and counts only.
            ok &= !differs || args.quick;
            println!(
                "{w:<22} {:<22} {va:>16.4} {vb:>16.4} {bound:>8.2}  {}",
                def.name,
                match (differs, args.quick) {
                    (false, _) => "agrees",
                    (true, false) => "DIFFERS",
                    (true, true) => "differs (undersampled, not counted)",
                }
            );
        }
        let (ca, cb) = (a.get("counts"), b.get("counts"));
        if ca != cb || ca.is_none() {
            ok = false;
            println!("{w:<22} counts DIFFER: {ca:?} vs {cb:?}");
        } else if let Some(c) = ca {
            println!("{w:<22} counts identical: {c}");
        }
        for (i, r) in sets.iter().enumerate() {
            let (noisy, correct) = (flag(r, "noisy"), flag(r, "correct"));
            println!(
                "{w:<22} set {} host.calib_ratio {:.4}{} correct={correct}",
                i + 1,
                calib(r),
                if noisy { " NOISY" } else { "" }
            );
            ok &= correct && !noisy;
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if args.selfcheck {
        return selfcheck(&args);
    }
    // The guard lives here so a failed check (or a panic unwinding through
    // this frame) still removes the per-process store and queue dirs.
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        threads: host::bench_threads(),
        scratch: ScratchDir::create()?,
    };
    run_once(&args, &ctx)
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("error: a check failed (see above)");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> Ctx {
        Ctx {
            seed: 42,
            seconds: 1.0,
            quick: true,
            threads: host::bench_threads(),
            scratch: ScratchDir::create().unwrap(),
        }
    }

    /// `BENCHMARK.json` must name exactly the catalogue's workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let j = dhub_json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = j.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    m.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(
                    m.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    def.name
                );
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// Two in-process runs over the `--quick` corpus must produce the same
    /// results: the study workloads check their result digest against a
    /// reference and across iterations, so `correct` covers it, and the
    /// exact counts must repeat between runs.
    #[test]
    fn quick_results_are_stable_across_two_runs() {
        let ctx = quick_ctx();
        for w in [
            "study_mem_bytes",
            "study_durable_files",
            "study_queued_files",
        ] {
            let a = run_workload(w, false, &ctx).unwrap();
            let b = run_workload(w, false, &ctx).unwrap();
            assert!(a.correct && b.correct, "{w} failed its own checks");
            assert_eq!(a.counts, b.counts, "{w} counts changed between runs");
            assert_eq!(a.failed, 0);
            assert!(
                a.contract_json().is_ok(),
                "{w} must report every end-to-end metric"
            );
        }
    }

    #[test]
    fn quick_serve_and_traces_report_every_metric() {
        let ctx = quick_ctx();
        let r = run_workload("serve_zipf_files", false, &ctx).unwrap();
        assert!(r.correct && r.contract_json().is_ok());
        for w in WORKLOADS {
            let t = run_workload(w, true, &ctx).unwrap();
            assert!(t.correct, "{w} trace pass failed its checks");
            let m = t.contract_json().expect("every per-layer metric reported");
            assert_eq!(
                m.get("metrics")
                    .map(|m| matches!(m, Json::Obj(p) if p.len() == PER_LAYER.len())),
                Some(true)
            );
        }
    }

    #[test]
    fn bounds_are_checked_in_the_metrics_direction() {
        let lower = &END_TO_END[1];
        assert!(worse_by_more_than(lower, 100.0, 111.0, 0.10));
        assert!(!worse_by_more_than(lower, 100.0, 109.0, 0.10));
        let higher = END_TO_END
            .iter()
            .find(|d| d.better == Better::Higher)
            .unwrap();
        assert!(worse_by_more_than(higher, 100.0, 89.0, 0.10));
        assert!(!worse_by_more_than(higher, 100.0, 120.0, 0.10));
    }
}
