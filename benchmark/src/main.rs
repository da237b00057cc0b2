//! The AFTA benchmark: four workloads, each run the way a user meets the
//! program, timed end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_rounds --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_rounds`, `serve_observe` (afta-serve over loopback
//! TCP), `campaign_fig7` (the §3.3 Fig. 7 campaign) and `lint_corpus`
//! (whole-program afta-lint over a generated corpus).  Every output is
//! checked against a computation made apart from the program; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  A failed check exits with 1.
//! See `benchmark/README.md`.

mod campaign;
mod lint;
mod measure;
mod serve;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: measure::CountingAllocator = measure::CountingAllocator;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve_rounds",
    "serve_observe",
    "campaign_fig7",
    "lint_corpus",
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (1 for a single measurement).
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations the program refused or could not complete.
    pub failed: u64,
    /// Check failures: outputs that disagree with the independent
    /// computation.  Empty means correct.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human reader (not part of the JSON).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check failure (keeping the first few messages whole).
    pub fn fail(&mut self, message: String) {
        if self.errors.len() < 64 {
            self.errors.push(message);
        } else if self.errors.len() == 64 {
            self.errors
                .push("... further check failures suppressed".to_string());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Folds another outcome's counts and checks into this one.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            self.fail(e);
        }
        self.notes.extend(other.notes);
    }

    /// The end-to-end figures shared by every workload: set-up median,
    /// peak RSS, CPU per operation and the latency median.
    ///
    /// Latencies come in consecutive windows (a serving session, a batch
    /// of campaigns or corpus passes); each quantile is the median over
    /// windows of the window's quantile, so a burst of interference from
    /// outside the process moves the figure only if it covers most of
    /// the run.
    pub fn end_to_end(
        &mut self,
        setups_s: &mut [f64],
        cpu_us: f64,
        ops: u64,
        windows: &mut [Vec<f64>],
    ) {
        let n: usize = windows.iter().map(Vec::len).sum();
        if setups_s.is_empty() || n == 0 || ops == 0 {
            self.fail("the run completed no measured operation".to_string());
            return;
        }
        let setups = setups_s.len();
        self.metric("setup_s", measure::median(setups_s), "s", setups);
        self.metric("rss_peak_mb", measure::peak_rss_mb(), "MB", 1);
        self.metric("cpu_us_per_op", cpu_us / ops as f64, "us", ops as usize);
        let mut per_window = |q: f64| {
            let mut qs: Vec<f64> = windows
                .iter_mut()
                .filter(|w| !w.is_empty())
                .map(|w| measure::quantile(w, q))
                .collect();
            measure::median(&mut qs)
        };
        let (p50, p90, p99) = (per_window(0.5), per_window(0.9), per_window(0.99));
        self.metric("latency_p50_us", p50, "us", n);
        self.note(format!(
            "{n} latency samples in {} windows; p90 {p90:.1} us, p99 {p99:.1} us \
             (not reported as metrics: they do not repeat within a bound)",
            windows.len()
        ));
    }
}

/// Appends `sample` to the last window, opening a new one every `size`
/// samples.
pub fn push_windowed(windows: &mut Vec<Vec<f64>>, sample: f64, size: usize) {
    match windows.last_mut() {
        Some(w) if w.len() < size => w.push(sample),
        _ => windows.push(vec![sample]),
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Runs one workload end to end or traced.
pub fn run(args: &Args) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("serve_rounds", false) => serve::rounds(args.seed, budget, &serve::RoundsShape::FULL),
        ("serve_observe", false) => serve::observe(args.seed, budget, &serve::ObserveShape::FULL),
        ("campaign_fig7", false) => {
            campaign::run(args.seed, budget, &campaign::CampaignShape::FULL)
        }
        ("lint_corpus", false) => lint::run(args.seed, budget, &lint::CorpusShape::FULL),
        (workload, true) => traced(workload, args.seed, budget),
        _ => unreachable!("workload names are validated"),
    }
}

/// The traced run.  Every traced run reports every layer: the layers
/// the workload reaches are timed on its own inputs, the others on the
/// inputs of the workload that reaches them (same seed), so the output
/// always has the same shape.
fn traced(workload: &str, seed: u64, budget: Duration) -> Outcome {
    let share = budget / 4;
    let mut out = Outcome::default();
    let mut tracer = measure::Tracer::new(400_000);
    let observe = workload == "serve_observe";
    serve::trace(seed, share * 2, observe, &mut tracer, &mut out);
    campaign::trace(
        seed,
        share,
        &campaign::CampaignShape::FULL,
        &mut tracer,
        &mut out,
    );
    lint::trace(seed, share, &lint::CorpusShape::FULL, &mut tracer, &mut out);
    let dir = std::path::Path::new("benchmark/traces");
    let file = dir.join(format!("{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tracer.to_jsonl())) {
        Ok(()) => out.note(format!(
            "{} spans written to {} ({} beyond the record cap, counted only)",
            tracer.len(),
            file.display(),
            tracer.dropped()
        )),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    out
}

/// Formats a figure with all its digits (never rounded to a constant).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn result_json(out: &Outcome) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    json
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let out = run(&args);
    println!(
        "workload {} seed {} trace {} ({:.1} s wall)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!(
            "  {:<34} {:>16} {:<6} ({} samples)",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", result_json(&out));
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
