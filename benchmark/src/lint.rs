//! `lint_corpus`: a CI job running `afta-lint t.json --format json` over
//! a corpus of generated targets.  One operation is what the CLI does
//! per file: `LintTarget::from_json`, `LintDriver::run`,
//! `LintReport::to_json`.
//!
//! Each target is a layered component DAG (the background) carrying
//! source, sink and rebind flows of several facts, some probed and some
//! not, plus battery-safe schedules, and a set of disjoint planted
//! chains: multi-hop narrowings (`AFTA-D001`), late bindings reaching an
//! early-bound consumer (`AFTA-D003`) and unprobed facts reaching a
//! voter (`AFTA-D005`), each with a mirrored safe chain.  The checker
//! demands exactly the planted findings, each with a witness path of the
//! planted length, and nothing else.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};

use afta_core::BindingTime;
use afta_dag::{Component, ComponentGraph, ComponentId, EdgeMeta};
use afta_lint::EnvelopeClaim;
use afta_lint::{
    BindingFlowPass, BouldingPass, DataflowSolver, EnvelopePass, FlowDecl, FlowRole, HazardClass,
    HazardDecl, HiddenIntelligencePass, HorningPass, IntInterval, IntervalEnv, IntervalFlowPass,
    LintDriver, LintPass, LintReport, LintTarget, MonitorTaintPass, Rule, ScheduleDecl, SourceRef,
};

use crate::measure::{self, Rng, Tracer};
use crate::Outcome;

/// Shape of the corpus.
#[derive(Debug, Clone)]
pub struct CorpusShape {
    pub targets: usize,
    pub layers: usize,
    pub width: usize,
    /// Background facts.
    pub facts: usize,
    /// Planted chains per rule (each with a safe mirror).
    pub chains: usize,
}

impl CorpusShape {
    pub const FULL: CorpusShape = CorpusShape {
        targets: 8,
        layers: 10,
        width: 20,
        facts: 6,
        chains: 2,
    };
}

/// Driver set-ups timed together per set-up sample.
const SETUP_BATCH: u32 = 256;

/// A finding the checker expects: rule, location and witness length.
pub type Finding = (Rule, String, usize);

/// One corpus entry: the target as the CLI would read it, and what must
/// fire on it.
pub struct CorpusTarget {
    pub json: String,
    pub planted: Vec<Finding>,
    pub components: usize,
}

const BINDINGS: [BindingTime; 5] = [
    BindingTime::DesignTime,
    BindingTime::VerificationTime,
    BindingTime::CompileTime,
    BindingTime::DeploymentTime,
    BindingTime::RunTime,
];

/// Adds a component, optionally re-verifying (`monitors`) one fact.
fn add(graph: &mut ComponentGraph, id: &str, kind: &str, monitors: Option<&str>) {
    let mut component = Component::new(id, kind);
    if let Some(fact) = monitors {
        component = component.with_meta("monitors", fact);
    }
    graph
        .add(component)
        .expect("generated component ids are unique");
}

/// A planted chain `prefix0 -> prefix1 -> ... -> prefix{len-1}`; the
/// last component gets `last_kind`, the second may monitor a fact.
/// Returns the ids.
fn chain(
    graph: &mut ComponentGraph,
    prefix: &str,
    len: usize,
    last_kind: &str,
    monitor: Option<&str>,
) -> Vec<String> {
    let ids: Vec<String> = (0..len).map(|h| format!("{prefix}{h}")).collect();
    for (h, id) in ids.iter().enumerate() {
        let kind = if h + 1 == len { last_kind } else { "service" };
        add(graph, id, kind, monitor.filter(|_| h == 1));
    }
    for pair in ids.windows(2) {
        graph
            .connect(pair[0].as_str(), pair[1].as_str())
            .expect("chain edges are fresh");
    }
    ids
}

/// Facts reaching each component from the declared sources, honouring
/// edge `carries` restrictions: the generator's own reachability, used
/// to place sinks and rebinds where a source really arrives.
fn reaching(
    graph: &ComponentGraph,
    sources: &[(String, String)],
) -> BTreeMap<String, BTreeSet<String>> {
    let mut reach: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut queue: VecDeque<(String, String)> = VecDeque::new();
    for (component, fact) in sources {
        if reach
            .entry(component.clone())
            .or_default()
            .insert(fact.clone())
        {
            queue.push_back((component.clone(), fact.clone()));
        }
    }
    while let Some((at, fact)) = queue.pop_front() {
        let from = ComponentId::new(at.clone());
        let next: Vec<String> = graph
            .successors(&from)
            .map(|id| id.as_str().to_string())
            .collect();
        for to in next {
            let carried = graph
                .edge_meta(&from, &ComponentId::new(to.clone()))
                .is_none_or(|meta| meta.transports(&fact));
            if carried && reach.entry(to.clone()).or_default().insert(fact.clone()) {
                queue.push_back((to, fact.clone()));
            }
        }
    }
    reach
}

/// Generates target `index` of the corpus for `seed`.
pub fn generate(seed: u64, index: usize, shape: &CorpusShape) -> CorpusTarget {
    let mut rng = Rng::new(seed, 0x11_0000 + index as u64);
    let mut target = LintTarget::new();
    let mut graph = ComponentGraph::new();
    let mut planted = Vec::new();
    let facts: Vec<String> = (0..shape.facts).map(|f| format!("bg{f}")).collect();
    let node = |l: usize, i: usize| format!("b{l}_{i}");

    // Background: layers of `width` services, some re-verifying a fact
    // they pass on; every component below the first layer has at least
    // one plain predecessor, plus extra edges, some of them carrying only
    // a subset of the facts.
    for l in 0..shape.layers {
        for i in 0..shape.width {
            let monitors = (l > 0 && rng.below(20) == 0)
                .then(|| facts[rng.below(shape.facts as u64) as usize].as_str());
            add(&mut graph, &node(l, i), "service", monitors);
        }
    }
    for l in 1..shape.layers {
        for i in 0..shape.width {
            let from = node(l - 1, rng.below(shape.width as u64) as usize);
            let _ = graph.connect(from.as_str(), node(l, i).as_str());
        }
        for i in 0..shape.width {
            for _ in 0..2 {
                let to = node(l, rng.below(shape.width as u64) as usize);
                let from = node(l - 1, i);
                if rng.below(3) == 0 {
                    let carried: Vec<&String> =
                        facts.iter().filter(|_| rng.below(2) == 0).collect();
                    let _ = graph.connect_labeled(
                        from.as_str(),
                        to.as_str(),
                        EdgeMeta::carrying(carried.into_iter().cloned()),
                    );
                } else {
                    let _ = graph.connect(from.as_str(), to.as_str());
                }
            }
        }
    }
    // Background flows: each fact has sources on a few first-layer
    // components, each with its own range and binding stage.
    let mut sources = Vec::new();
    for fact in &facts {
        for _ in 0..3 {
            let id = node(0, rng.below(shape.width as u64) as usize);
            let half = rng.range(100, 1000);
            let binding = BINDINGS[rng.below(5) as usize];
            target
                .flows
                .push(FlowDecl::source(&id, fact, IntInterval::new(-half, half)).bound_at(binding));
            sources.push((id, fact.clone()));
        }
        if rng.below(2) == 0 {
            target.probed_facts.insert(fact.clone());
        }
    }
    let reach = reaching(&graph, &sources);
    // Sinks (accepting every background range) and rebinds, only where
    // the fact arrives.
    for l in shape.layers / 2..shape.layers {
        for i in 0..shape.width {
            let id = node(l, i);
            let Some(arriving) = reach.get(&id) else {
                continue;
            };
            for fact in arriving {
                match rng.below(8) {
                    0 => {
                        let mut sink = FlowDecl::sink(&id, fact, IntInterval::new(-10_000, 10_000));
                        if rng.below(2) == 0 {
                            sink = sink.bound_at(BindingTime::RunTime);
                        }
                        target.flows.push(sink);
                    }
                    1 => target
                        .flows
                        .push(FlowDecl::rebind(&id, fact, BindingTime::RunTime)),
                    _ => {}
                }
            }
        }
    }

    // Planted chains and their safe mirrors.
    for j in 0..shape.chains {
        // D001: a wide source narrowed several hops later.
        let len = 3 + rng.below(4) as usize;
        let ids = chain(&mut graph, &format!("n{j}_"), len, "actuator", None);
        let fact = format!("velocity{j}");
        target.flows.push(FlowDecl::source(
            &ids[0],
            &fact,
            IntInterval::new(-100_000, 100_000),
        ));
        target.flows.push(FlowDecl::sink(
            &ids[len - 1],
            &fact,
            IntInterval::new(-32_768, 32_767),
        ));
        target.probed_facts.insert(fact.clone());
        planted.push((Rule::D001, SourceRef::flow(&ids[len - 1], &fact).0, len));
        let ids = chain(&mut graph, &format!("nm{j}_"), len, "actuator", None);
        let fact = format!("velocity_safe{j}");
        target.flows.push(FlowDecl::source(
            &ids[0],
            &fact,
            IntInterval::new(-100_000, 100_000),
        ));
        target.flows.push(FlowDecl::sink(
            &ids[len - 1],
            &fact,
            IntInterval::new(-100_000, 100_000),
        ));
        target.probed_facts.insert(fact);

        // D003: a run-time value reaching logic frozen at design time.
        let len = 3 + rng.below(4) as usize;
        let ids = chain(&mut graph, &format!("l{j}_"), len, "service", None);
        let fact = format!("mode{j}");
        target.flows.push(
            FlowDecl::source(&ids[0], &fact, IntInterval::new(0, 7)).bound_at(BindingTime::RunTime),
        );
        target.flows.push(
            FlowDecl::sink(&ids[len - 1], &fact, IntInterval::new(0, 7))
                .bound_at(BindingTime::DesignTime),
        );
        target.probed_facts.insert(fact.clone());
        planted.push((Rule::D003, SourceRef::flow(&ids[len - 1], &fact).0, len));
        let ids = chain(&mut graph, &format!("lm{j}_"), len, "service", None);
        let fact = format!("mode_safe{j}");
        target.flows.push(
            FlowDecl::source(&ids[0], &fact, IntInterval::new(0, 7)).bound_at(BindingTime::RunTime),
        );
        target.flows.push(
            FlowDecl::sink(&ids[len - 1], &fact, IntInterval::new(0, 7))
                .bound_at(BindingTime::RunTime),
        );
        target.probed_facts.insert(fact);

        // D005: an unprobed fact reaching a voter; the mirror re-verifies
        // it on the way.
        let len = 3 + rng.below(4) as usize;
        let ids = chain(&mut graph, &format!("v{j}_"), len, "voter", None);
        let fact = format!("load{j}");
        target
            .flows
            .push(FlowDecl::source(&ids[0], &fact, IntInterval::new(0, 100)));
        planted.push((Rule::D005, SourceRef::component(&ids[len - 1]).0, len));
        let fact = format!("load_safe{j}");
        let ids = chain(&mut graph, &format!("vm{j}_"), len, "voter", Some(&fact));
        target
            .flows
            .push(FlowDecl::source(&ids[0], &fact, IntInterval::new(0, 100)));
    }

    // Battery-safe fault schedules: few events, short recovery windows,
    // an untouched healing tail.
    for s in 0..2 {
        let events = (0..1 + rng.below(4))
            .map(|e| HazardDecl {
                at: 1 + rng.below(150),
                label: format!("burst {s}.{e}"),
                hazard: HazardClass::Recoverable {
                    window: 1 + rng.below(5),
                },
            })
            .collect();
        target.schedules.push(ScheduleDecl {
            source: format!("schedule-{index}-{s}.json"),
            envelope: EnvelopeClaim::Battery,
            max_steps: 200,
            events,
        });
    }

    let components = graph.len();
    target.graph = Some(graph);
    planted.sort();
    CorpusTarget {
        json: target.to_json().expect("target serialises"),
        planted,
        components,
    }
}

/// Checks one rendered report: exactly the planted findings, each with
/// a witness path of the planted length.
pub fn check(report_json: &str, planted: &[Finding], out: &mut Outcome) {
    let report: LintReport = match serde_json::from_str(report_json) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("report JSON does not parse: {e}"));
            return;
        }
    };
    let mut found: Vec<Finding> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.source.0.clone(), d.path.len()))
        .collect();
    found.sort();
    if found != planted {
        let extra: Vec<&Finding> = found.iter().filter(|f| !planted.contains(f)).collect();
        let missing: Vec<&Finding> = planted.iter().filter(|f| !found.contains(f)).collect();
        out.fail(format!(
            "{} findings, {} planted; unexpected {extra:?}; missing {missing:?}",
            found.len(),
            planted.len()
        ));
    }
}

/// What `afta-lint t.json --format json` does after reading the file.
fn lint_one(driver: &LintDriver, json: &str) -> Result<String, String> {
    let target = LintTarget::from_json(json).map_err(|e| format!("parse: {e}"))?;
    let report = driver.run(&target);
    report.to_json().map_err(|e| format!("render: {e}"))
}

/// `lint_corpus` end to end: whole passes over the corpus.
pub fn run(seed: u64, budget: Duration, shape: &CorpusShape) -> Outcome {
    let corpus: Vec<CorpusTarget> = (0..shape.targets)
        .map(|i| generate(seed, i, shape))
        .collect();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut cpu_us = 0u64;
    let started = Instant::now();
    while setups.is_empty() || started.elapsed() < budget {
        for entry in &corpus {
            // Set-up is well under a microsecond: time a batch and keep
            // the mean, so a sample is not timer jitter.
            let t0 = Instant::now();
            for _ in 1..SETUP_BATCH {
                std::hint::black_box(LintDriver::new());
            }
            let driver = LintDriver::new();
            setups.push(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64);
            let cpu0 = measure::process_cpu_us();
            let t1 = Instant::now();
            let rendered = lint_one(&driver, &entry.json);
            crate::push_windowed(
                &mut latencies,
                t1.elapsed().as_nanos() as f64 / 1e3,
                2 * corpus.len(),
            );
            cpu_us += measure::process_cpu_us() - cpu0;
            out.attempted += 1;
            match rendered {
                Ok(json) => check(&json, &entry.planted, &mut out),
                Err(e) => {
                    out.failed += 1;
                    out.fail(format!("lint failed: {e}"));
                }
            }
        }
    }
    let sizes: Vec<usize> = corpus.iter().map(|c| c.components).collect();
    let linted = latencies.iter().map(Vec::len).sum::<usize>();
    out.note(format!(
        "{} passes over {} targets of {}..={} components",
        linted / corpus.len(),
        corpus.len(),
        sizes.iter().min().copied().unwrap_or(0),
        sizes.iter().max().copied().unwrap_or(0)
    ));
    out.end_to_end(&mut setups, cpu_us as f64, linted as u64, &mut latencies);
    out
}

fn passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(HorningPass),
        Box::new(HiddenIntelligencePass),
        Box::new(BouldingPass),
        Box::new(IntervalFlowPass),
        Box::new(BindingFlowPass),
        Box::new(MonitorTaintPass),
        Box::new(EnvelopePass),
    ]
}

/// Span names of the passes, as `lint.pass.<name>`.
fn pass_span(name: &str) -> &'static str {
    match name {
        "horning" => "lint.pass.horning",
        "hidden-intelligence" => "lint.pass.hidden_intelligence",
        "boulding" => "lint.pass.boulding",
        "interval-flow" => "lint.pass.interval_flow",
        "binding-flow" => "lint.pass.binding_flow",
        "monitor-taint" => "lint.pass.monitor_taint",
        "envelope" => "lint.pass.envelope",
        _ => "lint.pass.other",
    }
}

/// The interval-flow fixpoint over the target's graph, seeded exactly as
/// the interval-flow pass seeds it.
fn interval_fixpoint(target: &LintTarget) -> usize {
    let Some(graph) = &target.graph else { return 0 };
    let mut solver = DataflowSolver::<IntervalEnv>::new(graph);
    for flow in &target.flows {
        if let FlowRole::Source { range, .. } = &flow.role {
            let id = ComponentId::new(flow.component.clone());
            if graph.contains(&id) {
                solver.seed(id, IntervalEnv::of(flow.fact_key.clone(), *range));
            }
        }
    }
    let fix = solver.solve(|from, to, env| match graph.edge_meta(from, to) {
        Some(meta) => env.restricted(&meta),
        None => env.clone(),
    });
    graph
        .components()
        .filter(|c| !fix.at(&c.id).0.is_empty())
        .count()
}

/// The lint half of the traced run.
pub fn trace(
    seed: u64,
    budget: Duration,
    shape: &CorpusShape,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let corpus: Vec<CorpusTarget> = (0..shape.targets)
        .map(|i| generate(seed, i, shape))
        .collect();
    let passes = passes();
    let driver = LintDriver::new();
    let (mut targets, mut allocs) = (0u64, 0u64);
    let mut id = 1u64 << 56;
    let started = Instant::now();
    while targets == 0 || started.elapsed() < budget {
        for entry in &corpus {
            id += 1;
            // Allocations of one whole operation, untraced.
            let a0 = measure::thread_allocs();
            let rendered = lint_one(&driver, &entry.json);
            allocs += measure::thread_allocs() - a0;
            targets += 1;
            out.attempted += 1;
            match rendered {
                Ok(json) => check(&json, &entry.planted, out),
                Err(e) => {
                    out.failed += 1;
                    out.fail(format!("lint failed: {e}"));
                }
            }
            // The same operation, layer by layer.
            let whole = tracer.begin(id, "lint.target");
            let span = tracer.begin(id, "lint.parse");
            let target = LintTarget::from_json(&entry.json);
            tracer.end(span, 1);
            let Ok(target) = target else {
                tracer.end(whole, 1);
                continue;
            };
            let span = tracer.begin(id, "lint.fixpoint");
            let reached = interval_fixpoint(&target);
            tracer.end(span, 1);
            if reached == 0 {
                out.fail("the interval fixpoint reached no component".to_string());
            }
            let mut raw = Vec::new();
            for pass in &passes {
                let span = tracer.begin(id, pass_span(pass.name()));
                pass.run(&target, &mut raw);
                tracer.end(span, 1);
            }
            let report = LintReport::new(raw);
            let span = tracer.begin(id, "lint.render");
            let json = report.to_json();
            tracer.end(span, 1);
            tracer.end(whole, 1);
            if json.is_err() {
                out.fail("traced report did not render".to_string());
            }
        }
    }
    let ms = |name: &str| tracer.ns_per_unit(name) / 1e6;
    let n = tracer.units("lint.parse") as usize;
    out.metric("lint.parse_ms", ms("lint.parse"), "ms", n);
    out.metric("lint.render_ms", ms("lint.render"), "ms", n);
    out.metric(
        "lint.allocs_per_target",
        allocs as f64 / targets as f64,
        "count",
        targets as usize,
    );
    out.metric("lint.fixpoint_ms", ms("lint.fixpoint"), "ms", n);
    for pass in &passes {
        let span = pass_span(pass.name());
        out.metric(&format!("{span}_ms"), ms(span), "ms", n);
    }
    let parts = ["lint.parse", "lint.render"]
        .iter()
        .chain(
            passes
                .iter()
                .map(|p| pass_span(p.name()))
                .collect::<Vec<_>>()
                .iter(),
        )
        .map(|s| ms(s))
        .sum::<f64>();
    out.note(format!(
        "lint layers: parse + passes + render = {parts:.3} ms vs whole traced target {:.3} ms",
        ms("lint.target") - ms("lint.fixpoint")
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: CorpusShape = CorpusShape {
        targets: 2,
        layers: 4,
        width: 5,
        facts: 3,
        chains: 1,
    };

    #[test]
    fn lint_workload_runs_and_checks_at_a_tiny_size() {
        let out = run(9, Duration::from_millis(1), &TINY);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.attempted, 2);
        assert_eq!(out.metrics.len(), 4);
    }

    #[test]
    fn corpus_is_seeded() {
        assert_eq!(generate(4, 0, &TINY).json, generate(4, 0, &TINY).json);
        assert_ne!(generate(4, 0, &TINY).json, generate(5, 0, &TINY).json);
        assert_eq!(generate(4, 1, &TINY).planted.len(), 3);
    }

    #[test]
    fn checker_rejects_one_finding_too_many_and_a_short_path() {
        let entry = generate(4, 0, &TINY);
        let json = lint_one(&LintDriver::new(), &entry.json).expect("lints");
        let mut clean = Outcome::default();
        check(&json, &entry.planted, &mut clean);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);

        let mut report: LintReport = serde_json::from_str(&json).expect("parses");
        let mut extra = report.diagnostics[0].clone();
        extra.source = SourceRef::component("b0_0");
        report.diagnostics.push(extra);
        let mut out = Outcome::default();
        check(
            &report.to_json().expect("renders"),
            &entry.planted,
            &mut out,
        );
        assert!(out.errors.iter().any(|e| e.contains("unexpected")));

        let mut report: LintReport = serde_json::from_str(&json).expect("parses");
        report.diagnostics[0].path.pop();
        let mut out = Outcome::default();
        check(
            &report.to_json().expect("renders"),
            &entry.planted,
            &mut out,
        );
        assert!(!out.errors.is_empty());
    }
}
