//! The traced run: drive the workload once through the engines' public
//! constructors and stepping calls with the span recorder on, replay
//! every layer's primitives for the per-operation costs, and print the
//! attribution of the observed wall to (operation count × cost) rows
//! with the unexplained remainder as its own row.
//!
//! End-to-end metrics never come from here — they are measured with the
//! recorder off. For simulator workloads the run also calls the scenario
//! runner on the same spec, untraced: the two series must be the same
//! bits, and the difference of the two walls is the tracing overhead.

use crate::checks::Checks;
use crate::environment;
use crate::json::{obj, Json};
use crate::layers;
use crate::measure::{metric, Outcome};
use crate::serve;
use crate::sim;
use crate::spans::Tracer;
use crate::workloads::{Carrier, Kind, ServeWorkload, SimWorkload, Workload};
use dynagg_core::config::ResetConfig;
use dynagg_core::count_sketch_reset::CountSketchReset;
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_core::wire::WireMessage;
use dynagg_node::runtime::FRAME_HEADER_BYTES;
use dynagg_node::{AsyncConfig, AsyncNet, LatencyModel, ShardedNet};
use dynagg_scenario::{
    build_env, wire_cost, Engine, EnvSpec, LatencySpec, ProtocolSpec, ScenarioSpec, ValueSpec,
};
use dynagg_sim::{runner, Series, ShardMap};
use rand::Rng;
use std::time::Instant;

/// What the traced drive counted at the layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    host_rounds: u64,
    messages: u64,
    /// Discrete events the engine processed (async engines only).
    events: u64,
    slots_patched: u64,
    full_assignments: u64,
    shards: u64,
}

/// One row of the attribution: `ops × ns_per_op` beside the observed
/// wall. `source` names the per-layer metric the cost came from. Rows
/// with `inside` set break down the engine row above them — they are
/// part of it, not added to it.
struct Row {
    layer: &'static str,
    source: String,
    ops: f64,
    ns_per_op: f64,
    inside: bool,
}

impl Row {
    fn ms(&self) -> f64 {
        self.ops * self.ns_per_op / 1e6
    }
}

pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(true);
    let mut untraced_s = None;

    let (mut metrics, simulated, counts, observed_ms, observed_what) = match &w.kind {
        Kind::Sim(sw) => {
            let (spec, series, counts) =
                drive_sim(w.name, sw, seed, None, &mut tracer, &mut checks);
            let stats = sim::stats_of(sw, &spec, &series);
            sim::check_series(sw, &spec, &series, &stats, &mut checks);
            // The scenario runner on the same spec, recorder off: the same
            // bits, and the wall the traced drive is compared against.
            let t = Instant::now();
            let untraced = sim::run_series(&spec);
            untraced_s = Some(t.elapsed().as_secs_f64());
            checks.check(sim::digest(&untraced) == stats.digest, || {
                format!(
                    "the traced drive's series ({:016x}) is not the scenario runner's ({:016x})",
                    stats.digest,
                    sim::digest(&untraced)
                )
            });
            if counts.shards >= 2 {
                // The sharded engine promises the same bits at any shard
                // count; through the scenario layer `shards = 1` would
                // route to the sequential engine, so build it directly.
                let (_, one, _) =
                    drive_sim(w.name, sw, seed, Some(1), &mut Tracer::new(false), &mut checks);
                checks.check(sim::digest(&one) == stats.digest, || {
                    format!(
                        "series differs between 2 shards ({:016x}) and 1 ({:016x})",
                        stats.digest,
                        sim::digest(&one)
                    )
                });
            }
            let run_ms = tracer.total_ms(w.name);
            (
                vec![
                    metric("workload.est_err_pct", stats.est_err_pct, "%"),
                    metric(
                        "workload.recover_rounds",
                        stats.recover_rounds.unwrap_or(0) as f64,
                        "rounds",
                    ),
                ],
                obj([("digest", Json::Str(format!("{:016x}", stats.digest)))]),
                counts,
                run_ms,
                "wall of the traced drive",
            )
        }
        Kind::Serve(sw) => {
            let run = serve::run_window(w.name, sw, seed, seconds, &mut tracer, &mut checks);
            let counts = Counts {
                host_rounds: run.report.polls,
                messages: run.report.frames_in,
                events: run.report.polls,
                ..Counts::default()
            };
            let metrics = vec![
                metric("workload.est_err_pct", run.final_err_pct, "%"),
                metric("workload.recover_rounds", 0.0, "rounds"),
            ];
            (
                metrics,
                Json::Obj(Vec::new()),
                counts,
                run.cpu_s * 1e3,
                "process CPU over the serving window",
            )
        }
    };
    let drive_s = tracer.total_ms(w.name) / 1e3;

    let shape = layers::Shape::of(w, seed);
    let layer_metrics = layers::probe_all(&shape, &mut checks);
    let cost = |name: &str| -> f64 {
        layer_metrics.iter().find(|m| m.name == name).map(|m| m.value).expect("probed metric")
    };
    let rows = attribution(w, &shape, &counts, &cost);

    println!("# spans of the traced drive ({} recorded), by name:", tracer.spans().len());
    println!("#   {:<34} {:>7} {:>12} {:>12}", "span", "calls", "total ms", "self ms");
    for (name, (calls, total, own)) in tracer.by_name() {
        println!("#   {name:<34} {calls:>7} {total:>12.3} {own:>12.3}");
    }
    println!("# attribution of {observed_ms:.1} ms ({observed_what}):");
    println!(
        "#   {:<28} {:>14} {:>12} {:>11} {:>7}  cost from",
        "layer", "ops", "ns/op", "ms", "share"
    );
    let mut explained = 0.0;
    for (i, r) in rows.iter().enumerate() {
        if !r.inside {
            explained += r.ms();
        }
        println!(
            "#   {:<28} {:>14.0} {:>12.2} {:>11.2} {:>6.1}%  {}",
            format!("{}{}", if r.inside { "  of which " } else { "" }, r.layer),
            r.ops,
            r.ns_per_op,
            r.ms(),
            100.0 * r.ms() / observed_ms,
            r.source
        );
        // After the last row inside an engine row: what the parts leave.
        if r.inside && rows.get(i + 1).is_none_or(|next| !next.inside) {
            let engine = rows[..i].iter().rposition(|p| !p.inside).expect("an engine row");
            let parts: f64 = rows[engine + 1..=i].iter().map(Row::ms).sum();
            let rest = rows[engine].ms() - parts;
            println!(
                "#   {:<28} {:>14} {:>12} {:>11.2} {:>6.1}%  the engine row minus its parts",
                "  of which the loop itself",
                "",
                "",
                rest,
                100.0 * rest / observed_ms
            );
        }
    }
    println!(
        "#   {:<28} {:>14} {:>12} {:>11.2} {:>6.1}%  observed minus the rows above",
        "unexplained",
        "",
        "",
        observed_ms - explained,
        100.0 * (observed_ms - explained) / observed_ms
    );

    metrics.extend(layer_metrics);
    metrics.push(metric("trace.drive_s", drive_s, "s"));
    metrics.push(metric("trace.spans", tracer.spans().len() as f64, "count"));
    // Simulator workloads: the traced drive against the scenario runner's
    // untraced call in this process. Serve workloads are paced, so their
    // wall cannot move; charge every span its measured cost instead.
    let overhead_pct = match untraced_s {
        Some(untraced) => 100.0 * (drive_s - untraced) / untraced,
        None => 100.0 * tracer.spans().len() as f64 * span_cost_ms() / observed_ms,
    };
    println!("# tracing overhead: {overhead_pct:.3} % of the untraced run");
    metrics.push(metric("trace.overhead_pct", overhead_pct, "%"));
    metrics.push(metric(
        "trace.unexplained_pct",
        100.0 * (observed_ms - explained) / observed_ms,
        "%",
    ));

    write_out(w.name, seed, &tracer, &counts, &rows, observed_ms);
    Outcome { metrics, checks, simulated }
}

/// What recording one span costs, in milliseconds.
fn span_cost_ms() -> f64 {
    const SPANS: u32 = 10_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..SPANS {
        t.scope("span", |_| ());
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(SPANS)
}

/// Spans and counts go to `benchmark/out/`, inside the checkout.
fn write_out(
    name: &str,
    seed: u64,
    tracer: &Tracer,
    counts: &Counts,
    rows: &[Row],
    observed_ms: f64,
) {
    let dir = environment::out_dir();
    let doc = obj([
        ("schema", Json::Str("dynagg-benchmark/trace/1".into())),
        ("workload", Json::Str(name.into())),
        ("seed", Json::Num(seed as f64)),
        (
            "counts",
            obj([
                ("host_rounds", Json::Num(counts.host_rounds as f64)),
                ("messages", Json::Num(counts.messages as f64)),
                ("events", Json::Num(counts.events as f64)),
                ("view_slots_patched", Json::Num(counts.slots_patched as f64)),
                ("full_view_assignments", Json::Num(counts.full_assignments as f64)),
            ]),
        ),
        ("observed_ms", Json::Num(observed_ms)),
        (
            "attribution",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        obj([
                            ("layer", Json::Str(r.layer.into())),
                            ("cost_from", Json::Str(r.source.clone())),
                            ("ops", Json::Num(r.ops)),
                            ("ns_per_op", Json::Num(r.ns_per_op)),
                            ("ms", Json::Num(r.ms())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans", tracer.to_json(name)),
    ]);
    let path = dir.join(format!("trace-{name}-{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_line() + "\n"));
    match written {
        Ok(()) => println!("# spans and counts written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

// ------------------------------------------------------------ the drives

/// Drive a simulator workload the way `dynagg_scenario::run` does, but
/// from outside: public constructors, then the engine's stepping call,
/// each under a span.
fn drive_sim(
    name: &'static str,
    w: &SimWorkload,
    seed: u64,
    shards: Option<usize>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (ScenarioSpec, Series, Counts) {
    let root = tracer.open(name);
    let setup = tracer.open("setup");
    let text = format!("seed = {seed}\n{}", w.toml);
    let spec = tracer.scope("ScenarioSpec::from_toml_str", |_| {
        ScenarioSpec::from_toml_str(&text).expect("workload files parse")
    });
    tracer.scope("ScenarioSpec::validate", |_| spec.validate().expect("workload specs validate"));
    let n = spec.n.expect("workloads name their population");

    let (series, mut counts) = match spec.protocol {
        ProtocolSpec::PushSumRevert { lambda } => {
            drive_protocol(&spec, w, shards, setup, tracer, checks, move |_, v| {
                PushSumRevert::new(v, lambda)
            })
        }
        ProtocolSpec::CountSketchReset { cutoff, push_pull, multiplier, hash_seed_xor } => {
            let cfg = ResetConfig::paper(n as u64 * multiplier, seed ^ hash_seed_xor)
                .with_cutoff(cutoff)
                .with_push_pull(push_pull);
            drive_protocol(&spec, w, shards, setup, tracer, checks, move |id: NodeId, _| {
                CountSketchReset::with_multiplier(cfg, u64::from(id), multiplier)
            })
        }
        ref other => unreachable!("no workload runs {}", other.name()),
    };
    tracer.close(root);
    counts.host_rounds = series.rounds.iter().map(|r| r.alive as u64).sum();
    counts.messages = series.total_messages();
    (spec, series, counts)
}

fn drive_protocol<P, F>(
    spec: &ScenarioSpec,
    w: &SimWorkload,
    shards: Option<usize>,
    setup: crate::spans::Open,
    tracer: &mut Tracer,
    checks: &mut Checks,
    factory: F,
) -> (Series, Counts)
where
    P: PushProtocol + Send + 'static,
    P::Message: WireMessage + Send,
    F: FnMut(NodeId, f64) -> P + 'static,
{
    let n = spec.n.expect("workloads name their population");
    let rounds = spec.rounds.expect("workloads name their horizon");
    let seed = spec.seed;
    let env = tracer.scope("scenario::build_env", |_| build_env(&spec.env, n, seed));
    let mut counts = Counts::default();

    if spec.engine != Engine::Async {
        let builder = runner::builder(seed).environment_boxed(env);
        let builder = match spec.values {
            ValueSpec::Paper => builder.nodes_with_paper_values(n),
            ValueSpec::Constant(x) => builder.nodes_with_constant(n, x),
        };
        let mut sim = tracer.scope("runner::Builder::build", |_| {
            builder
                .protocol(factory)
                .truth(spec.truth)
                .failure(spec.failure)
                .message_loss(spec.loss)
                .build()
        });
        tracer.close(setup);

        // One span per `Simulation::step`, grouped into phases: steady
        // until the failure round, perturb for that round, recover while
        // the error is over the workload's tolerance, then steady again.
        let failure = sim::failure_round(spec);
        let mut phase_name = "steady";
        let mut phase = tracer.open(phase_name);
        for round in 0..rounds {
            let want = if Some(round) == failure {
                "perturb"
            } else if phase_name == "perturb" || phase_name == "recover" {
                let last = sim.series().last().expect("a round has run");
                let over = w
                    .recover_tol_pct
                    .is_some_and(|tol| last.mean_abs_err > last.truth * tol / 100.0);
                if over {
                    "recover"
                } else {
                    "steady"
                }
            } else {
                "steady"
            };
            if want != phase_name {
                tracer.close(phase);
                phase_name = want;
                phase = tracer.open(phase_name);
            }
            tracer.scope("Simulation::step", |_| sim.step());
        }
        tracer.close(phase);

        let teardown = tracer.open("teardown");
        let mut series = sim.series().clone();
        // The lockstep engines never encode; the registry prices their
        // wire column per message, and so does this drive.
        let per_msg =
            (wire_cost(&spec.protocol, n, seed).encoded_bytes + FRAME_HEADER_BYTES) as u64;
        for r in &mut series.rounds {
            r.wire_bytes = r.messages * per_msg;
        }
        tracer.scope("drop(Simulation)", |_| drop(sim));
        tracer.close(teardown);
        return (series, counts);
    }

    let a = spec.asynchrony.unwrap_or_default();
    let mut cfg = AsyncConfig::new(seed);
    cfg.interval_ms = a.interval_ms;
    cfg.jitter = a.jitter;
    cfg.latency = match a.latency {
        LatencySpec::Constant { ms } => LatencyModel::Constant { ms },
        LatencySpec::Uniform { lo_ms, hi_ms } => LatencyModel::Uniform { lo_ms, hi_ms },
        LatencySpec::Exponential { mean_ms } => LatencyModel::Exponential { mean_ms },
    };
    cfg.loss = spec.loss;
    cfg.sample_every_ms = a.sample_every_ms.unwrap_or(a.interval_ms);
    let values: dynagg_node::loopback::ValueFn = match spec.values {
        ValueSpec::Paper => Box::new(|rng, _| rng.gen_range(0.0..100.0)),
        ValueSpec::Constant(x) => Box::new(move |_, _| x),
    };
    let drift = a.drift;
    let drift_of = Box::new(move |id| drift.model_for(id, n));
    let (spec_shards, _) = spec.effective_shards(n);
    let shards = shards.unwrap_or(spec_shards);

    // The async engines take the whole horizon in one call (`run` may
    // be called once per network), so their phases are set-up, run and
    // tear-down; the failure strikes inside `run`.
    if spec_shards >= 2 {
        let map = match spec.env {
            EnvSpec::Clustered { clusters, .. } => ShardMap::clustered(n, clusters, shards),
            _ => ShardMap::uniform(n, shards),
        };
        let mut net = tracer.scope("ShardedNet::new", |_| {
            ShardedNet::new(n, cfg, map, values, drift_of, Box::new(factory))
                .with_membership(env)
                .with_truth(spec.truth)
                .with_failure(spec.failure)
        });
        tracer.close(setup);
        let phase = tracer.open("run");
        tracer.scope("ShardedNet::run", |_| net.run(rounds));
        tracer.close(phase);
        counts.events = net.events_processed();
        counts.shards = shards as u64;
        for (what, count) in [
            ("decode errors", net.decode_errors()),
            ("horizon violations", net.horizon_violations()),
            ("cross-island deliveries", net.cross_island_deliveries()),
        ] {
            checks.check(count == 0, || format!("{count} {what} on the sharded engine"));
        }
        let teardown = tracer.open("teardown");
        let series = tracer.scope("ShardedNet::into_series", |_| net.into_series());
        tracer.close(teardown);
        return (series, counts);
    }
    let mut net = tracer.scope("AsyncNet::new", |_| {
        AsyncNet::new(n, cfg, values, drift_of, Box::new(factory))
            .with_membership(env)
            .with_truth(spec.truth)
            .with_failure(spec.failure)
    });
    tracer.close(setup);
    let phase = tracer.open("run");
    tracer.scope("AsyncNet::run", |_| net.run(rounds));
    tracer.close(phase);
    counts.events = net.events_processed();
    counts.slots_patched = net.view_slots_patched();
    counts.full_assignments = net.full_view_assignments();
    counts.shards = 1;
    let teardown = tracer.open("teardown");
    let series = tracer.scope("AsyncNet::into_series", |_| net.into_series());
    tracer.close(teardown);
    (series, counts)
}

// ----------------------------------------------------------- attribution

/// The (operation count × per-operation cost) model of one workload.
///
/// Top-level rows are disjoint and sum toward the observed time: one-off
/// set-up costs, then the engine's own steady cost per operation as the
/// engine-level probe measured it at this population. The rows inside an
/// engine row price its known parts in isolation (hot caches, no engine
/// around them); what they leave is the loop itself — memory traffic
/// across the population, bookkeeping. Every simulator workload is one
/// thread with nothing contending, so a faster layer saves at most its
/// own row; on two shards the parts are counted per shard, because a
/// window ends when the slower shard does.
fn attribution(
    w: &Workload,
    shape: &layers::Shape,
    c: &Counts,
    cost: &dyn Fn(&str) -> f64,
) -> Vec<Row> {
    let row = |layer: &'static str, source: &str, ops: f64| Row {
        layer,
        source: source.to_string(),
        ops,
        ns_per_op: cost(source),
        inside: false,
    };
    let part = |layer: &'static str, source: &str, ops: f64| Row {
        inside: true,
        ..row(layer, source, ops)
    };
    // A cost reported in ms or µs, as `ops` operations of its share in ns.
    let scaled = |layer: &'static str, source: &str, ops: f64, ns: f64| Row {
        layer,
        source: source.to_string(),
        ops,
        ns_per_op: ns,
        inside: false,
    };
    let (round, on_message) = if shape.sketch {
        ("core.count_sketch_reset.round_ns", "core.count_sketch_reset.on_message_ns")
    } else {
        ("core.push_sum_revert.round_ns", "core.push_sum_revert.on_message_ns")
    };
    let scenario = [
        scaled("scenario parse", "scenario.parse_us", 1.0, cost("scenario.parse_us") * 1e3),
        scaled(
            "scenario validate",
            "scenario.validate_us",
            1.0,
            cost("scenario.validate_us") * 1e3,
        ),
        scaled(
            "scenario build_env",
            "scenario.build_env_ms",
            1.0,
            cost("scenario.build_env_ms") * 1e6,
        ),
    ];
    // The engine probes spawn a capped population; price a host at its
    // share and charge the workload's population.
    let spawn = |source: &str| {
        let per_host = cost(source) * 1e6 / shape.engine_pop() as f64;
        scaled("engine spawn", source, shape.n as f64, per_host)
    };
    let (hr, msgs, events) = (c.host_rounds as f64, c.messages as f64, c.events as f64);
    let mut rows = Vec::new();
    match &w.kind {
        Kind::Sim(_) if shape.lockstep => {
            rows.extend(scenario);
            rows.push(scaled(
                "engine build",
                "sim.runner.build_ms",
                1.0,
                cost("sim.runner.build_ms") * 1e6,
            ));
            rows.push(row("engine steps", "sim.runner.step_steady_ns_per_host", hr));
            rows.push(part("protocol round", round, hr));
            rows.push(part("protocol on_message", on_message, msgs));
            rows.push(part("partner sampling", "sim.membership.uniform_sample_ns", hr));
            if shape.sketch {
                // The engine reads every host's estimate every round.
                rows.push(part("estimate per host-round", "sketch.age.estimate_ns", hr));
            }
            rows.push(scaled(
                "failure step",
                "sim.runner.step_failure_ms",
                1.0,
                cost("sim.runner.step_failure_ms") * 1e6,
            ));
        }
        Kind::Sim(_) => {
            let sharded = c.shards >= 2;
            let churning = matches!(shape.failure, dynagg_sim::FailureSpec::Churn { .. });
            let per_shard = 1.0 / c.shards.max(1) as f64;
            rows.extend(scenario);
            rows.push(spawn(if sharded {
                "node.shard.spawn_ms"
            } else {
                "node.loopback.spawn_ms"
            }));
            rows.push(row(
                "engine events",
                match (sharded, churning) {
                    (true, _) => "node.shard.k2_ns_per_event",
                    (false, true) => "node.loopback.churn_ns_per_event",
                    (false, false) => "node.loopback.steady_ns_per_event",
                },
                events,
            ));
            rows.push(part("event queue", "node.event.wheel_ns", events * per_shard));
            rows.push(part("runtime poll", "node.runtime.poll_ns", hr * per_shard));
            rows.push(part("runtime handle", "node.runtime.handle_ns", msgs * per_shard));
            if shape.sketch {
                rows.push(part("estimate per sample", "sketch.age.estimate_ns", hr));
            }
            if c.slots_patched + c.full_assignments > 0 {
                rows.push(part("view patch", "node.views.patch_ns", c.slots_patched as f64));
                rows.push(part("view assign", "node.views.assign_ns", c.full_assignments as f64));
            }
        }
        Kind::Serve(ServeWorkload { carrier, .. }) => {
            // Timer firings plus deliveries: the virtual-clock loop's unit.
            rows.push(row("service loop", "node.service.virtual_ns_per_event", hr + msgs));
            rows.push(part("timer queue", "node.event.wheel_ns", hr));
            rows.push(part("runtime poll", "node.runtime.poll_ns", hr));
            rows.push(part("runtime handle", "node.runtime.handle_ns", msgs));
            rows.push(part("channel carrier", "node.transport.channel_ns_per_frame", msgs));
            if *carrier == Carrier::Udp {
                // The virtual-clock probe rides the channel mesh; UDP pays
                // the difference per datagram on top.
                let extra = cost("node.transport.udp_ns_per_datagram")
                    - cost("node.transport.channel_ns_per_frame");
                rows.push(scaled(
                    "udp over channel carrier",
                    "node.transport.udp_ns_per_datagram",
                    msgs,
                    extra,
                ));
            }
        }
    }
    rows
}
