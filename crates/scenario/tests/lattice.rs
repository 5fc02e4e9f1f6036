//! The whole finite lattice of "what combines with what": 8 protocols ×
//! {push, pairwise, async, async `shards = 2`} × {uniform, trace} × report
//! × probe × {no adversary, 3 attacks} × wire accounting. For every cell:
//!
//! (a) `validate` accepts exactly when the capability table
//!     (`dynagg_scenario::caps`) says the combination is granted;
//! (b) a rejection is a typed `Unsupported` or `Invalid`, never a panic;
//! (c) an accepted spec runs — `dynagg_scenario::run` at n ≤ 24 for 2
//!     rounds returns a series of 2 rows — so the table cannot grant
//!     something the registry does not assemble (ROADMAP item 1's oracle
//!     (e) over the enumerable part of the spec space).
//!
//! The prediction below restates the requirements independently of
//! `ScenarioSpec::validate`; only the rows are shared.

use dynagg_core::adversary::Attack;
use dynagg_scenario::caps::{Frames, Payload, ProtocolCaps, PROTOCOLS};
use dynagg_scenario::{
    AdversarySpec, AsyncSpec, Engine, EnvSpec, Probe, Report, ScenarioError, ScenarioSpec,
    ShardsSpec, WireAccounting,
};
use dynagg_trace::datasets::Dataset;

const ATTACKS: [Option<Attack>; 4] = [
    None,
    Some(Attack::MassInflation { factor: 2.0 }),
    Some(Attack::StaleEpochReplay),
    Some(Attack::SketchCorruption { cells: 4 }),
];

/// What the table predicts for one cell.
fn granted(
    row: &ProtocolCaps,
    engine: Engine,
    report: Report,
    probe: Option<Probe>,
    attack: Option<Attack>,
    wire: WireAccounting,
) -> bool {
    use Payload::{AgeMatrix, EpochMass, Mass, SketchBits};
    let carries = |any: &[Payload]| any.contains(&row.payload);
    let caps = engine.caps();
    let forgeable = match attack {
        None => true,
        Some(Attack::MassInflation { .. }) => caps.messages && carries(&[Mass, EpochMass]),
        Some(Attack::StaleEpochReplay) => caps.messages && carries(&[EpochMass]),
        Some(Attack::SketchCorruption { .. }) => caps.messages && carries(&[SketchBits, AgeMatrix]),
    };
    (engine != Engine::Pairwise || row.pairwise)
        && (report != Report::CounterCdf || carries(&[AgeMatrix]))
        && (probe != Some(Probe::MassWeight) || carries(&[Mass]))
        && forgeable
        && (wire != WireAccounting::Measured || caps.frames == Frames::Metered)
}

#[test]
fn validation_accepts_exactly_what_the_table_grants_and_what_it_accepts_runs() {
    let sharded = AsyncSpec { shards: Some(ShardsSpec::Count(2)), ..AsyncSpec::default() };
    let engines =
        Engine::ALL.map(|e| (e, None)).into_iter().chain([(Engine::Async, Some(sharded))]);
    let envs = [
        (EnvSpec::Uniform, Some(24)),
        (EnvSpec::Trace { dataset: Dataset::One }, None), // 9 devices
    ];
    let (mut accepted, mut rejected) = (0, 0);
    for (engine, asynchrony) in engines {
        for row in &PROTOCOLS {
            for (env, n) in &envs {
                for report in Report::ALL {
                    for probe in [None, Some(Probe::MassWeight)] {
                        for attack in ATTACKS {
                            for wire in WireAccounting::ALL {
                                let mut spec =
                                    ScenarioSpec::new("cell", 7, env.clone(), row.example);
                                (spec.n, spec.rounds) = (*n, Some(2));
                                (spec.engine, spec.asynchrony) = (engine, asynchrony);
                                (spec.output.report, spec.output.probe) = (report, probe);
                                spec.wire = wire;
                                spec.adversary = attack.map(|attack| AdversarySpec {
                                    attack,
                                    fraction: 0.25,
                                    from_round: 0,
                                });
                                let predicted = granted(row, engine, report, probe, attack, wire);
                                if check(&spec, predicted) {
                                    accepted += 1;
                                } else {
                                    rejected += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(accepted + rejected, 8 * 4 * 2 * 2 * 2 * 4 * 2);
    // The prediction reads the table too, so a row that *loses* a capability
    // shrinks both sides alike; the count is what notices. 224 = the 250 of
    // twelve rows less the 26 cells of the three extension aggregates (max,
    // variance, histogram) that were deleted for want of anything checking
    // them: 8 + 10 + 8, since a payload of its own runs only unprobed,
    // unattacked series — per env, on push under either `wire`, on async and
    // sharded async under the default one, and the pairwise one on pairwise.
    // 188 = 224 less the 36 cells of the `push-sum` row, deleted because
    // static Push-Sum is `push-sum-revert` at λ = 0: 18 per env — 8 on push
    // (probe × inflation × wire), 2 on pairwise (probe), and 4 each on async
    // and sharded async (probe × inflation).
    assert_eq!(accepted, 188, "the table grants a different number of cells than it used to");
}

/// One cell: (a), (b) and (c) of the module docs. Returns whether the
/// spec was accepted.
fn check(spec: &ScenarioSpec, predicted: bool) -> bool {
    let cell = || {
        format!(
            "{} × {:?} {:?} × {:?} × {:?} × {:?} × {:?}",
            spec.protocol.name(),
            spec.engine,
            spec.asynchrony.and_then(|a| a.shards),
            spec.env,
            spec.output,
            spec.adversary.map(|adv| adv.attack),
            spec.wire
        )
    };
    match spec.validate() {
        Ok(()) => {
            assert!(predicted, "{}: accepted, but the table does not grant it", cell());
            let outcome = dynagg_scenario::run(spec)
                .unwrap_or_else(|e| panic!("{}: validated, then `run` said {e}", cell()));
            let trial = &outcome.instances[0].trials[0];
            assert_eq!(trial.series.rounds.len(), 2, "{}", cell());
            assert_eq!(trial.probe.is_some(), spec.output.probe.is_some(), "{}", cell());
            let cdf = spec.output.report == Report::CounterCdf;
            assert_eq!(trial.counter_samples.is_some(), cdf, "{}", cell());
            true
        }
        Err(ScenarioError::Unsupported { .. } | ScenarioError::Invalid { .. }) => {
            assert!(!predicted, "{}: the table grants it, but validation refused", cell());
            false
        }
        Err(other) => panic!("{}: untyped rejection {other:?}", cell()),
    }
}
