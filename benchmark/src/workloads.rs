//! The seven named workloads: their files under `workloads/` (compiled
//! in, so a run cannot pick up an edited copy by accident) and the
//! per-workload gate parameters.
//!
//! No file carries a seed — [`SimWorkload::spec`] prepends the harness's
//! `--seed` — and none is read from the repository's `scenarios/`, so an
//! edit there cannot move the baseline.

use dynagg_scenario::ScenarioSpec;

/// A lockstep or asynchronous simulator workload: a scenario file plus
/// the limits its simulated statistics must stay inside.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    pub toml: &'static str,
    /// Final-row `mean_abs_err / truth` may not exceed this (percent).
    pub err_limit_pct: f64,
    /// After the failure round the error must return under this share of
    /// the truth (percent) and stay there — `Series::reconvergence_after`
    /// — within [`SimWorkload::recover_limit`] rounds. `None` for the
    /// churn workload, which has no single failure to recover from.
    pub recover_tol_pct: Option<f64>,
    pub recover_limit: u64,
}

impl SimWorkload {
    /// The workload's scenario with the harness seed injected.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        ScenarioSpec::from_toml_str(&format!("seed = {seed}\n{}", self.toml))
            .expect("workload files are checked in and parse")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carrier {
    Inproc,
    Udp,
}

/// A live-service workload, parsed from its file.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub carrier: Carrier,
    pub nodes: usize,
    pub workers: usize,
    pub interval_ms: u64,
    pub lambda: f64,
    pub writes_per_s: u64,
    pub write_batch_ms: u64,
    pub snapshot_every_ms: u64,
    pub chaos_fraction: f64,
}

impl ServeWorkload {
    fn parse(src: &str) -> Self {
        let t = toml::parse(src).expect("workload files are checked in and parse");
        let int = |k: &str| t.get(k).and_then(|v| v.as_integer()).expect(k) as u64;
        let float = |k: &str| t.get(k).and_then(|v| v.as_float()).expect(k);
        Self {
            carrier: match t.get("transport").and_then(|v| v.as_str()).expect("transport") {
                "inproc" => Carrier::Inproc,
                "udp" => Carrier::Udp,
                other => panic!("unknown transport `{other}`"),
            },
            nodes: int("nodes") as usize,
            workers: int("workers") as usize,
            interval_ms: int("interval_ms"),
            lambda: float("lambda"),
            writes_per_s: int("writes_per_s"),
            write_batch_ms: int("write_batch_ms"),
            snapshot_every_ms: int("snapshot_every_ms"),
            chaos_fraction: float("chaos_fraction"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Sim(SimWorkload),
    Serve(ServeWorkload),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

macro_rules! file {
    ($name:literal) => {
        include_str!(concat!("../workloads/", $name, ".toml"))
    };
}

/// Every workload, in report order (the order `BENCHMARK.json` lists).
pub fn all() -> Vec<Workload> {
    let sim = |name, toml, err_limit_pct, recover_tol_pct, recover_limit| Workload {
        name,
        kind: Kind::Sim(SimWorkload { toml, err_limit_pct, recover_tol_pct, recover_limit }),
    };
    let serve = |name, toml| Workload { name, kind: Kind::Serve(ServeWorkload::parse(toml)) };
    vec![
        // Averaging sits on its reversion floor (λ-dependent, ~6 % at
        // λ = 0.05, ~3 % at 0.01); an uncorrelated failure barely moves it.
        sim("push_avg", file!("push_avg"), 9.0, Some(9.0), 5),
        // A 64-bin sketch errs by ~10 % (1 σ) whatever the seed, so the
        // limits are 4 σ wide; recovery is the cutoff ageing out the dead
        // half's bits (8 rounds lockstep, ~25 over drifting timers).
        sim("sketch_count", file!("sketch_count"), 40.0, Some(40.0), 14),
        sim("async_sketch", file!("async_sketch"), 40.0, Some(40.0), 38),
        sim("async_churn", file!("async_churn"), 25.0, None, 0),
        sim("sharded_avg", file!("sharded_avg"), 6.0, Some(6.0), 5),
        serve("serve_inproc", file!("serve_inproc")),
        serve("serve_udp", file!("serve_udp")),
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
