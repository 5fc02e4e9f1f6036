//! TOML → [`ScenarioSpec`] deserialization.
//!
//! Hand-rolled against the `toml` shim's value model (the serde shim is a
//! no-op, so there is no derive to lean on) with strict key checking:
//! every table rejects keys it does not know, so a `clusters` key under
//! `kind = "uniform"` is a typed error rather than silently dead
//! configuration.

use crate::caps::PROTOCOLS;
use crate::error::ScenarioError;
use crate::spec::{
    AdversarySpec, AsyncSpec, CliqueDrift, DriftSpec, Engine, EnvSpec, LatencySpec, Metric,
    OutputSpec, Probe, ProtocolSpec, Report, ScenarioSpec, ShardsSpec, Sweep, SweepAxis, ValueSpec,
    WireAccounting,
};
use dynagg_core::adversary::Attack;
use dynagg_sim::env::{MobilityEvent, MobilityKind};
use dynagg_sim::partition::{Island, PartitionEvent};
use dynagg_sim::{FailureMode, FailureSpec, Truth};
use dynagg_sketch::cutoff::Cutoff;
use dynagg_trace::datasets::Dataset;
use toml::{Table, Value};

impl ScenarioSpec {
    /// Parse and validate a scenario from TOML text.
    pub fn from_toml_str(src: &str) -> Result<Self, ScenarioError> {
        let spec = Self::from_table(&toml::parse(src)?)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Deserialize from an already-parsed TOML table (not yet validated).
    pub fn from_table(doc: &Table) -> Result<Self, ScenarioError> {
        let top = Ctx { table: doc, name: "" };
        top.check_keys(&[
            "name",
            "description",
            "seed",
            "n",
            "rounds",
            "trials",
            "engine",
            "wire",
            "truth",
            "loss",
            "async",
            "env",
            "values",
            "protocol",
            "failure",
            "partition",
            "adversary",
            "output",
            "sweep",
        ])?;

        let name = top.req_str("name")?.to_string();
        let description = top.opt_str("description")?.unwrap_or_default().to_string();
        let seed = top.req_u64("seed")?;
        let n = top.opt_u64("n")?.map(|v| v as usize);
        let rounds = top.opt_u64("rounds")?;
        let trials = top.opt_u64("trials")?.unwrap_or(1);
        let engine = top.opt_named("engine", Engine::from_name)?.unwrap_or_default();
        let wire = top.opt_named("wire", WireAccounting::from_name)?.unwrap_or_default();
        let asynchrony = top.opt_table("async")?.map(parse_async).transpose()?;
        let truth = top.opt_named("truth", |s| s.parse().ok())?.unwrap_or(Truth::Mean);
        let loss = top.opt_f64("loss")?.unwrap_or(0.0);

        let env = parse_env(top.req_table("env")?)?;
        let values = top.opt_table("values")?.map(parse_values).transpose()?.unwrap_or_default();
        let protocol = parse_protocol(top.req_table("protocol")?)?;
        let failure =
            top.opt_table("failure")?.map(parse_failure).transpose()?.unwrap_or(FailureSpec::None);
        let partitions = top.tables("partition", parse_partition)?;
        let adversary = top.opt_table("adversary")?.map(parse_adversary).transpose()?;
        let output = top.opt_table("output")?.map(parse_output).transpose()?.unwrap_or_default();
        let sweep = top.opt_table("sweep")?.map(parse_sweep).transpose()?;

        Ok(ScenarioSpec {
            name,
            description,
            seed,
            n,
            rounds,
            trials,
            engine,
            wire,
            asynchrony,
            env,
            values,
            protocol,
            truth,
            failure,
            loss,
            partitions,
            adversary,
            output,
            sweep,
        })
    }
}

/// A table plus its name, with typed accessors that produce
/// [`ScenarioError`]s mentioning both.
struct Ctx<'a> {
    table: &'a Table,
    name: &'static str,
}

impl<'a> Ctx<'a> {
    fn check_keys(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for key in self.table.keys() {
            if !allowed.contains(&key) {
                return Err(ScenarioError::UnknownKey { table: self.name, key: key.to_string() });
            }
        }
        Ok(())
    }

    fn key_path(&self, key: &str) -> String {
        if self.name.is_empty() {
            key.to_string()
        } else {
            format!("{}.{}", self.name, key)
        }
    }

    fn req(&self, key: &'static str) -> Result<&'a Value, ScenarioError> {
        self.table.get(key).ok_or(ScenarioError::Missing { table: self.name, key })
    }

    fn type_err(&self, key: &str, expected: &'static str, v: &Value) -> ScenarioError {
        ScenarioError::Type { key: self.key_path(key), expected, found: v.type_name() }
    }

    fn req_str(&self, key: &'static str) -> Result<&'a str, ScenarioError> {
        let v = self.req(key)?;
        v.as_str().ok_or_else(|| self.type_err(key, "string", v))
    }

    fn opt_str(&self, key: &'static str) -> Result<Option<&'a str>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or_else(|| self.type_err(key, "string", v)),
        }
    }

    /// An optional string key holding one of an enum's scenario-file names.
    fn opt_named<T>(
        &self,
        key: &'static str,
        from_name: fn(&str) -> Option<T>,
    ) -> Result<Option<T>, ScenarioError> {
        self.opt_str(key)?.map(|name| named(key, name, from_name)).transpose()
    }

    fn to_u64(&self, key: &str, v: &Value) -> Result<u64, ScenarioError> {
        let i = v.as_integer().ok_or_else(|| self.type_err(key, "integer", v))?;
        u64::try_from(i).map_err(|_| ScenarioError::Invalid {
            key: self.key_path(key),
            reason: format!("must be non-negative, got {i}"),
        })
    }

    fn req_u64(&self, key: &'static str) -> Result<u64, ScenarioError> {
        let v = self.req(key)?;
        self.to_u64(key, v)
    }

    fn opt_u64(&self, key: &'static str) -> Result<Option<u64>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => self.to_u64(key, v).map(Some),
        }
    }

    /// A count the spec holds as `u32`: out of range is an error, not a wrap.
    fn opt_u32(&self, key: &'static str) -> Result<Option<u32>, ScenarioError> {
        let narrow = |v| {
            u32::try_from(v).map_err(|_| ScenarioError::Invalid {
                key: self.key_path(key),
                reason: format!("{v} does not fit in 32 bits"),
            })
        };
        self.opt_u64(key)?.map(narrow).transpose()
    }

    fn req_u32(&self, key: &'static str) -> Result<u32, ScenarioError> {
        self.opt_u32(key)?.ok_or(ScenarioError::Missing { table: self.name, key })
    }

    fn req_f64(&self, key: &'static str) -> Result<f64, ScenarioError> {
        let v = self.req(key)?;
        v.as_float().ok_or_else(|| self.type_err(key, "number", v))
    }

    fn opt_f64(&self, key: &'static str) -> Result<Option<f64>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_float().map(Some).ok_or_else(|| self.type_err(key, "number", v)),
        }
    }

    fn opt_bool(&self, key: &'static str) -> Result<Option<bool>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_bool().map(Some).ok_or_else(|| self.type_err(key, "boolean", v)),
        }
    }

    fn req_table(&self, key: &'static str) -> Result<&'a Table, ScenarioError> {
        let v = self.req(key)?;
        v.as_table().ok_or_else(|| self.type_err(key, "table", v))
    }

    fn opt_table(&self, key: &'static str) -> Result<Option<&'a Table>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_table().map(Some).ok_or_else(|| self.type_err(key, "table", v)),
        }
    }

    fn opt_array(&self, key: &'static str) -> Result<Option<&'a [Value]>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_array().map(Some).ok_or_else(|| self.type_err(key, "array", v)),
        }
    }

    /// An optional array of tables (`[[key]]`), each parsed by `parse`;
    /// absent reads as empty.
    fn tables<T>(
        &self,
        key: &'static str,
        parse: fn(&Table) -> Result<T, ScenarioError>,
    ) -> Result<Vec<T>, ScenarioError> {
        let parse_item = |item: &'a Value| {
            parse(item.as_table().ok_or_else(|| self.type_err(key, "array of tables", item))?)
        };
        self.opt_array(key)?.unwrap_or_default().iter().map(parse_item).collect()
    }
}

/// Resolve one of an enum's scenario-file names.
fn named<T>(
    what: &'static str,
    name: &str,
    from_name: fn(&str) -> Option<T>,
) -> Result<T, ScenarioError> {
    from_name(name).ok_or_else(|| ScenarioError::UnknownName { what, name: name.into() })
}

/// The `[async]` table (see [`AsyncSpec`] for defaults).
fn parse_async(table: &Table) -> Result<AsyncSpec, ScenarioError> {
    let a = Ctx { table, name: "async" };
    a.check_keys(&["interval_ms", "jitter", "latency", "drift", "sample_every_ms", "shards"])?;
    let defaults = AsyncSpec::default();
    let latency = match a.opt_table("latency")? {
        None => defaults.latency,
        Some(t) => {
            let l = Ctx { table: t, name: "async.latency" };
            match l.req_str("kind")? {
                "constant" => {
                    l.check_keys(&["kind", "ms"])?;
                    LatencySpec::Constant { ms: l.req_u64("ms")? }
                }
                "uniform" => {
                    l.check_keys(&["kind", "lo_ms", "hi_ms"])?;
                    LatencySpec::Uniform { lo_ms: l.req_u64("lo_ms")?, hi_ms: l.req_u64("hi_ms")? }
                }
                "exponential" => {
                    l.check_keys(&["kind", "mean_ms"])?;
                    LatencySpec::Exponential { mean_ms: l.req_f64("mean_ms")? }
                }
                other => {
                    return Err(ScenarioError::UnknownName {
                        what: "latency kind",
                        name: other.into(),
                    })
                }
            }
        }
    };
    let drift = match a.opt_table("drift")? {
        None => defaults.drift,
        Some(t) => {
            let d = Ctx { table: t, name: "async.drift" };
            match d.req_str("kind")? {
                "synced" => {
                    d.check_keys(&["kind"])?;
                    DriftSpec::Synced
                }
                "skew" => {
                    d.check_keys(&["kind", "spread"])?;
                    DriftSpec::Skew { spread: d.req_f64("spread")? }
                }
                other => {
                    return Err(ScenarioError::UnknownName {
                        what: "drift kind",
                        name: other.into(),
                    })
                }
            }
        }
    };
    // `shards` is an integer count or the string "auto".
    let shards = match a.table.get("shards") {
        None => None,
        Some(v) => match (v.as_integer(), v.as_str()) {
            (Some(_), _) => Some(ShardsSpec::Count(a.to_u64("shards", v)?)),
            (None, Some("auto")) => Some(ShardsSpec::Auto),
            (None, Some(other)) => {
                return Err(ScenarioError::Invalid {
                    key: "async.shards".into(),
                    reason: format!("expected a shard count or \"auto\", got \"{other}\""),
                })
            }
            (None, None) => {
                return Err(ScenarioError::Invalid {
                    key: "async.shards".into(),
                    reason: format!("expected an integer or \"auto\", got {v:?}"),
                })
            }
        },
    };
    Ok(AsyncSpec {
        interval_ms: a.opt_u64("interval_ms")?.unwrap_or(defaults.interval_ms),
        jitter: a.opt_f64("jitter")?.unwrap_or(defaults.jitter),
        latency,
        drift,
        sample_every_ms: a.opt_u64("sample_every_ms")?,
        shards,
    })
}

fn parse_env(table: &Table) -> Result<EnvSpec, ScenarioError> {
    let env = Ctx { table, name: "env" };
    match env.req_str("kind")? {
        "uniform" => env.check_keys(&["kind"]).map(|()| EnvSpec::Uniform),
        "spatial" => env.check_keys(&["kind"]).map(|()| EnvSpec::Spatial),
        "clustered" => {
            env.check_keys(&["kind", "clusters", "migration", "bridge", "events"])?;
            Ok(EnvSpec::Clustered {
                clusters: env.req_u32("clusters")?,
                migration: env.opt_f64("migration")?.unwrap_or(0.0),
                bridge: env.opt_f64("bridge")?.unwrap_or(0.0),
                events: env.tables("events", parse_event)?,
            })
        }
        "trace" => {
            env.check_keys(&["kind", "dataset"])?;
            let idx = env.req_u64("dataset")?;
            let dataset = Dataset::from_index(idx as usize).ok_or(ScenarioError::Invalid {
                key: "env.dataset".into(),
                reason: format!("no dataset {idx} (choose 1, 2, or 3)"),
            })?;
            Ok(EnvSpec::Trace { dataset })
        }
        other => Err(ScenarioError::UnknownName { what: "environment kind", name: other.into() }),
    }
}

fn parse_event(table: &Table) -> Result<MobilityEvent, ScenarioError> {
    let ev = Ctx { table, name: "env.events" };
    let round = ev.req_u64("round")?;
    let kind = match ev.req_str("kind")? {
        "burst" => {
            ev.check_keys(&["round", "kind", "fraction"])?;
            MobilityKind::Burst { fraction: ev.req_f64("fraction")? }
        }
        "merge" => {
            ev.check_keys(&["round", "kind", "from", "into"])?;
            MobilityKind::Merge { from: ev.req_u32("from")?, into: ev.req_u32("into")? }
        }
        "split" => {
            ev.check_keys(&["round", "kind", "from", "into"])?;
            MobilityKind::Split { from: ev.req_u32("from")?, into: ev.req_u32("into")? }
        }
        other => {
            return Err(ScenarioError::UnknownName {
                what: "mobility event kind",
                name: other.into(),
            })
        }
    };
    Ok(MobilityEvent { round, kind })
}

fn parse_values(table: &Table) -> Result<ValueSpec, ScenarioError> {
    let values = Ctx { table, name: "values" };
    match values.req_str("kind")? {
        "paper" => {
            values.check_keys(&["kind"])?;
            Ok(ValueSpec::Paper)
        }
        "constant" => {
            values.check_keys(&["kind", "value"])?;
            Ok(ValueSpec::Constant(values.req_f64("value")?))
        }
        other => Err(ScenarioError::UnknownName { what: "value kind", name: other.into() }),
    }
}

/// The `[protocol]` table. The capability table names the protocol, lists
/// the keys it accepts and, through its example, supplies every default.
fn parse_protocol(table: &Table) -> Result<ProtocolSpec, ScenarioError> {
    use ProtocolSpec as P;
    let p = Ctx { table, name: "protocol" };
    let name = p.req_str("name")?;
    let row = PROTOCOLS
        .iter()
        .find(|row| row.name == name)
        .ok_or_else(|| ScenarioError::UnknownName { what: "protocol", name: name.into() })?;
    p.check_keys(&[&["name"], row.keys].concat())?;
    Ok(match row.example {
        P::PushSumRevert { .. } => P::PushSumRevert { lambda: p.req_f64("lambda")? },
        P::FullTransfer { parcels, window, .. } => P::FullTransfer {
            lambda: p.req_f64("lambda")?,
            parcels: p.opt_u32("parcels")?.unwrap_or(parcels),
            window: p.opt_u64("window")?.map_or(window, |v| v as usize),
        },
        P::AdaptiveRevert { .. } => P::AdaptiveRevert { lambda: p.req_f64("lambda")? },
        P::EpochPushSum { .. } => {
            let clique_drift = match p.opt_table("clique_drift")? {
                None => None,
                Some(t) => {
                    let cd = Ctx { table: t, name: "protocol.clique_drift" };
                    cd.check_keys(&["clusters", "magnitude"])?;
                    Some(CliqueDrift {
                        clusters: cd.req_u32("clusters")?,
                        magnitude: cd.req_f64("magnitude")?,
                    })
                }
            };
            P::EpochPushSum {
                epoch_len: p.req_u64("epoch_len")?,
                settle_len: p.opt_u64("settle_len")?,
                clique_drift,
            }
        }
        P::CountSketch { multiplier, hash_seed_xor } => P::CountSketch {
            multiplier: p.opt_u64("multiplier")?.unwrap_or(multiplier),
            hash_seed_xor: p.opt_u64("hash_seed_xor")?.unwrap_or(hash_seed_xor),
        },
        P::CountSketchReset { cutoff, push_pull, multiplier, hash_seed_xor } => {
            P::CountSketchReset {
                cutoff: parse_cutoff(&p)?.unwrap_or(cutoff),
                push_pull: p.opt_bool("push_pull")?.unwrap_or(push_pull),
                multiplier: p.opt_u64("multiplier")?.unwrap_or(multiplier),
                hash_seed_xor: p.opt_u64("hash_seed_xor")?.unwrap_or(hash_seed_xor),
            }
        }
        P::InvertAverage { hash_seed_xor, .. } => P::InvertAverage {
            lambda: p.req_f64("lambda")?,
            hash_seed_xor: p.opt_u64("hash_seed_xor")?.unwrap_or(hash_seed_xor),
        },
        P::TagTree { child_timeout } => {
            P::TagTree { child_timeout: p.opt_u64("child_timeout")?.unwrap_or(child_timeout) }
        }
    })
}

/// `cutoff` accepts `"paper"` / `"infinite"`, or a table:
/// `{ scale = 2.0 }` (paper cutoff scaled) or `{ base = 7.0, slope = 0.25 }`.
fn parse_cutoff(p: &Ctx<'_>) -> Result<Option<Cutoff>, ScenarioError> {
    let Some(v) = p.table.get("cutoff") else { return Ok(None) };
    if let Some(s) = v.as_str() {
        return match s {
            "paper" => Ok(Some(Cutoff::paper_uniform())),
            "infinite" => Ok(Some(Cutoff::Infinite)),
            other => Err(ScenarioError::UnknownName { what: "cutoff", name: other.into() }),
        };
    }
    let Some(t) = v.as_table() else {
        return Err(ScenarioError::Type {
            key: "protocol.cutoff".into(),
            expected: "string or table",
            found: v.type_name(),
        });
    };
    let c = Ctx { table: t, name: "protocol.cutoff" };
    if t.contains_key("scale") {
        c.check_keys(&["scale"])?;
        Ok(Some(Cutoff::paper_uniform().scaled(c.req_f64("scale")?)))
    } else {
        c.check_keys(&["base", "slope"])?;
        Ok(Some(Cutoff::Linear { base: c.req_f64("base")?, slope: c.req_f64("slope")? }))
    }
}

fn parse_failure(table: &Table) -> Result<FailureSpec, ScenarioError> {
    let f = Ctx { table, name: "failure" };
    match f.req_str("kind")? {
        "at-round" => {
            f.check_keys(&["kind", "round", "mode", "fraction", "graceful"])?;
            let mode = match f.opt_str("mode")? {
                None => FailureMode::Random,
                Some(s) => named("failure mode", s, |s| s.parse().ok())?,
            };
            Ok(FailureSpec::AtRound {
                round: f.req_u64("round")?,
                mode,
                fraction: f.req_f64("fraction")?,
                graceful: f.opt_bool("graceful")?.unwrap_or(false),
            })
        }
        "churn" => {
            f.check_keys(&["kind", "start", "leave_per_round", "join_per_round"])?;
            Ok(FailureSpec::Churn {
                start: f.opt_u64("start")?.unwrap_or(0),
                leave_per_round: f.req_f64("leave_per_round")?,
                join_per_round: f.req_f64("join_per_round")?,
            })
        }
        other => Err(ScenarioError::UnknownName { what: "failure kind", name: other.into() }),
    }
}

/// One `[[partition]]` table: `at_round`, optional `heal_at`, and an
/// `islands` array of symbolic island strings (see [`parse_island`]).
fn parse_partition(table: &Table) -> Result<PartitionEvent, ScenarioError> {
    let p = Ctx { table, name: "partition" };
    p.check_keys(&["at_round", "heal_at", "islands"])?;
    let islands = p
        .opt_array("islands")?
        .ok_or(ScenarioError::Missing { table: "partition", key: "islands" })?
        .iter()
        .map(|item| {
            let s = item.as_str().ok_or(ScenarioError::Type {
                key: "partition.islands".into(),
                expected: "array of strings",
                found: item.type_name(),
            })?;
            parse_island(s)
        })
        .collect::<Result<_, _>>()?;
    Ok(PartitionEvent { at_round: p.req_u64("at_round")?, heal_at: p.opt_u64("heal_at")?, islands })
}

/// The island micro-syntax: `"nodes:LO..HI"` (half-open id range),
/// `"cliques:A,B,…"` (clustered clique ids), or `"region:X0,Y0,X1,Y1"`
/// (inclusive spatial grid box).
fn parse_island(s: &str) -> Result<Island, ScenarioError> {
    let invalid = |reason: String| ScenarioError::Invalid {
        key: "partition.islands".into(),
        reason: format!("island `{s}`: {reason}"),
    };
    let (kind, body) = s
        .split_once(':')
        .ok_or_else(|| invalid("expected `nodes:…`, `cliques:…`, or `region:…`".into()))?;
    let num = |field: &str| {
        field.trim().parse::<u32>().map_err(|_| invalid(format!("`{field}` is not an integer")))
    };
    match kind {
        "nodes" => {
            let (lo, hi) = body
                .split_once("..")
                .ok_or_else(|| invalid("expected a half-open range `lo..hi`".into()))?;
            Ok(Island::Range { lo: num(lo)?, hi: num(hi)? })
        }
        "cliques" => Ok(Island::Cliques(body.split(',').map(num).collect::<Result<Vec<_>, _>>()?)),
        "region" => {
            let parts = body.split(',').map(num).collect::<Result<Vec<_>, _>>()?;
            let [x0, y0, x1, y1] = parts[..] else {
                return Err(invalid("expected four coordinates `x0,y0,x1,y1`".into()));
            };
            Ok(Island::Region { x0, y0, x1, y1 })
        }
        other => Err(ScenarioError::UnknownName { what: "island kind", name: other.into() }),
    }
}

/// The `[adversary]` table. Each attack takes exactly the keys it uses:
/// `mass-inflation` a `factor`, `sketch-corruption` a `cells` count,
/// `stale-epoch-replay` nothing extra.
fn parse_adversary(table: &Table) -> Result<AdversarySpec, ScenarioError> {
    let a = Ctx { table, name: "adversary" };
    let attack = match a.req_str("attack")? {
        "mass-inflation" => {
            a.check_keys(&["attack", "fraction", "from_round", "factor"])?;
            Attack::MassInflation { factor: a.req_f64("factor")? }
        }
        "stale-epoch-replay" => {
            a.check_keys(&["attack", "fraction", "from_round"])?;
            Attack::StaleEpochReplay
        }
        "sketch-corruption" => {
            a.check_keys(&["attack", "fraction", "from_round", "cells"])?;
            Attack::SketchCorruption { cells: a.req_u32("cells")? }
        }
        other => return Err(ScenarioError::UnknownName { what: "attack", name: other.into() }),
    };
    Ok(AdversarySpec {
        attack,
        fraction: a.req_f64("fraction")?,
        from_round: a.opt_u64("from_round")?.unwrap_or(0),
    })
}

fn parse_output(table: &Table) -> Result<OutputSpec, ScenarioError> {
    let o = Ctx { table, name: "output" };
    o.check_keys(&["metrics", "report", "probe"])?;
    let metrics = match o.opt_array("metrics")? {
        None => OutputSpec::default().metrics,
        Some(items) => items
            .iter()
            .map(|item| {
                let name = item.as_str().ok_or(ScenarioError::Type {
                    key: "output.metrics".into(),
                    expected: "array of strings",
                    found: item.type_name(),
                })?;
                named("metric", name, Metric::from_name)
            })
            .collect::<Result<_, _>>()?,
    };
    let report = o.opt_named("report", Report::from_name)?.unwrap_or_default();
    let probe = o.opt_named("probe", Probe::from_name)?;
    Ok(OutputSpec { metrics, report, probe })
}

fn parse_sweep(table: &Table) -> Result<Sweep, ScenarioError> {
    let s = Ctx { table, name: "sweep" };
    s.check_keys(&["axis", "values"])?;
    let axis = named("sweep axis", s.req_str("axis")?, SweepAxis::from_name)?;
    let values = s
        .opt_array("values")?
        .ok_or(ScenarioError::Missing { table: "sweep", key: "values" })?
        .iter()
        .map(|v| {
            v.as_float().ok_or(ScenarioError::Type {
                key: "sweep.values".into(),
                expected: "array of numbers",
                found: v.type_name(),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Sweep { axis, values })
}
