//! The capability table: what each protocol *has* and what each engine
//! *is*, stated once.
//!
//! The paper's protocols differ along a handful of axes — a conserved
//! `(w, v)` mass (§III), an age matrix (§IV-A), an epoch stamp (§II-C),
//! an atomic push/pull form (Figs. 8, 10) — and every cross-field rule of
//! a scenario is a question about one of them. [`PROTOCOLS`] and
//! [`Engine::caps`] answer those questions as data:
//! [`ScenarioSpec::validate`](crate::ScenarioSpec::validate) checks its
//! requirements against the rows, the TOML parser takes protocol names,
//! key lists and defaults from them, the registry asserts the assembly it
//! picks against them, and the matrices in `docs/scenario-guide.md` are
//! rendered from them (the unit test below keeps the file true).

use crate::spec::{Engine, ProtocolSpec};
use dynagg_sketch::cutoff::Cutoff;

/// What a protocol's gossip message carries: the axis an attack, a probe
/// or a report selects on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A conserved Push-Sum `(w, v)` mass (§III).
    Mass,
    /// Push-Sum mass under an epoch stamp (§II-C).
    EpochMass,
    /// Static sketch bits (Fig. 2).
    SketchBits,
    /// An age matrix (§IV-A).
    AgeMatrix,
    /// None of these: a composite or protocol-specific message that
    /// nothing outside the protocol reads or forges.
    Other,
}

/// One row per `[protocol] name`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolCaps {
    /// What `[protocol] name = "…"` says.
    pub name: &'static str,
    /// The keys its table accepts besides `name`.
    pub keys: &'static [&'static str],
    /// Implements the atomic push/pull exchange `engine = "pairwise"`
    /// drives.
    pub pairwise: bool,
    /// What its message carries.
    pub payload: Payload,
    /// A valid instance of the protocol: every optional key at the
    /// default the parser applies, every required one at a usual value.
    pub example: ProtocolSpec,
}

impl ProtocolCaps {
    /// Does the protocol have a reversion constant λ? Exactly when its
    /// table accepts the `lambda` key.
    pub fn has_lambda(&self) -> bool {
        self.keys.contains(&"lambda")
    }
}

const fn row(
    name: &'static str,
    keys: &'static [&'static str],
    pairwise: bool,
    payload: Payload,
    example: ProtocolSpec,
) -> ProtocolCaps {
    ProtocolCaps { name, keys, pairwise, payload, example }
}

/// The protocol half of the table, in the order of `dynagg-core`'s
/// modules.
#[rustfmt::skip]
pub const PROTOCOLS: [ProtocolCaps; 8] = {
    use Payload::{AgeMatrix, EpochMass, Mass, Other, SketchBits};
    use ProtocolSpec as P;
    [
    //  name                  keys                                                       pairwise payload
    row("push-sum-revert",    &["lambda"],                                               true,    Mass,
        P::PushSumRevert { lambda: 0.01 }),
    row("full-transfer",      &["lambda", "parcels", "window"],                          false,   Mass,
        P::FullTransfer { lambda: 0.01, parcels: 4, window: 3 }),
    row("adaptive-revert",    &["lambda"],                                               false,   Mass,
        P::AdaptiveRevert { lambda: 0.01 }),
    row("epoch-push-sum",     &["epoch_len", "settle_len", "clique_drift"],              false,   EpochMass,
        P::EpochPushSum { epoch_len: 20, settle_len: None, clique_drift: None }),
    row("count-sketch",       &["multiplier", "hash_seed_xor"],                          false,   SketchBits,
        P::CountSketch { multiplier: 1, hash_seed_xor: 0 }),
    row("count-sketch-reset", &["cutoff", "push_pull", "multiplier", "hash_seed_xor"],   false,   AgeMatrix,
        P::CountSketchReset { cutoff: Cutoff::paper_uniform(), push_pull: true, multiplier: 1, hash_seed_xor: 0 }),
    row("invert-average",     &["lambda", "hash_seed_xor"],                              false,   Other,
        P::InvertAverage { lambda: 0.01, hash_seed_xor: 0 }),
    row("tag-tree",           &["child_timeout"],                                        false,   Other,
        P::TagTree { child_timeout: 3 }),
    ]
};

/// What an engine knows of frames, which decides how the `wire_bytes`
/// column is filled and whether `wire = "measured"` is a choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frames {
    /// Exchanges pass state by reference: nothing is ever encoded, so
    /// `wire_bytes` is always the registry's price.
    None,
    /// Messages are priced after the run, or metered one by one on
    /// request (`wire = "measured"`).
    Metered,
    /// Every message travels as an encoded frame and `wire_bytes` is
    /// their measured size, unasked.
    Encoded,
}

/// Three facts per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCaps {
    /// Protocol steps exchange messages, which loss can drop and an
    /// `[adversary]` can forge.
    pub messages: bool,
    /// What it knows of frames.
    pub frames: Frames,
    /// Reads the `[async]` table.
    pub reads_async: bool,
}

impl Engine {
    /// The engine half of the table: this engine's row.
    #[rustfmt::skip]
    pub const fn caps(self) -> EngineCaps {
        match self {
            Engine::Push     => EngineCaps { messages: true,  frames: Frames::Metered, reads_async: false },
            Engine::Pairwise => EngineCaps { messages: false, frames: Frames::None,    reads_async: false },
            Engine::Async    => EngineCaps { messages: true,  frames: Frames::Encoded, reads_async: true  },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GUIDE: &str = include_str!("../../../docs/scenario-guide.md");

    fn tick(yes: bool) -> &'static str {
        if yes {
            "✓"
        } else {
            "–"
        }
    }

    fn render_protocols() -> String {
        let mut out = String::from(
            "| `[protocol] name` | keys | λ | `pairwise` form | message carries |\n|---|---|---|---|---|\n",
        );
        for row in &PROTOCOLS {
            let keys: Vec<String> = row.keys.iter().map(|k| format!("`{k}`")).collect();
            out += &format!(
                "| `{}` | {} | {} | {} | {} |\n",
                row.name,
                if keys.is_empty() { "—".into() } else { keys.join(", ") },
                tick(row.has_lambda()),
                tick(row.pairwise),
                match row.payload {
                    Payload::Mass => "Push-Sum mass",
                    Payload::EpochMass => "epoch-stamped mass",
                    Payload::SketchBits => "sketch bits",
                    Payload::AgeMatrix => "an age matrix",
                    Payload::Other => "a payload of its own",
                },
            );
        }
        out
    }

    fn render_engines() -> String {
        let mut out = String::from(
            "| `engine` | passes messages | frames | reads `[async]` |\n|---|---|---|---|\n",
        );
        for engine in Engine::ALL {
            let row = engine.caps();
            out += &format!(
                "| `{}` | {} | {} | {} |\n",
                engine.name(),
                tick(row.messages),
                match row.frames {
                    Frames::None => "none: state passes by reference",
                    Frames::Metered => "priced, or metered on request",
                    Frames::Encoded => "every frame encoded and measured",
                },
                tick(row.reads_async),
            );
        }
        out
    }

    /// The guide's two matrices are the table, rendered. On a mismatch the
    /// failure prints the text to paste into `docs/scenario-guide.md`.
    #[test]
    fn the_guide_shows_the_table() {
        for rendered in [render_protocols(), render_engines()] {
            assert!(
                GUIDE.contains(&rendered),
                "docs/scenario-guide.md is stale; it must contain:\n\n{rendered}"
            );
        }
    }

    /// Every row is found by its example's variant and by its name, the
    /// example is valid, and `has_lambda` agrees with `lambda_mut`.
    #[test]
    fn every_row_round_trips() {
        for row in &PROTOCOLS {
            assert_eq!(row.example.caps(), row, "{}: variant → row", row.name);
            assert_eq!(row.example.name(), row.name);
            let mut example = row.example;
            assert_eq!(example.lambda_mut().is_some(), row.has_lambda(), "{}", row.name);
        }
    }
}
