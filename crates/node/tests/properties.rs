//! Property tests for the frame layer — whatever bytes a radio hands us,
//! decoding diagnoses; it never panics, aborts, or corrupts the runtime —
//! for the runtime's two ways of holding its lists: peers and payload
//! buffers lent per call must drive a node exactly as the same peers
//! installed in it and its own buffers do — and
//! for the membership-view layer: incremental churn repair must preserve
//! every invariant a from-scratch refresh establishes.

use dynagg_core::adversary::{Adversarial, Attack};
use dynagg_core::config::ResetConfig;
use dynagg_core::count_sketch_reset::CountSketchReset;
use dynagg_core::epoch::DriftModel;
use dynagg_core::epoch::EpochPushSum;
use dynagg_core::mass::{Mass, MASS_WIRE_BYTES};
use dynagg_core::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_core::wire::WireMessage;
use dynagg_node::runtime::{
    Envelope, FrameHeader, FrameKind, NodeRuntime, RuntimeConfig, Stock, FRAME_HEADER_BYTES,
};
use dynagg_node::transport::{
    decode_datagram, encode_datagram, DatagramCheck, DGRAM_PREAMBLE_BYTES,
};
use dynagg_node::{AsyncConfig, AsyncNet};
use dynagg_sim::alive::AliveSet;
use dynagg_sim::env::{ClusteredEnv, UniformEnv};
use dynagg_sim::membership::{Membership, ViewChange};
use dynagg_sim::partition::{resolve, Island, PartitionEvent, PartitionTable, TopologyInfo};
use dynagg_sim::FailureSpec;
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::rngs::SmallRng;
use rand::Rng;

/// A two-island range partition `0..split | split..n`.
fn split_table(n: usize, split: usize, at: u64, heal: Option<u64>) -> PartitionTable {
    let event = PartitionEvent {
        at_round: at,
        heal_at: heal,
        islands: vec![
            Island::Range { lo: 0, hi: split as NodeId },
            Island::Range { lo: split as NodeId, hi: n as NodeId },
        ],
    };
    let resolved = resolve(&event, n, &TopologyInfo::default()).unwrap();
    PartitionTable::new(vec![resolved]).unwrap()
}

/// A uniform topology whose repair draw does not exclude the asking node.
/// The trait leaves filtering a repair candidate to the consuming engine,
/// so with this installed the coordinator's own `y != h` / `h == id`
/// guards are all that keeps a view owner-free — which the engines, lending
/// views to the runtimes as they stand, now rest on.
struct OffersTheOwner(UniformEnv);

impl Membership for OffersTheOwner {
    fn advance(&mut self, round: u64, alive: &AliveSet, changed: &mut Vec<NodeId>) -> ViewChange {
        self.0.advance(round, alive, changed)
    }

    fn sample(&self, node: NodeId, alive: &AliveSet, rng: &mut SmallRng) -> Option<NodeId> {
        self.0.sample(node, alive, rng)
    }

    fn repair_peer(&self, _node: NodeId, alive: &AliveSet, rng: &mut SmallRng) -> Option<NodeId> {
        alive.sample(rng)
    }

    fn view_into(
        &self,
        node: NodeId,
        alive: &AliveSet,
        cap: usize,
        rng: &mut SmallRng,
        out: &mut Vec<NodeId>,
    ) {
        self.0.view_into(node, alive, cap, rng, out);
    }

    fn name(&self) -> &'static str {
        "offers-the-owner"
    }
}

/// One step of a generated script, applied to both twins of
/// [`lending_drives_a_node_as_owning_does`].
#[derive(Debug, Clone)]
enum Step {
    /// Advance the clock by this many milliseconds and poll.
    Advance(u64),
    /// The twins' peer fires a round; its (well-formed) frame arrives.
    Frame,
    /// Arbitrary bytes arrive.
    Garbage(Vec<u8>),
    /// The view is replaced (owner-free: the twins are node 0).
    View(Vec<NodeId>),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..350).prop_map(Step::Advance),
        Just(Step::Frame),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Step::Garbage),
        proptest::collection::vec(1u32..12, 0..10).prop_map(Step::View),
    ]
}

fn drift_strategy() -> impl Strategy<Value = DriftModel> {
    prop_oneof![
        Just(DriftModel::Synced),
        (0.5f64..1.8).prop_map(|rate| DriftModel::ConstantSkew { rate }),
        (0.0f64..0.6).prop_map(|step_prob| DriftModel::RandomWalk { step_prob }),
    ]
}

/// A protocol whose *every* callback consults the sampler and folds what
/// it saw into its estimate, so a peer list that fails to reach
/// `on_message`, `on_reply` or `end_round` shows in the state. (The
/// in-tree protocols sample in `begin_round` only.)
struct Witness {
    acc: f64,
}

impl Witness {
    fn see(&mut self, ctx: &mut RoundCtx<'_>) -> Option<NodeId> {
        let peer = ctx.sample_peer();
        let seen = peer.map_or(0.0, |p| f64::from(p) + 1.0);
        self.acc = self.acc * 0.5 + seen + ctx.peers.degree() as f64;
        peer
    }
}

impl Estimator for Witness {
    fn estimate(&self) -> Option<f64> {
        Some(self.acc)
    }
}

impl PushProtocol for Witness {
    type Message = Mass;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Mass)>) {
        if let Some(peer) = self.see(ctx) {
            out.push((peer, Mass::new(self.acc, 1.0)));
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: &Mass, ctx: &mut RoundCtx<'_>) -> Option<Mass> {
        self.see(ctx);
        self.acc += msg.value;
        Some(Mass::new(self.acc, 1.0))
    }

    fn on_reply(&mut self, _from: NodeId, msg: &Mass, ctx: &mut RoundCtx<'_>) {
        self.see(ctx);
        self.acc -= msg.value;
    }

    fn end_round(&mut self, ctx: &mut RoundCtx<'_>) {
        self.see(ctx);
    }

    fn message_bytes(_msg: &Mass) -> usize {
        MASS_WIRE_BYTES
    }
}

/// Apply `script` to twin runtimes of one seed — `owning` through
/// `set_peers` + `poll` / `handle` and its own recycled buffers, `lending`
/// through `poll_among` / `handle_among` over a `Vec` it never sees
/// otherwise and a stock that starts out dirty and gets every buffer back
/// with its frame still in it — and demand the same frames, byte for byte,
/// and the same observable node after every step: where a frame's buffer
/// came from cannot reach the wire. A third runtime plays the peer:
/// it answers what the twins send and supplies their well-formed frames
/// (initiations when it fires, replies when it answers).
fn lending_drives_a_node_as_owning_does<P>(
    mk: impl Fn(NodeId) -> P,
    drift: DriftModel,
    script: &[Step],
) where
    P: PushProtocol,
    P::Message: WireMessage,
{
    let cfg = |id: NodeId| RuntimeConfig {
        node_id: id,
        round_interval_ms: 100,
        start_offset_ms: 0,
        seed: 0xA11CE ^ u64::from(id),
        drift,
        // The twins outrun the peer's round whenever the script advances
        // them, so the staleness guard sees both sides of its limit.
        max_round_lag: Some(2),
    };
    let mut owning = NodeRuntime::new(cfg(0), mk(0));
    let mut lending = NodeRuntime::new(cfg(0), mk(0));
    let mut peer = NodeRuntime::new(cfg(1), mk(1));
    peer.set_peers(&[0]);
    let mut view: Vec<NodeId> = vec![1, 2, 3];
    owning.set_peers(&view);
    let mut stock = Stock::new(8);
    // Stale contents, a capacity below one header, no capacity at all, and
    // more stale bytes than any fixed-size frame has.
    stock.give(vec![0xAB; 7]);
    stock.give(Vec::with_capacity(3));
    stock.give(Vec::new());
    stock.give(vec![0xEE; 100]);
    let (mut now, mut peer_now) = (0u64, 0u64);
    let (mut sent, mut lent, mut from_peer) = (Vec::new(), Vec::new(), Vec::new());
    for (i, step) in script.iter().enumerate() {
        let mut inbound: Vec<Vec<u8>> = Vec::new();
        match step {
            Step::Advance(dt) => {
                now += dt;
                sent.clear();
                lent.clear();
                owning.poll(now, &mut sent);
                lending.poll_among(now, &view, &mut stock, &mut lent);
                assert_eq!(sent, lent, "step {i}: envelopes of {step:?}");
                for (env, twin) in sent.drain(..).zip(lent.drain(..)) {
                    if let Ok(Some(reply)) = peer.handle(0, &env.payload) {
                        inbound.push(reply.payload);
                    }
                    owning.recycle_buffer(env.payload);
                    stock.give(twin.payload);
                }
            }
            Step::Frame => {
                peer_now += 100;
                peer.poll(peer_now, &mut from_peer);
                inbound.extend(from_peer.drain(..).map(|env| env.payload));
            }
            Step::Garbage(bytes) => inbound.push(bytes.clone()),
            Step::View(next) => {
                view.clone_from(next);
                owning.set_peers(&view);
            }
        }
        for payload in inbound {
            let reply = owning.handle(1, &payload);
            let twin = lending.handle_among(1, &payload, &view, &mut stock);
            assert_eq!(reply, twin, "step {i}: reply to a frame of {step:?}");
            if let (Ok(Some(reply)), Ok(Some(twin))) = (reply, twin) {
                let _ = peer.handle(0, &reply.payload);
                owning.recycle_buffer(reply.payload);
                stock.give(twin.payload);
            }
        }
        assert_eq!(owning.round(), lending.round(), "step {i}: round");
        assert_eq!(owning.next_tick_ms(), lending.next_tick_ms(), "step {i}: next tick");
        assert_eq!(owning.stale_frames(), lending.stale_frames(), "step {i}: stale frames");
        assert_eq!(
            owning.estimate().map(f64::to_bits),
            lending.estimate().map(f64::to_bits),
            "step {i}: estimate bits"
        );
        assert!(lending.peers().is_empty(), "a lent list is never installed");
    }
}

proptest! {
    /// Lending ≡ owning, differentially, for the two protocols the async
    /// benchmark workloads run and for one that samples in every callback
    /// (and replies, so `handle_among` takes buffers too).
    #[test]
    fn a_lent_peer_list_is_the_owned_one(
        script in proptest::collection::vec(step_strategy(), 1..48),
        drift in drift_strategy(),
    ) {
        lending_drives_a_node_as_owning_does(
            |id| PushSumRevert::new(10.0 + f64::from(id), 0.05),
            drift,
            &script,
        );
        let sketch = ResetConfig::paper(64, 0x10);
        lending_drives_a_node_as_owning_does(
            |id| CountSketchReset::counting(sketch, u64::from(id)),
            drift,
            &script,
        );
        lending_drives_a_node_as_owning_does(|id| Witness { acc: f64::from(id) }, drift, &script);
    }

    /// The async frame header decodes or errors on ANY byte input.
    #[test]
    fn frame_header_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Ok(h) = FrameHeader::decode(&bytes) {
            // A successful decode must re-encode to the same prefix.
            let mut out = Vec::new();
            h.encode(&mut out);
            prop_assert_eq!(&out[..], &bytes[..FRAME_HEADER_BYTES]);
        }
    }

    /// The UDP datagram framing above the frame header is just as total:
    /// any byte string classifies into exactly one [`DatagramCheck`]
    /// variant, and a successful decode re-encodes to the same bytes.
    #[test]
    fn datagram_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        universe in 0usize..512,
    ) {
        match decode_datagram(&bytes, universe) {
            DatagramCheck::Frame { from, to, payload } => {
                prop_assert!((from as usize) < universe);
                prop_assert!((to as usize) < universe);
                let env = Envelope { from, to, payload: payload.to_vec(), raw_bytes: 0 };
                let mut again = Vec::new();
                encode_datagram(&env, &mut again);
                prop_assert_eq!(&again[..], &bytes[..], "decode → encode is the identity");
            }
            DatagramCheck::Truncated => {
                prop_assert!(bytes.len() < DGRAM_PREAMBLE_BYTES);
            }
            DatagramCheck::UnknownSender | DatagramCheck::UnknownDest => {
                prop_assert!(bytes.len() >= DGRAM_PREAMBLE_BYTES);
            }
        }
    }

    /// A full frame wrapped in the datagram preamble survives the trip:
    /// preamble decode hands back exactly the `FrameHeader ++ codec`
    /// bytes, so the runtime sees what the sender encoded.
    #[test]
    fn datagram_framing_preserves_the_frame(
        from in 0u32..64,
        to in 0u32..64,
        sender_round in any::<u32>(),
        value in -1e6f64..1e6,
        weight in 0.0f64..10.0,
    ) {
        let mut payload = Vec::new();
        FrameHeader { kind: FrameKind::Initiation, sender_round }.encode(&mut payload);
        Mass::new(value, weight).encode(&mut payload);
        let env = Envelope { from, to, payload: payload.clone(), raw_bytes: payload.len() };
        let mut dgram = Vec::new();
        encode_datagram(&env, &mut dgram);
        match decode_datagram(&dgram, 64) {
            DatagramCheck::Frame { from: f, to: t, payload: p } => {
                prop_assert_eq!((f, t), (from, to));
                prop_assert_eq!(p, &payload[..]);
                let header = FrameHeader::decode(p).expect("frame intact through the preamble");
                prop_assert_eq!(header.sender_round, sender_round);
            }
            other => prop_assert!(false, "in-universe frame misclassified: {:?}", other),
        }
    }

    /// A runtime fed arbitrary frames keeps working: garbage is reported,
    /// and a well-formed frame afterwards is still accepted.
    #[test]
    fn runtime_survives_arbitrary_frames(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 1..24),
    ) {
        let mut rt = NodeRuntime::new(RuntimeConfig::for_node(0, 100), PushSumRevert::new(7.0, 0.1));
        rt.set_peers(&[1, 2]);
        for frame in &frames {
            let _ = rt.handle(1, frame); // must never panic
        }
        let mut good = Vec::new();
        FrameHeader { kind: FrameKind::Initiation, sender_round: 3 }.encode(&mut good);
        Mass::new(0.25, 1.0).encode(&mut good);
        prop_assert!(rt.handle(2, &good).is_ok(), "runtime still functional after garbage");
        prop_assert!(rt.estimate().is_some());
    }

    /// Same robustness for a protocol with a structured payload
    /// (`EpochMsg` carries epoch + phase on the wire).
    #[test]
    fn epoch_runtime_survives_arbitrary_frames(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..16),
    ) {
        let mut rt = NodeRuntime::new(RuntimeConfig::for_node(4, 100), EpochPushSum::new(5.0, 20));
        rt.set_peers(&[1]);
        for frame in &frames {
            let _ = rt.handle(1, frame);
        }
    }

    /// Incremental view repair matches a from-scratch `refresh_views`
    /// across random churn sequences: after any run, the repaired views
    /// satisfy the same invariants a full refresh establishes — bounded
    /// by `view_size`, owner-free, only-live members, duplicate-free in
    /// the dedupe regime — the views ↔ holders index is exactly
    /// consistent, and repair keeps coverage within noise of what a full
    /// refresh rebuilds.
    #[test]
    fn incremental_repair_matches_full_refresh_invariants(
        seed: u64,
        n in 30usize..90,
        view_size in 8usize..24,
        leave in 0.0f64..0.12,
        join in 0.0f64..0.10,
        rounds in 4u64..16,
    ) {
        let mut cfg = AsyncConfig::new(seed);
        cfg.view_size = view_size;
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: leave,
            join_per_round: join,
        });
        net.run(rounds);
        net.check_view_consistency();
        let live = net.live();
        if live.len() < 2 {
            return; // churn emptied the network; nothing to check
        }
        // `n + joins` stays far below 16 × view_size here, so views are
        // in the duplicate-free regime throughout.
        let check = |net: &AsyncNet<PushSumRevert>, full_size_required: bool| {
            let full = view_size.min(live.len() - 1);
            let mut total = 0usize;
            for &id in &live {
                let view = net.view_of(id);
                assert!(view.len() <= view_size, "view of {id} overflows");
                assert!(!view.contains(&id), "view of {id} contains its owner");
                let mut sorted = view.to_vec();
                sorted.sort_unstable();
                let len = sorted.len();
                sorted.dedup();
                assert_eq!(sorted.len(), len, "view of {id} holds duplicates");
                for &p in view {
                    assert!(live.contains(&p), "view of {id} holds dead node {p}");
                }
                if full_size_required {
                    assert_eq!(view.len(), full, "refreshed view of {id} is full");
                }
                total += view.len();
            }
            total
        };
        let repaired_total = check(&net, false);
        net.refresh_views();
        net.check_view_consistency();
        let refreshed_total = check(&net, true);
        // Repair may shrink individual views (a patch can fail its few
        // tries), but coverage stays within noise of a full rebuild.
        prop_assert!(
            repaired_total * 10 >= refreshed_total * 9,
            "repair degraded coverage: {repaired_total} repaired vs {refreshed_total} refreshed"
        );
    }

    /// Repair and introductions keep every view owner-free even when the
    /// topology's repair draw hands a node back to itself — at these
    /// populations one draw in `n` does.
    #[test]
    fn views_stay_owner_free_when_the_topology_offers_the_owner(
        seed: u64,
        n in 6usize..40,
        leave in 0.02f64..0.15,
        join in 0.02f64..0.15,
        rounds in 6u64..20,
    ) {
        let mut cfg = AsyncConfig::new(seed);
        cfg.view_size = 6;
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_membership(Box::new(OffersTheOwner(UniformEnv::new())))
        .with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: leave,
            join_per_round: join,
        });
        net.run(rounds);
        net.check_view_consistency();
    }

    /// The same churn invariants hold when views come from a clustered
    /// topology — joins included: a join's view is drawn from the (stale,
    /// alive-filtered) member list of its clique, and repair draws
    /// replacements through the membership layer, so patched views stay
    /// live-only and never cross cliques (bridges and migration
    /// disabled, so clique assignments are static).
    #[test]
    fn clustered_repair_respects_the_topology(
        seed: u64,
        clusters in 2u32..5,
        leave in 0.0f64..0.10,
        join in 0.0f64..0.10,
        rounds in 4u64..12,
    ) {
        let n = 60usize;
        let mut cfg = AsyncConfig::new(seed);
        cfg.view_size = 8;
        let env = ClusteredEnv::new(n, clusters, 0.0, 0.0, seed);
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_membership(Box::new(ClusteredEnv::new(n, clusters, 0.0, 0.0, seed)))
        .with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: leave,
            join_per_round: join,
        });
        net.run(rounds);
        net.check_view_consistency();
        let live = net.live();
        for &id in &live {
            for &p in net.view_of(id) {
                prop_assert!(live.contains(&p), "view of {} holds dead node {}", id, p);
                prop_assert_eq!(
                    env.cluster_of(p), env.cluster_of(id),
                    "repaired view of {} crosses cliques", id
                );
            }
        }
    }

    /// On the spatial grid, churn must never manufacture long-range
    /// links: repair has no replacement to offer (a dead neighbor's slot
    /// shrinks the view), joins extend the grid downward, and every
    /// surviving view member is a live host at Manhattan distance 1.
    #[test]
    fn spatial_repair_never_adds_long_links(
        seed: u64,
        leave in 0.0f64..0.08,
        join in 0.0f64..0.08,
        rounds in 4u64..12,
    ) {
        let n = 64usize; // 8×8 grid; joins extend it row by row
        let cfg = AsyncConfig::new(seed);
        let side = dynagg_sim::env::SpatialEnv::for_nodes(n).side();
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_membership(Box::new(dynagg_sim::env::SpatialEnv::for_nodes(n)))
        .with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: leave,
            join_per_round: join,
        });
        net.run(rounds);
        net.check_view_consistency();
        let live = net.live();
        for &id in &live {
            for &p in net.view_of(id) {
                prop_assert!(live.contains(&p), "view of {} holds dead node {}", id, p);
                let dist = (id % side).abs_diff(p % side) + (id / side).abs_diff(p / side);
                prop_assert_eq!(dist, 1, "view of {} holds non-adjacent {}", id, p);
            }
        }
    }

    /// While a partition is active, NO frame crosses the cut. The proof is
    /// by contamination: island A holds constant 10, island B constant 90,
    /// and `λ = 0` disables the reversion drift, so mass arithmetic inside
    /// an island can only ever mix identical values — any estimate off its
    /// island's constant would require a frame that leaked across the
    /// boundary. Must hold for every seed, population, split point, view
    /// size, and horizon.
    #[test]
    fn no_frame_crosses_an_active_partition(
        seed: u64,
        n in 24usize..80,
        split_frac in 0.2f64..0.8,
        view_size in 6usize..16,
        rounds in 4u64..36,
    ) {
        let split = ((n as f64 * split_frac) as usize).clamp(1, n - 1);
        let mut cfg = AsyncConfig::new(seed);
        cfg.view_size = view_size;
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(move |_, id| if (id as usize) < split { 10.0 } else { 90.0 }),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.0)),
        )
        .with_partition(split_table(n, split, 0, None));
        net.run(rounds);
        for id in net.live() {
            let want = if (id as usize) < split { 10.0 } else { 90.0 };
            let got = net.node(id).estimate().unwrap();
            prop_assert!(
                (got - want).abs() < 1e-9,
                "frame leaked across the cut: node {} estimates {} (island mean {})",
                id, got, want
            );
        }
        for sample in &net.series().rounds {
            prop_assert_eq!(sample.islands, 2, "islands column reads the active split");
        }
    }

    /// After a split fires, membership repair rebuilds every view
    /// island-locally: one repair round later no view holds a peer from
    /// across the cut, and the views ↔ holders index is still consistent.
    #[test]
    fn views_are_island_local_after_split_repair(
        seed: u64,
        n in 30usize..80,
        split_frac in 0.25f64..0.75,
        at in 2u64..10,
        extra in 2u64..14,
    ) {
        let split = ((n as f64 * split_frac) as usize).clamp(2, n - 2);
        let mut cfg = AsyncConfig::new(seed);
        cfg.view_size = 10;
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_partition(split_table(n, split, at, None));
        net.run(at + extra);
        net.check_view_consistency();
        for id in net.live() {
            let island = (id as usize) >= split;
            for &p in net.view_of(id) {
                prop_assert_eq!(
                    (p as usize) >= split, island,
                    "view of {} crosses the partition: {}", id, p
                );
            }
        }
    }

    /// The Adversarial wrapper adds no byte-level attack surface: a
    /// malicious runtime fed arbitrary frames diagnoses garbage exactly
    /// like an honest one, stays functional, and keeps estimating.
    #[test]
    fn adversarial_runtime_survives_arbitrary_frames(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 1..16),
        factor in 0.0f64..8.0,
        from_round in 0u64..4,
    ) {
        let proto = Adversarial::malicious(
            PushSumRevert::new(7.0, 0.1),
            Attack::MassInflation { factor },
            from_round,
        );
        let mut rt = NodeRuntime::new(RuntimeConfig::for_node(0, 100), proto);
        rt.set_peers(&[1, 2]);
        for frame in &frames {
            let _ = rt.handle(1, frame); // must never panic
        }
        let mut good = Vec::new();
        FrameHeader { kind: FrameKind::Initiation, sender_round: 3 }.encode(&mut good);
        Mass::new(0.25, 1.0).encode(&mut good);
        prop_assert!(rt.handle(2, &good).is_ok(), "malicious runtime still functional");
        prop_assert!(rt.estimate().is_some());
    }

    /// Same for the structured epoch payload under the replay attack: the
    /// forgery rewrites outgoing annotations only, so inbound handling —
    /// including garbage — is untouched honest code.
    #[test]
    fn adversarial_epoch_runtime_survives_arbitrary_frames(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..12),
    ) {
        let proto =
            Adversarial::malicious(EpochPushSum::new(5.0, 20), Attack::StaleEpochReplay, 0);
        let mut rt = NodeRuntime::new(RuntimeConfig::for_node(4, 100), proto);
        rt.set_peers(&[1]);
        for frame in &frames {
            let _ = rt.handle(1, frame);
        }
    }
}
