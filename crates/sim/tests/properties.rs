//! Property-based tests for the simulator: live-set bookkeeping against a
//! reference model, truth computation invariants, and engine determinism
//! under randomized failure plans.

use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_sim::alive::AliveSet;
use dynagg_sim::env::clustered::{ClusteredEnv, MobilityEvent, MobilityKind};
use dynagg_sim::env::uniform::UniformEnv;
use dynagg_sim::{runner, FailureMode, FailureSpec, Membership, Truth};
use dynagg_trace::GroupView;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    Remove(u8),
    Insert(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![any::<u8>().prop_map(Op::Remove), any::<u8>().prop_map(Op::Insert)]
}

proptest! {
    /// AliveSet behaves exactly like a HashSet reference model under any
    /// interleaving of inserts and removes.
    #[test]
    fn alive_set_matches_reference_model(
        n in 1usize..64,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut sut = AliveSet::full(n);
        let mut model: HashSet<u32> = (0..n as u32).collect();
        for op in ops {
            match op {
                Op::Remove(x) => {
                    let id = u32::from(x) % (2 * n as u32);
                    prop_assert_eq!(sut.remove(id), model.remove(&id));
                }
                Op::Insert(x) => {
                    let id = u32::from(x) % (2 * n as u32);
                    prop_assert_eq!(sut.insert(id), model.insert(id));
                }
            }
            prop_assert_eq!(sut.len(), model.len());
        }
        // Final membership agrees element-wise.
        for id in 0..(2 * n as u32) {
            prop_assert_eq!(sut.contains(id), model.contains(&id));
        }
        let mut listed: Vec<u32> = sut.ids().to_vec();
        listed.sort_unstable();
        let mut expected: Vec<u32> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(listed, expected);
    }

    /// Sampling only ever returns live members, never the excluded node.
    #[test]
    fn alive_sampling_is_sound(
        n in 2usize..40,
        removals in proptest::collection::vec(any::<u8>(), 0..20),
        seed: u64,
    ) {
        let mut s = AliveSet::full(n);
        for r in removals {
            s.remove(u32::from(r) % n as u32);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            if let Some(x) = s.sample(&mut rng) {
                prop_assert!(s.contains(x));
            }
            if let Some(x) = s.sample_other(0, &mut rng) {
                prop_assert!(s.contains(x));
                prop_assert_ne!(x, 0);
            }
        }
    }

    /// Global truths are constant across live hosts and ignore dead ones.
    #[test]
    fn global_truths_are_uniform(
        values in proptest::collection::vec(proptest::option::of(0.0f64..100.0), 1..30),
    ) {
        for truth in [Truth::Mean, Truth::Count, Truth::Sum] {
            let t = truth.per_host(&values, None);
            prop_assert_eq!(t.len(), values.len());
            let live: Vec<f64> = t.iter().copied().flatten().collect();
            for w in live.windows(2) {
                prop_assert!((w[0] - w[1]).abs() < 1e-9, "global truth must be uniform");
            }
            for (v, tv) in values.iter().zip(&t) {
                prop_assert_eq!(v.is_some(), tv.is_some(), "dead hosts have no truth");
            }
        }
    }

    /// Group truths: every member of one group sees the same value, and
    /// GroupSize equals the number of LIVE members.
    #[test]
    fn group_truths_respect_components(
        n in 2u16..24,
        edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..40),
        dead in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let edges: Vec<(u16, u16)> = edges
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|(a, b)| a != b)
            .collect();
        let groups = GroupView::from_edges(n, &edges);
        let mut values: Vec<Option<f64>> =
            (0..n).map(|i| Some(f64::from(i) * 3.0)).collect();
        for d in dead {
            values[usize::from(d % n)] = None;
        }
        let sizes = Truth::GroupSize.per_host(&values, Some(&groups));
        let means = Truth::GroupMean.per_host(&values, Some(&groups));
        for d in 0..n {
            let Some(size) = sizes[usize::from(d)] else { continue };
            let members = groups.members_of(d);
            let live = members
                .iter()
                .filter(|&&m| values[usize::from(m)].is_some())
                .count();
            prop_assert_eq!(size as usize, live);
            // Same group, same truth.
            for &m in members {
                if let Some(ms) = sizes[usize::from(m)] {
                    prop_assert!((ms - size).abs() < 1e-9);
                }
                if let (Some(a), Some(b)) = (means[usize::from(d)], means[usize::from(m)]) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    /// The engines are deterministic functions of the seed under any
    /// failure plan, and never report more defined estimates than live
    /// hosts.
    #[test]
    fn engine_is_deterministic_under_failures(
        seed: u64,
        n in 10usize..60,
        fail_round in 1u64..10,
        fraction in 0.1f64..0.9,
        mode_pick in 0u8..2,
    ) {
        let mode = match mode_pick {
            0 => FailureMode::Random,
            _ => FailureMode::TopValue,
        };
        let spec = FailureSpec::AtRound { round: fail_round, mode, fraction, graceful: false };
        let run = || {
            runner::builder(seed)
                .environment(UniformEnv::new())
                .nodes_with_paper_values(n)
                .protocol(|_, v| PushSumRevert::new(v, 0.0))
                .truth(Truth::Mean)
                .failure(spec)
                .build()
                .run(15)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "same seed must reproduce the series");
        let expected_alive = n - ((n as f64) * fraction).round() as usize;
        let last = a.last().unwrap();
        prop_assert_eq!(last.alive, expected_alive);
        prop_assert!(last.defined <= last.alive);
    }

    /// Pairwise engine: total conserved mass matches the live population
    /// exactly when no failures occur, for any seed and size.
    #[test]
    fn pairwise_engine_conserves_population_weight(
        seed: u64,
        n in 2usize..80,
        rounds in 1u64..20,
    ) {
        let mut sim = runner::builder(seed)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(n)
            .protocol(|_, v| PushSumRevert::new(v, 0.05))
            .truth(Truth::Mean)
            .build_pairwise();
        for _ in 0..rounds {
            sim.step();
        }
        let total_w: f64 = (0..n as u32)
            .filter_map(|id| sim.node(id))
            .map(|p| p.mass().weight)
            .sum();
        prop_assert!((total_w - n as f64).abs() < 1e-6, "weight {total_w} != {n}");
    }

    /// Churn never lets the metrics desynchronize: defined estimates track
    /// the live population every round.
    #[test]
    fn churn_keeps_metrics_consistent(
        seed: u64,
        leave in 0.0f64..0.1,
        join in 0.0f64..0.1,
    ) {
        let series = runner::builder(seed)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(50)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .truth(Truth::Mean)
            .failure(FailureSpec::Churn { start: 2, leave_per_round: leave, join_per_round: join })
            .build()
            .run(25);
        for s in &series.rounds {
            prop_assert!(s.defined <= s.alive);
            prop_assert!(s.stddev.is_finite());
            prop_assert!(s.alive > 0 || s.defined == 0);
        }
    }

    /// Poisson churn population invariants: departures are bounded by the
    /// live population, arrivals never exceed the whole-join budget
    /// accumulated so far (`join_per_round × initial_n × rounds`), and the
    /// population can never go more negative than "everyone left".
    #[test]
    fn poisson_churn_population_is_conserved(
        seed: u64,
        n in 20usize..120,
        leave in 0.0f64..0.2,
        join in 0.0f64..0.2,
        rounds in 1u64..30,
    ) {
        let series = runner::builder(seed)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(n)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .truth(Truth::Mean)
            .failure(FailureSpec::Churn { start: 0, leave_per_round: leave, join_per_round: join })
            .build()
            .run(rounds);
        let mut prev_alive = n;
        for (i, s) in series.rounds.iter().enumerate() {
            // Arrivals this round are at most the deterministic join budget
            // (fractional accumulation rounds down), and departures cannot
            // exceed the prior population.
            let max_joins = (join * n as f64).floor() as usize + 1;
            prop_assert!(
                s.alive <= prev_alive + max_joins,
                "round {i}: alive {} jumped past {prev_alive} + {max_joins}",
                s.alive
            );
            prop_assert!(s.defined <= s.alive, "metrics must track membership");
            prev_alive = s.alive;
        }
        // The whole-run join budget is exact up to rounding.
        let last = series.rounds.last().unwrap();
        let budget = (join * n as f64 * rounds as f64).floor() as usize;
        prop_assert!(
            last.alive <= n + budget,
            "final population {} exceeds initial {n} + budget {budget}",
            last.alive
        );
    }

    /// ClusteredEnv invariants under arbitrary migration, bursts, merges,
    /// and splits: after every `begin_round` the per-clique member lists
    /// partition the live set (membership conservation) and every live
    /// host has a clique in range.
    #[test]
    fn clustered_membership_is_conserved(
        seed: u64,
        n in 2usize..80,
        clusters in 1u32..8,
        migration in 0.0f64..1.0,
        burst_round in 0u64..10,
        burst_fraction in 0.0f64..1.0,
        event_pick in 0u8..4,
        dead in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        let mut events = vec![MobilityEvent {
            round: burst_round,
            kind: MobilityKind::Burst { fraction: burst_fraction },
        }];
        if clusters >= 2 {
            let kind = match event_pick {
                0 => Some(MobilityKind::Merge { from: 0, into: clusters - 1 }),
                1 => Some(MobilityKind::Merge { from: clusters - 1, into: 0 }),
                2 => Some(MobilityKind::Split { from: 0, into: clusters - 1 }),
                _ => None,
            };
            if let Some(kind) = kind {
                events.push(MobilityEvent { round: burst_round / 2, kind });
            }
        }
        let mut env = ClusteredEnv::new(n, clusters, migration, 0.0, seed).with_events(events);
        let mut alive = AliveSet::full(n);
        for d in dead {
            alive.remove(u32::from(d) % n as u32);
        }
        for round in 0..12u64 {
            env.begin_round(round, &alive);
            // Member lists partition the live set.
            let mut seen: Vec<u32> = Vec::new();
            for c in 0..clusters {
                for &m in env.members(c) {
                    prop_assert!(alive.contains(m), "member {m} of clique {c} must be alive");
                    prop_assert_eq!(env.cluster_of(m), c, "membership list matches assignment");
                    seen.push(m);
                }
            }
            seen.sort_unstable();
            let mut expected: Vec<u32> = alive.ids().to_vec();
            expected.sort_unstable();
            prop_assert_eq!(seen, expected, "round {}: members must partition the live set", round);
            for &id in alive.ids() {
                prop_assert!(env.cluster_of(id) < clusters, "clique id in range");
            }
        }
    }

    /// The membership layer's change-report contract over clustered
    /// mobility: every reported id is alive, every host whose clique
    /// assignment changed is reported (movers from steady migration,
    /// whole cliques for events), and the views the topology hands out
    /// are bounded, self-free, live-only, and — without bridges —
    /// entirely in-clique.
    #[test]
    fn clustered_change_report_covers_every_move(
        seed: u64,
        n in 8usize..60,
        clusters in 2u32..6,
        migration in 0.0f64..0.5,
        cap in 2usize..12,
        dead in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        let mut env = ClusteredEnv::new(n, clusters, migration, 0.0, seed);
        let mut alive = AliveSet::full(n);
        for d in dead {
            alive.remove(u32::from(d) % n as u32);
        }
        if alive.is_empty() {
            return;
        }
        let mut changed = Vec::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let mut view = Vec::new();
        env.begin_round(0, &alive);
        for round in 1..8u64 {
            let before: Vec<u32> = (0..n as u32).map(|i| env.cluster_of(i)).collect();
            let vc = env.advance(round, &alive, &mut changed);
            let after: Vec<u32> = (0..n as u32).map(|i| env.cluster_of(i)).collect();
            let report: &[u32] = match vc {
                dynagg_sim::ViewChange::Unchanged => &[],
                dynagg_sim::ViewChange::Nodes => &changed,
                dynagg_sim::ViewChange::All => {
                    // Steady migration alone never reports All.
                    prop_assert!(false, "unexpected All");
                    &[]
                }
            };
            for &id in report {
                prop_assert!(alive.contains(id), "change report lists dead host {id}");
            }
            for &id in alive.ids() {
                if before[id as usize] != after[id as usize] {
                    prop_assert!(
                        report.contains(&id),
                        "round {round}: mover {id} missing from the change report"
                    );
                }
            }
            // View contract, spot-checked on every live host.
            for &id in alive.ids() {
                env.view_into(id, &alive, cap, &mut rng, &mut view);
                prop_assert!(view.len() <= cap);
                prop_assert!(!view.contains(&id), "view contains its owner");
                for &p in &view {
                    prop_assert!(alive.contains(p), "view member {p} is dead");
                    prop_assert_eq!(
                        env.cluster_of(p), env.cluster_of(id),
                        "bridge-free views stay in-clique"
                    );
                }
            }
        }
    }

    /// Bridge-probability bounds: with `bridge_prob = 0` sampling never
    /// leaves the clique; with `bridge_prob = 1` and several cliques, the
    /// cross-clique rate matches the live cross-clique fraction (a bridge
    /// samples uniformly over all other live hosts).
    #[test]
    fn clustered_bridge_probability_bounds(
        seed: u64,
        n in 12usize..60,
        clusters in 2u32..6,
        bridge in 0.0f64..1.0,
    ) {
        let mut env = ClusteredEnv::new(n, clusters, 0.0, bridge, seed);
        let alive = AliveSet::full(n);
        env.begin_round(0, &alive);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let node = 0u32;
        let home = env.cluster_of(node);
        let mut crossings = 0usize;
        let mut samples = 0usize;
        for _ in 0..200 {
            if let Some(p) = env.sample(node, &alive, &mut rng) {
                prop_assert_ne!(p, node, "environments never return self");
                prop_assert!(alive.contains(p));
                samples += 1;
                crossings += usize::from(env.cluster_of(p) != home);
            }
        }
        if bridge == 0.0 {
            prop_assert_eq!(crossings, 0, "no bridges, no cross-clique partners");
        }
        if bridge < 1e-9 || samples == 0 {
            // Degenerate corners covered above.
        } else {
            // The crossing rate can never exceed the bridge probability by
            // more than the cross-clique population share allows plus
            // sampling noise (200 draws => generous 0.25 slack).
            let other = alive.len() - env.members(home).len();
            let cross_share = other as f64 / (alive.len() - 1) as f64;
            let expected = bridge * cross_share;
            let rate = crossings as f64 / samples as f64;
            prop_assert!(
                (rate - expected).abs() < 0.25,
                "crossing rate {rate:.2} far from expected {expected:.2}"
            );
        }
    }
}
