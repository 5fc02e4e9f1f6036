//! One record of what a run did. Every driver — the sequential drain,
//! each shard and the sharded drain's coordinator phases, the
//! coordinator's view work, each service pump — holds one [`Counters`] by
//! value and bumps plain fields on its own thread; [`Counters::absorb`]
//! makes totals. Each field's doc names the drivers that fill it; the
//! others leave it 0.

use crate::transport::TransportStats;

/// Named event and frame counts of one run, cumulative from boot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Events dispatched: every queue pop of `AsyncNet`; every shard pop of
    /// `ShardedNet` plus its coordinator's samples and boundaries.
    pub events: u64,
    /// Round-timer firings (`Pump`).
    pub polls: u64,
    /// Frames emitted by runtimes, lost ones included: sent by `AsyncNet`
    /// and `ShardedNet`, offered to the transport by `Pump`.
    pub frames_out: u64,
    /// Their raw payload bytes, the lockstep engines' `bytes` convention
    /// (`AsyncNet`, `ShardedNet`).
    pub payload_bytes: u64,
    /// Their encoded bytes, header + codec (`AsyncNet`, `ShardedNet`).
    pub wire_bytes: u64,
    /// Frames decoded and fed to a runtime (`Pump`).
    pub frames_in: u64,
    /// Frames that failed to decode; 0 on a clean wire (all three).
    pub decode_errors: u64,
    /// Frames addressed to a node the receiving worker does not run —
    /// stopped, or never its own (`Pump`).
    pub dark_frames: u64,
    /// Frames sent across an active partition cut, dropped at send like
    /// loss (`AsyncNet`, `ShardedNet`).
    pub partition_drops: u64,
    /// Frames that *arrived* across an active cut: only those in flight
    /// when a split fires can (`ShardedNet`).
    pub cross_island_deliveries: u64,
    /// Cross-shard frames ingested below their window edge; 0, or the
    /// conservative barrier is broken (`ShardedNet`).
    pub horizon_violations: u64,
    /// Whole views drawn from scratch: initial, topology changes,
    /// partition transitions, joins (the coordinator of either engine).
    pub full_view_assignments: u64,
    /// View slots patched by incremental repair after departures (the
    /// coordinator of either engine).
    pub view_slots_patched: u64,
    /// Ids outside the universe named by `set_values` / `stop` /
    /// `restart`, dropped (`LiveService` handle).
    pub unknown_ids: u64,
    /// Client commands whose worker was gone (`LiveService` handle).
    pub commands_undelivered: u64,
    /// Workers that panicked; their counts are missing from every other
    /// field (`LiveService` handle).
    pub workers_lost: u64,
    /// Transport endpoint counters, read as a live worker shuts down
    /// (`Pump` under `LiveService`).
    pub transport: TransportStats,
}

impl Counters {
    /// Add `other`'s counts to these (`tests::absorb_doubles_every_field`
    /// fails until a new field has its line here).
    pub fn absorb(&mut self, other: &Counters) {
        self.events += other.events;
        self.polls += other.polls;
        self.frames_out += other.frames_out;
        self.payload_bytes += other.payload_bytes;
        self.wire_bytes += other.wire_bytes;
        self.frames_in += other.frames_in;
        self.decode_errors += other.decode_errors;
        self.dark_frames += other.dark_frames;
        self.partition_drops += other.partition_drops;
        self.cross_island_deliveries += other.cross_island_deliveries;
        self.horizon_violations += other.horizon_violations;
        self.full_view_assignments += other.full_view_assignments;
        self.view_slots_patched += other.view_slots_patched;
        self.unknown_ids += other.unknown_ids;
        self.commands_undelivered += other.commands_undelivered;
        self.workers_lost += other.workers_lost;
        self.transport.absorb(&other.transport);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_doubles_every_field() {
        // No `..Default::default()`: a new field must be given a value
        // here, and a distinct one, so an `absorb` that skips it or adds it
        // into a neighbour fails the comparison.
        let one = Counters {
            events: 1,
            polls: 2,
            frames_out: 3,
            payload_bytes: 4,
            wire_bytes: 5,
            frames_in: 6,
            decode_errors: 7,
            dark_frames: 8,
            partition_drops: 9,
            cross_island_deliveries: 10,
            horizon_violations: 11,
            full_view_assignments: 12,
            view_slots_patched: 13,
            unknown_ids: 14,
            commands_undelivered: 15,
            workers_lost: 16,
            transport: TransportStats {
                sent: 17,
                delivered: 18,
                unroutable: 19,
                malformed: 20,
                unknown_sender: 21,
                unknown_dest: 22,
            },
        };
        let mut two = one;
        two.absorb(&one);
        assert_eq!(
            two,
            Counters {
                events: 2,
                polls: 4,
                frames_out: 6,
                payload_bytes: 8,
                wire_bytes: 10,
                frames_in: 12,
                decode_errors: 14,
                dark_frames: 16,
                partition_drops: 18,
                cross_island_deliveries: 20,
                horizon_violations: 22,
                full_view_assignments: 24,
                view_slots_patched: 26,
                unknown_ids: 28,
                commands_undelivered: 30,
                workers_lost: 32,
                transport: TransportStats {
                    sent: 34,
                    delivered: 36,
                    unroutable: 38,
                    malformed: 40,
                    unknown_sender: 42,
                    unknown_dest: 44,
                },
            }
        );
    }
}
