//! The reference pass: a fixed piece of work timed beside every set-up
//! and every timed call of a simulator workload, so the host-time
//! metrics can be stated at one machine speed.
//!
//! The box the benchmark runs on is a few cores of a shared host. Its
//! speed moves by tens of percent, in flips that last from a quarter of a
//! second to a few seconds (a neighbour on the sibling hardware thread)
//! over a level that drifts for minutes, and the two cores move
//! independently of each other. No estimator inside one run averages the
//! drift away. What a run can do is read the speed where it reads the
//! workload: one pass before and one after each timed region, the
//! region's wall divided by their mean slowdown. A code change moves the
//! region and not the pass, so it shows in full; a slow spell moves both,
//! and cancels to the extent the pass is slowed like the workload is.
//! That only works when a region is short against the flips, which is why
//! the simulator workloads are sized for calls of a quarter of a second.
//!
//! A neighbour slows different resources at different times, so the pass
//! has four parts, each sized for about 4.5 ms here and weighted equally:
//! a register-only xorshift run (execution ports, clock), a dependent
//! chase through 1 MB (the private cache a sibling thread shares), a
//! dependent chase through 16 MB (the shared cache and the memory bus),
//! and Push-Sum sweeps over 200 000 hosts with random partners (the
//! simulator's own kind of loop). None of it is code of the crates, so no
//! change under test can move it.

use std::hint::black_box;
use std::time::Instant;

const XORSHIFT_STEPS: u32 = 2_500_000;
const NEAR_SLOTS: usize = 256 << 10;
const NEAR_STEPS: u32 = 400_000;
const FAR_SLOTS: usize = 4 << 20;
const FAR_STEPS: u32 = 24_000;
const HOSTS: usize = 200_000;
const SWEEPS: usize = 3;

/// Seconds each part took on the box the workload sizes were frozen on:
/// xorshift, near chase, far chase, Push-Sum sweeps — medians of 1 655
/// passes taken beside the four workloads of `BENCHMARK.json` over eight
/// minutes, 2026-09-30 (quartiles within 8 % of each). A pass whose
/// parts take this long reads a slowdown of 1 and leaves a wall as
/// measured.
const NOMINAL_S: [f64; 4] = [0.0045, 0.0045, 0.0045, 0.0042];

/// Bytes the calibrator keeps resident for the life of the process;
/// `peak_rss_mb` leaves them out.
pub const RESIDENT_BYTES: usize = (NEAR_SLOTS + FAR_SLOTS) * 4 + HOSTS * 16;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A permutation of `0..slots` that is one cycle (Sattolo), so a chase
/// visits every slot before it repeats.
fn one_cycle(slots: usize, x: &mut u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..slots as u32).collect();
    for i in (1..slots).rev() {
        next.swap(i, (xorshift(x) % i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], at: &mut u32, steps: u32) {
    for _ in 0..steps {
        *at = next[*at as usize];
    }
}

pub struct Calibrator {
    x: u64,
    near: Vec<u32>,
    near_at: u32,
    far: Vec<u32>,
    far_at: u32,
    mass: Vec<(f64, f64)>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x = 88_172_645_463_325_252;
        Self {
            near: one_cycle(NEAR_SLOTS, &mut x),
            near_at: 0,
            far: one_cycle(FAR_SLOTS, &mut x),
            far_at: 0,
            mass: (0..HOSTS).map(|i| (i as f64, 1.0)).collect(),
            x,
        }
    }

    /// How slow the machine is right now: one pass, each part's time over
    /// its nominal, averaged. 1 is the nominal speed, 1.25 a quarter
    /// slower.
    pub fn slowdown(&mut self) -> f64 {
        let mut parts = [0.0; 4];
        let mut t = Instant::now();
        let mut lap = |part: &mut f64| {
            let now = Instant::now();
            *part = (now - t).as_secs_f64();
            t = now;
        };

        for _ in 0..XORSHIFT_STEPS {
            xorshift(&mut self.x);
        }
        lap(&mut parts[0]);
        chase(&self.near, &mut self.near_at, NEAR_STEPS);
        lap(&mut parts[1]);
        chase(&self.far, &mut self.far_at, FAR_STEPS);
        lap(&mut parts[2]);
        for _ in 0..SWEEPS {
            for i in 0..HOSTS {
                let j = (xorshift(&mut self.x) % HOSTS as u64) as usize;
                let (s, w) = self.mass[i];
                self.mass[i] = (s * 0.5, w * 0.5);
                self.mass[j].0 += s * 0.5;
                self.mass[j].1 += w * 0.5;
            }
        }
        lap(&mut parts[3]);
        black_box((self.x, self.near_at, self.far_at, &self.mass));
        parts.iter().zip(NOMINAL_S).map(|(p, nominal)| p / nominal).sum::<f64>() / 4.0
    }
}
