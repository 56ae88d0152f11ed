//! The machine-speed probe: a fixed piece of ordinary pointer-and-branch
//! code, timed a few times a second beside the requests, so that times can
//! be reported at a reference machine speed.
//!
//! Why: on the seed machine (a 2-vCPU VM sharing physical cores with other
//! tenants) the *same* engine call costs 1.5 ms in one second and 2.7 ms in
//! the next, in stretches that last from one second to more than a minute
//! (README "Noise" has the traces). Ten back-to-back runs of one seed then
//! spread 20-50 % around their median, wider than any regression bound, and
//! no amount of repetition inside a 20 s run averages a minute-long stretch
//! away. What does hold still is the *ratio* between the engine's time and
//! this probe's time measured in the same moment: over an 8-minute trace
//! the engine's 10 s medians ranged over 24 % of their median, their ratio
//! to the probe over 6 %.
//!
//! What the probe is: three small loops shaped like the engine's own work —
//! binary-tree inserts compared by byte-string key, open-addressing hash
//! probes, and integer-to-text formatting followed by a sort of the text
//! slices. A dependent arithmetic chain does *not* work (it does not slow
//! down when the engine does: the disturbance is a neighbour competing for
//! the core's execution resources, which a one-instruction-at-a-time chain
//! never needed).
//!
//! How it is read: one measurement is ten runs back to back, of which the
//! fastest of the last five counts — the probe's *warm floor*. A single cold
//! run will not do: after the thread has slept 30 ms the first run takes
//! 80-135 µs and the tenth 37 µs on the same quiet machine, so a cold reading
//! says how long the thread slept, not how fast the machine is.
//!
//! What the probe is not: engine code, or anything a change to the
//! repository can speed up. It touches no allocator (every buffer is
//! allocated once in [`Probe::new`]), no engine crate, no hasher from `std`,
//! and it lives in the benchmark's own package with its own build profile.
//! A change that makes the engine faster therefore cannot make the probe
//! faster and hide itself.

use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's warm floor on the quiet seed machine while the benchmark's
/// two clients run, in microseconds (alone on an idle machine it reads
/// 37-38; in the machine's slow stretches 50-57): the reference speed every
/// normalized time is reported at. Only fixes the scale of the units — a
/// normalized microsecond is a microsecond on a machine whose warm floor is
/// exactly this, so on the quiet seed machine normalized and raw times
/// nearly coincide.
pub const REFERENCE_US: f64 = 40.0;
/// How often a thread re-measures while it sends requests: often enough to
/// follow one-second stretches, rare enough that the ~0.45 ms a measurement
/// takes costs ~1 % of the thread's time.
const EVERY: Duration = Duration::from_millis(40);
/// Runs per measurement, and how many of the first are warm-up.
const RUNS: usize = 10;
const WARM_UP: usize = 5;
/// The speed in force is the median of this many latest measurements, so
/// one disturbed measurement does not rescale the requests around it.
const WINDOW: usize = 3;

#[derive(Clone, Copy)]
struct Node {
    key: [u8; 16],
    left: u32,
    right: u32,
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The probe's buffers, allocated once.
pub struct Probe {
    arena: Vec<Node>,
    table: Vec<u64>,
    text: String,
    slices: Vec<(u32, u32)>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            arena: Vec::with_capacity(512),
            table: vec![0; 2048],
            text: String::with_capacity(16 * 1024),
            slices: Vec::with_capacity(512),
        }
    }

    /// Runs the probe once; returns how long it took, in microseconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let work = self.tree() ^ self.hash() ^ self.text();
        black_box(work);
        started.elapsed().as_secs_f64() * 1e6
    }

    /// 400 inserts into an unbalanced binary search tree keyed by 16-byte
    /// strings: dependent loads, byte-wise comparisons, unpredictable
    /// branches.
    fn tree(&mut self) -> u64 {
        self.arena.clear();
        let mut rng = Xorshift(88_172_645_463_325_252);
        let mut depth_sum = 0u64;
        for _ in 0..400 {
            let x = rng.next();
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&(x % 977).to_be_bytes());
            key[8..].copy_from_slice(&x.to_le_bytes());
            let index = self.arena.len() as u32;
            let mut at = 0usize;
            // The first key becomes the root; every later one walks down.
            while let Some(node) = self.arena.get_mut(at) {
                depth_sum += 1;
                let child = if key < node.key {
                    &mut node.left
                } else {
                    &mut node.right
                };
                if *child == 0 {
                    *child = index;
                    break;
                }
                at = *child as usize;
            }
            self.arena.push(Node {
                key,
                left: 0,
                right: 0,
            });
        }
        depth_sum
    }

    /// 1500 insert-or-find operations on a linear-probing table of 701
    /// distinct keys.
    fn hash(&mut self) -> u64 {
        self.table.fill(0);
        let mask = self.table.len() as u64 - 1;
        let mut rng = Xorshift(0x2545_F491_4F6C_DD1D);
        let mut hits = 0u64;
        for turn in 0..1500u64 {
            let key = rng.next() % 701 + 1;
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & mask;
            loop {
                let held = self.table[slot as usize];
                if held == 0 {
                    self.table[slot as usize] = key;
                    break;
                }
                if held == key {
                    hits += turn;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        hits
    }

    /// Formats 300 short strings into one buffer and sorts them by content.
    fn text(&mut self) -> u64 {
        self.text.clear();
        self.slices.clear();
        let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..300 {
            let x = rng.next();
            let start = self.text.len() as u32;
            write!(self.text, "person-{}@{}", x % 9973, x % 13).expect("writing to a String");
            self.slices.push((start, self.text.len() as u32));
        }
        let bytes = self.text.as_bytes();
        self.slices.sort_unstable_by(|a, b| {
            bytes[a.0 as usize..a.1 as usize].cmp(&bytes[b.0 as usize..b.1 as usize])
        });
        u64::from(self.slices[0].0)
    }
}

/// A thread's running estimate of the machine's speed.
pub struct Speed {
    probe: Probe,
    recent: [f64; WINDOW],
    next: usize,
    measured: Instant,
    /// Every measurement (warm floor, microseconds) this thread made, in
    /// order.
    pub samples: Vec<f64>,
}

impl Speed {
    /// Measures [`WINDOW`] times so the estimate starts full.
    pub fn new() -> Speed {
        let mut speed = Speed {
            probe: Probe::new(),
            recent: [REFERENCE_US; WINDOW],
            next: 0,
            measured: Instant::now(),
            samples: Vec::new(),
        };
        for _ in 0..WINDOW {
            speed.measure();
        }
        speed
    }

    fn current_us(&self) -> f64 {
        let mut sorted = self.recent;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
        sorted[WINDOW / 2]
    }

    /// The factor that converts a time measured now into reference-speed
    /// time; re-measures first if the last measurement is stale. Call it
    /// *before* timing a request, never inside one.
    pub fn factor(&mut self) -> f64 {
        if self.measured.elapsed() >= EVERY {
            self.measure();
        }
        REFERENCE_US / self.current_us()
    }

    fn measure(&mut self) {
        let floor = (0..RUNS)
            .map(|_| self.probe.run())
            .skip(WARM_UP)
            .fold(f64::INFINITY, f64::min);
        self.recent[self.next] = floor;
        self.next = (self.next + 1) % WINDOW;
        self.samples.push(floor);
        self.measured = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let mut probe = Probe::new();
        let first = (probe.tree(), probe.hash(), probe.text());
        let second = (probe.tree(), probe.hash(), probe.text());
        assert_eq!(first, second);
        // The tree is unbalanced but not degenerate, the table sees repeats.
        assert!(first.0 > 400 && first.0 < 400 * 40, "depth sum {}", first.0);
        assert!(first.1 > 0);
        assert_eq!(probe.arena.len(), 400);
        assert_eq!(probe.slices.len(), 300);
        assert!(probe.arena.capacity() == 512 && probe.slices.capacity() == 512);
        assert!(
            probe.text.capacity() == 16 * 1024,
            "the probe must not reallocate"
        );
    }

    #[test]
    fn the_factor_is_the_reference_over_the_median_of_the_window() {
        let mut speed = Speed::new();
        assert_eq!(speed.samples.len(), WINDOW);
        speed.recent = [10.0, 1000.0, 35.0];
        assert_eq!(speed.current_us(), 35.0);
        speed.measured = Instant::now();
        assert_eq!(speed.factor(), REFERENCE_US / 35.0);
        // A stale estimate is re-measured before it is used.
        let before = speed.samples.len();
        speed.measured = Instant::now() - EVERY;
        assert!(speed.factor() > 0.0);
        assert_eq!(speed.samples.len(), before + 1);
    }
}
