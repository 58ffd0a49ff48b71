//! Reference work: the machine's speed, measured beside the statements.
//!
//! The sandbox's cores are shared with other tenants and run the same
//! code up to twice as slowly for tens of seconds at a time (a 90 s
//! closed loop of identical probes saw its per-second median latency
//! wander from 34 to 74 us). A wall clock therefore says as much about
//! the neighbours as about the program. So every few milliseconds each
//! client thread stops and times one unit of fixed *reference work* —
//! code of this file that no engine change can touch — and every timing
//! the untraced run reports is scaled by `nominal / observed` for the
//! quarter second it was taken in: it reads what the wall clock would
//! have read on a machine that does the reference work in its nominal
//! time. A change to the engine moves such a figure exactly as it moves
//! the wall clock; the machine slowing down moves it far less (spread
//! between windows of one run, raw -> scaled: probe_wire throughput
//! 0.135 -> 0.017, scan_cold 0.065 -> 0.008).
//!
//! A workload names the kernel whose speed moves like its own does:
//! a loopback round trip for the wire-bound one, a sort for the two the
//! processor and memory bind, a synced write for the one the log binds.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Width of the slices one speed estimate covers, in nanoseconds.
pub const SLICE_NS: u64 = 250_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Four 32-byte round trips over loopback TCP to a thread on the
    /// caller's core: system calls, the TCP stack and context switches.
    Echo,
    /// Fill 2048 words from a fixed seed and sort them: branches and
    /// cache-resident memory, all in user space.
    Sort,
    /// The sort, then overwrite one 4 KiB page of a file and `fdatasync`.
    Sync,
}

impl Kernel {
    /// What one unit takes on the reference machine. These constants
    /// define that machine (they are near what the sandbox does when it
    /// is left alone); changing one rescales every figure ever reported.
    pub fn nominal_ns(self) -> f64 {
        match self {
            Kernel::Echo => 40_000.0,
            Kernel::Sort => 30_000.0,
            Kernel::Sync => 400_000.0,
        }
    }

    /// How often a client thread stops for one unit: under 1 % of its
    /// time (2 % for the synced write).
    pub fn every(self) -> Duration {
        match self {
            Kernel::Echo | Kernel::Sort => Duration::from_millis(5),
            Kernel::Sync => Duration::from_millis(50),
        }
    }
}

const SORT_WORDS: usize = 2048;
const ECHO_TRIPS: usize = 4;
const ECHO_BYTES: usize = 32;

struct Echo {
    stream: TcpStream,
    server: Option<JoinHandle<()>>,
}

impl Echo {
    /// The echo thread inherits the caller's placement, so it shares
    /// the caller's core as a `grt-conn` thread shares its client's.
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::Builder::new()
            .name("spine-echo".into())
            .spawn(move || {
                let Ok((mut peer, _)) = listener.accept() else {
                    return;
                };
                let _ = peer.set_nodelay(true);
                let mut buf = [0u8; ECHO_BYTES];
                while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
            })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            server: Some(server),
        })
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// One thread's reference kernel, ready to run.
pub struct Reference {
    kernel: Kernel,
    words: Vec<u64>,
    echo: Option<Echo>,
    file: Option<File>,
}

impl Reference {
    /// `dir` holds the synced write's page (`tag` keeps threads apart).
    pub fn new(kernel: Kernel, dir: &Path, tag: usize) -> Result<Reference, String> {
        let err = |e: std::io::Error| format!("reference {kernel:?}: {e}");
        let echo = match kernel {
            Kernel::Echo => Some(Echo::start().map_err(err)?),
            _ => None,
        };
        let file = match kernel {
            Kernel::Sync => {
                std::fs::create_dir_all(dir).map_err(err)?;
                let mut f = File::create(dir.join(format!("reference{tag}.page"))).map_err(err)?;
                // Allocated once, so that a unit flushes data only.
                f.write_all(&[0u8; 4096]).map_err(err)?;
                f.sync_all().map_err(err)?;
                Some(f)
            }
            _ => None,
        };
        let mut reference = Reference {
            kernel,
            words: vec![0; SORT_WORDS],
            echo,
            file,
        };
        // The first units pay for cold caches and lazy set-up.
        for _ in 0..3 {
            reference.unit();
        }
        Ok(reference)
    }

    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn sort(&mut self) {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for w in &mut self.words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.words.sort_unstable();
        std::hint::black_box(&self.words);
    }

    /// Does one unit of the reference work; returns the nanoseconds it
    /// took. A unit that fails (it never should) reads as nominal.
    pub fn unit(&mut self) -> u64 {
        let start = Instant::now();
        let ok = match self.kernel {
            Kernel::Sort => {
                self.sort();
                true
            }
            Kernel::Echo => {
                let stream = &mut self.echo.as_mut().expect("echo started").stream;
                let mut buf = [7u8; ECHO_BYTES];
                (0..ECHO_TRIPS)
                    .all(|_| stream.write_all(&buf).is_ok() && stream.read_exact(&mut buf).is_ok())
            }
            Kernel::Sync => {
                self.sort();
                let file = self.file.as_mut().expect("page created");
                file.seek(SeekFrom::Start(0)).is_ok()
                    && file.write_all(&[7u8; 4096]).is_ok()
                    && file.sync_data().is_ok()
            }
        };
        if ok {
            (start.elapsed().as_nanos() as u64).max(1)
        } else {
            self.kernel.nominal_ns() as u64
        }
    }

    /// The machine's speed now, as `nominal / observed`: the median of
    /// three units.
    pub fn factor(&mut self) -> f64 {
        let mut units = [self.unit(), self.unit(), self.unit()];
        units.sort_unstable();
        self.kernel.nominal_ns() / units[1] as f64
    }
}

/// A stopwatch that reads reference-machine seconds. Each [`lap`]
/// measures the speed again and scales the wall time since the last one
/// by the mean of the speeds at its two ends; the reference work itself
/// is not counted.
///
/// [`lap`]: Stopwatch::lap
pub struct Stopwatch<'a> {
    reference: &'a mut Reference,
    factor: f64,
    since: Instant,
    scaled_s: f64,
}

impl<'a> Stopwatch<'a> {
    pub fn start(reference: &'a mut Reference) -> Stopwatch<'a> {
        let factor = reference.factor();
        Stopwatch {
            reference,
            factor,
            since: Instant::now(),
            scaled_s: 0.0,
        }
    }

    pub fn lap(&mut self) {
        let wall = self.since.elapsed().as_secs_f64();
        let factor = self.reference.factor();
        self.scaled_s += wall * (self.factor + factor) / 2.0;
        self.factor = factor;
        self.since = Instant::now();
    }

    /// Laps once more and returns the scaled seconds since the start.
    pub fn stop(mut self) -> f64 {
        self.lap();
        self.scaled_s
    }
}

/// One connection's reference samples over a pass, turned into a scale
/// factor per slice of [`SLICE_NS`].
pub struct Scale {
    /// `nominal / median observed` per slice; a slice without a sample
    /// takes its nearest neighbour's.
    factors: Vec<f64>,
    /// Nanoseconds of each slice spent on reference work.
    spent_ns: Vec<u64>,
}

impl Scale {
    /// `samples` are (start, duration) in nanoseconds from the start of
    /// a pass `elapsed_ns` long. Without samples every factor is 1.
    pub fn new(kernel: Option<Kernel>, samples: &[(u64, u64)], elapsed_ns: u64) -> Scale {
        let slices = (elapsed_ns.div_ceil(SLICE_NS) as usize).max(1);
        let mut by_slice = vec![Vec::new(); slices];
        let mut spent_ns = vec![0u64; slices];
        for &(at, took) in samples {
            let i = ((at / SLICE_NS) as usize).min(slices - 1);
            by_slice[i].push(took as f64);
            spent_ns[i] += took;
        }
        let nominal = kernel.map_or(1.0, Kernel::nominal_ns);
        let known: Vec<Option<f64>> = by_slice
            .iter_mut()
            .map(|s| (!s.is_empty()).then(|| nominal / crate::report::median(s)))
            .collect();
        let factors = (0..slices)
            .map(|i| {
                (0..slices)
                    .filter_map(|d| {
                        let before = i.checked_sub(d).and_then(|j| known[j]);
                        before.or_else(|| known.get(i + d).copied().flatten())
                    })
                    .next()
                    .unwrap_or(1.0)
            })
            .collect();
        Scale { factors, spent_ns }
    }

    fn slice(&self, at_ns: u64) -> usize {
        ((at_ns / SLICE_NS) as usize).min(self.factors.len() - 1)
    }

    /// The factor in force at `at_ns` into the pass.
    pub fn at(&self, at_ns: u64) -> f64 {
        self.factors[self.slice(at_ns)]
    }

    /// Reference-machine seconds in `[from_ns, to_ns)` of the pass (whole
    /// slices), the reference work's own time taken out.
    pub fn seconds(&self, from_ns: u64, to_ns: u64) -> f64 {
        let (a, b) = (self.slice(from_ns), self.slice(to_ns.saturating_sub(1)));
        (a..=b)
            .map(|i| (SLICE_NS - self.spent_ns[i].min(SLICE_NS)) as f64 / 1e9 * self.factors[i])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_scales_by_its_own_median_and_a_gap_by_its_neighbour() {
        // Three slices: the first at nominal speed, the second unsampled,
        // the third at half speed (a unit takes twice its nominal time).
        let nominal = Kernel::Sort.nominal_ns() as u64;
        let samples = [
            (0, nominal),
            (1_000, nominal),
            (2_000, nominal * 9),
            (2 * SLICE_NS + 5, nominal * 2),
        ];
        let scale = Scale::new(Some(Kernel::Sort), &samples, 3 * SLICE_NS);
        assert_eq!(scale.at(10), 1.0);
        assert_eq!(scale.at(SLICE_NS + 10), 1.0);
        assert_eq!(scale.at(2 * SLICE_NS + 10), 0.5);
        assert_eq!(scale.at(99 * SLICE_NS), 0.5);
        // The units' own time is not the window's.
        let spent = (nominal * 11) as f64 / 1e9;
        let first = SLICE_NS as f64 / 1e9 - spent;
        assert!((scale.seconds(0, SLICE_NS) - first).abs() < 1e-12);
        let last = (SLICE_NS - nominal * 2) as f64 / 1e9 * 0.5;
        assert!((scale.seconds(2 * SLICE_NS, 3 * SLICE_NS) - last).abs() < 1e-12);
    }

    #[test]
    fn without_samples_the_wall_clock_is_read() {
        let scale = Scale::new(None, &[], 2 * SLICE_NS);
        assert_eq!(scale.at(SLICE_NS), 1.0);
        assert!((scale.seconds(0, 2 * SLICE_NS) - 0.5).abs() < 1e-12);
    }
}
