//! Host speed. The reference container shares its host, and the host's
//! speed drifts by tens of percent over seconds and minutes (see
//! `perfbench/README.md`, "Noise"). Two runs of the same code therefore
//! differ by as much as the host does.
//!
//! So the benchmark measures the host beside the program. While the
//! load runs, every [`PROBE_EVERY`] it parks its clients between two
//! requests and runs a fixed probe that does not touch the program's
//! code. The probe has two parts, for the two kinds of work the load
//! does: a CPU part (a table walk on every core) and a loopback part
//! (connect, send, answer and close, as the clients and server do).
//! Every time metric is then reported at the reference speed: scaled by
//! [`factors`], the geometric mean of each part's reference time over
//! its median time around the measurement. A change to the program
//! moves the metrics in full; a change in the host's speed moves the
//! probe with them and cancels out. The raw values and the probe times
//! are printed in the run record.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The CPU part's time on the reference container at its usual speed,
/// in ms (the median of a few hundred probes there). The two references
/// set only the scale of the reported values, not their spread.
pub const CPU_REFERENCE_MS: f64 = 1.85;
/// The loopback part's time on the reference container, in ms.
pub const NET_REFERENCE_MS: f64 = 2.75;
/// How often the load parks its clients for a probe.
pub const PROBE_EVERY: Duration = Duration::from_millis(500);
/// Threads the CPU part runs on at once, one per core of the reference
/// container, so that it samples every core the load runs on.
const CPU_THREADS: usize = 2;
/// Entries of the CPU part's table: 32 KiB of `u32`.
const TABLE_LEN: usize = 1 << 13;
/// Steps of the CPU part's walk.
const CPU_STEPS: usize = 450_000;
/// Round trips of the loopback part.
const NET_ROUND_TRIPS: usize = 40;

/// One probe: the CPU part's and the loopback part's time, in ms.
#[derive(Clone, Copy)]
pub struct Probe {
    pub cpu_ms: f64,
    pub net_ms: f64,
}

/// Probes of this process, in order.
static PROBES: Mutex<Vec<Probe>> = Mutex::new(Vec::new());

/// The CPU part's work: a random walk through a table in which each
/// step's address depends on the value the last step loaded, with
/// integer arithmetic between the loads.
fn walk(table: &[u32], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..CPU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = ((x ^ acc) as usize) & (TABLE_LEN - 1);
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(table[slot]));
    }
    acc
}

/// The CPU part: the walk on every probe thread at once. Returns the
/// mean thread's time in ms.
fn cpu_part() -> f64 {
    let table: Vec<u32> = (0..TABLE_LEN as u32)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect();
    let table = &table;
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CPU_THREADS)
            .map(|t| {
                s.spawn(move || {
                    let started = Instant::now();
                    std::hint::black_box(walk(table, std::hint::black_box(t as u64 + 7)));
                    started.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The loopback part: [`NET_ROUND_TRIPS`] times, connect to a local
/// listener, send a few bytes, and read the answer until the other side,
/// a second thread, closes. Returns the time in ms, NaN when a socket
/// call failed.
fn net_part() -> f64 {
    let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
        return f64::NAN;
    };
    let Ok(addr) = listener.local_addr() else {
        return f64::NAN;
    };
    let failed = AtomicBool::new(false);
    let round_trip = || -> std::io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(1)))?;
        stream.write_all(b"POST /probe HTTP/1.1\r\n\r\n")?;
        stream.read_to_end(&mut Vec::with_capacity(64))?;
        Ok(())
    };
    let answer = |mut stream: TcpStream| -> std::io::Result<()> {
        let mut request = [0u8; 64];
        let _ = stream.read(&mut request)?;
        stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
    };
    let started = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..NET_ROUND_TRIPS {
                let accepted = listener.accept();
                if failed.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        if answer(stream).is_err() {
                            failed.store(true, Ordering::SeqCst);
                        }
                    }
                    Err(_) => {
                        failed.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        });
        for _ in 0..NET_ROUND_TRIPS {
            if round_trip().is_err() {
                failed.store(true, Ordering::SeqCst);
                // Wake the answering thread from `accept`, so that it
                // sees the flag and ends.
                let _ = TcpStream::connect(addr);
                return;
            }
        }
    });
    if failed.load(Ordering::SeqCst) {
        f64::NAN
    } else {
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// Run one probe and record it.
pub fn sample() -> Probe {
    let probe = Probe {
        cpu_ms: cpu_part(),
        net_ms: net_part(),
    };
    PROBES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(probe);
    probe
}

/// The probes recorded so far.
pub fn probes() -> Vec<Probe> {
    PROBES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// The current slice: the number of probes so far. Work that starts
/// now runs between probe `slice() - 1` and probe `slice()`.
pub fn slice() -> usize {
    PROBES.lock().unwrap_or_else(PoisonError::into_inner).len()
}

/// The median of the finite values, NaN when there are none.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The geometric mean of each part's reference time over its median
/// over `probes`: how much faster than the reference the host ran.
fn factor_of(probes: &[Probe]) -> f64 {
    let cpu = median(probes.iter().map(|p| p.cpu_ms));
    let net = median(probes.iter().map(|p| p.net_ms));
    (CPU_REFERENCE_MS / cpu * NET_REFERENCE_MS / net).sqrt()
}

/// The factor that brings a time measured in this run to the reference
/// speed, from every probe of the run. Multiply times by it; divide
/// rates by it.
pub fn factor() -> f64 {
    factor_of(&probes())
}

/// Probes on each side of a slice that [`factors`] takes the medians
/// of: about four seconds of the host's speed around it.
const WINDOW: usize = 4;

/// The factor for work in each slice, `0..=slice()`, from the probes
/// around it: the host's speed drifts within a run too.
pub fn factors() -> Vec<f64> {
    let p = probes();
    (0..=p.len())
        .map(|s| factor_of(&p[s.saturating_sub(WINDOW)..(s + WINDOW).min(p.len())]))
        .collect()
}

/// Parks the load's clients between requests while a probe runs, so
/// that the probe measures the host, not the host busy with the load.
pub struct Gate {
    /// Whether a probe wants the clients parked, and how many clients
    /// are parked or gone.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
    clients: usize,
}

/// One client's place at the [`Gate`]. Dropping it lets probes go on
/// without the client.
pub struct Client<'a>(&'a Gate);

impl Gate {
    pub fn new(clients: usize) -> Self {
        Self {
            state: Mutex::new((false, 0)),
            changed: Condvar::new(),
            clients,
        }
    }

    pub fn client(&self) -> Client<'_> {
        Client(self)
    }

    /// Probe every [`PROBE_EVERY`] until `deadline`. Each probe waits
    /// until every client has parked or left.
    pub fn drive(&self, deadline: Instant) {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            std::thread::sleep(PROBE_EVERY.min(deadline - now));
            if Instant::now() >= deadline {
                return;
            }
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.0 = true;
            while state.1 < self.clients {
                state = self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(state);
            sample();
            self.state.lock().unwrap_or_else(PoisonError::into_inner).0 = false;
            self.changed.notify_all();
        }
    }
}

impl Client<'_> {
    /// Call between two requests: waits out a probe that wants the
    /// clients parked. Returns the time spent parked.
    pub fn pass(&self) -> Duration {
        let gate = self.0;
        let mut state = gate.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.0 {
            return Duration::ZERO;
        }
        let parked = Instant::now();
        state.1 += 1;
        gate.changed.notify_all();
        while state.0 {
            state = gate
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1 -= 1;
        parked.elapsed()
    }
}

impl Drop for Client<'_> {
    fn drop(&mut self) {
        let gate = self.0;
        gate.state.lock().unwrap_or_else(PoisonError::into_inner).1 += 1;
        gate.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_the_reference_speed_has_factor_one() {
        let at_reference = Probe {
            cpu_ms: CPU_REFERENCE_MS,
            net_ms: NET_REFERENCE_MS,
        };
        assert!((factor_of(&[at_reference; 3]) - 1.0).abs() < 1e-12);
        // Twice as slow in both parts: times are halved.
        let slow = Probe {
            cpu_ms: 2.0 * CPU_REFERENCE_MS,
            net_ms: 2.0 * NET_REFERENCE_MS,
        };
        assert!((factor_of(&[slow, slow, at_reference]) - 0.5).abs() < 1e-12);
        // A failed loopback part is left out, not counted as fast.
        let failed = Probe {
            cpu_ms: 2.0 * CPU_REFERENCE_MS,
            net_ms: f64::NAN,
        };
        assert!((factor_of(&[slow, failed]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_gate_probes_between_requests_and_lets_clients_leave() {
        let gate = Gate::new(2);
        let before = slice();
        let deadline = Instant::now() + PROBE_EVERY * 3;
        let parked = std::thread::scope(|s| {
            let clients: Vec<_> = (0..2)
                .map(|i| {
                    let gate = &gate;
                    s.spawn(move || {
                        let client = gate.client();
                        let mut parked = Duration::ZERO;
                        // The second client leaves early; probes go on
                        // without it.
                        let until = if i == 0 {
                            deadline
                        } else {
                            Instant::now() + PROBE_EVERY
                        };
                        while Instant::now() < until {
                            parked += client.pass();
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        parked
                    })
                })
                .collect();
            gate.drive(deadline);
            clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect::<Vec<_>>()
        });
        assert!(slice() >= before + 2, "at least two probes ran");
        assert!(parked[0] > Duration::ZERO, "the staying client parked");
        let probe = probes()[before];
        assert!(probe.cpu_ms > 0.0 && probe.net_ms > 0.0);
    }
}
