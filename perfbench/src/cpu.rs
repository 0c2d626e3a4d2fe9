//! The CPU a pass runs on, and how fast it runs at the moment.
//!
//! On a shared virtual machine a vCPU does not keep one speed. On the
//! 2-vCPU test host every CPU-bound piece of work, the benchmark's passes
//! and a plain integer loop alike, switches between two speeds 1.33×
//! apart, for stretches of a fraction of a second to minutes, on either
//! vCPU. So each timed piece of a pass is bracketed by [`probe`]s of a
//! fixed integer loop, and its time is scaled by how much slower than
//! [`PROBE_REFERENCE_S`] the probes ran. A cycle pins its threads to one
//! CPU (serve-mixed: the daemon's threads to one, the client to another)
//! and probes the CPU the timed work runs on; the cycles of a run rotate
//! over the allowed CPUs. Threads inherit the affinity of the thread that
//! spawns them.

use std::hint::black_box;
use std::os::raw::{c_int, c_ulong};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// Loop iterations of one probe: about 0.17 ms at the reference speed.
const PROBE_ITERS: u64 = 100_000;

/// Seconds a probe takes at the reference speed: the fast state of the
/// test host (Xeon, model 143, 2 vCPUs), where probes took 155–175 µs and
/// 215–235 µs in the slow one. Scaled times are wall times at that speed.
pub const PROBE_REFERENCE_S: f64 = 0.000_165;

/// Four independent integer streams: bound by the core's clock and issue
/// width, not by memory.
fn kernel(iters: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..iters {
        a = a.wrapping_add(i ^ (a >> 3));
        b = b.wrapping_add(i ^ (b << 1));
        c ^= i.wrapping_add(c >> 5);
        d = d.wrapping_add(i).rotate_left(7);
    }
    a ^ b ^ c ^ d
}

/// Seconds the probe loop takes now on this thread's CPU: the faster of
/// two runs, so an interrupt in one does not count.
pub fn probe() -> f64 {
    (0..2)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel(black_box(PROBE_ITERS)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A thread that runs [`probe`] when asked, on the CPU it was started
/// on: for work that runs there while the asking thread runs elsewhere.
#[derive(Debug)]
pub struct Prober {
    ask: Option<SyncSender<()>>,
    answer: Receiver<f64>,
    handle: Option<JoinHandle<()>>,
}

impl Prober {
    /// Starts the thread; it inherits the calling thread's affinity.
    pub fn spawn() -> Prober {
        let (ask, asked) = sync_channel::<()>(0);
        let (reply, answer) = sync_channel(1);
        let handle = std::thread::spawn(move || {
            for () in asked {
                if reply.send(probe()).is_err() {
                    break;
                }
            }
        });
        Prober {
            ask: Some(ask),
            answer,
            handle: Some(handle),
        }
    }

    /// Seconds a [`probe`] takes on the thread's CPU now.
    pub fn probe(&self) -> f64 {
        let asked = self.ask.as_ref().is_some_and(|ask| ask.send(()).is_ok());
        match asked.then(|| self.answer.recv()) {
            Some(Ok(seconds)) => seconds,
            _ => probe(),
        }
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.ask = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [c_ulong; 1024 / c_ulong::BITS as usize];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

const WORD: usize = c_ulong::BITS as usize;

/// The CPUs the process may run on, in ascending order, as the kernel
/// reported them on the first call, before any pinning; empty when it does
/// not say.
pub fn allowed() -> Vec<usize> {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED
        .get_or_init(|| {
            let mut mask: CpuSet = [0; 1024 / WORD];
            // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
            if rc != 0 {
                return Vec::new();
            }
            (0..1024)
                .filter(|&cpu| mask[cpu / WORD] >> (cpu % WORD) & 1 == 1)
                .collect()
        })
        .clone()
}

/// Pins the calling thread to CPU `cpus[slot % cpus.len()]`. Does nothing
/// when `cpus` is empty or the kernel refuses.
pub fn pin(cpus: &[usize], slot: usize) {
    if let Some(&cpu) = cpus.get(slot % cpus.len().max(1)) {
        set_affinity(&[cpu]);
    }
}

/// Lets the calling thread run on every CPU in `cpus` again.
pub fn unpin(cpus: &[usize]) {
    if !cpus.is_empty() {
        set_affinity(cpus);
    }
}

fn set_affinity(cpus: &[usize]) {
    let mut mask: CpuSet = [0; 1024 / WORD];
    for &cpu in cpus {
        mask[cpu / WORD] |= 1 << (cpu % WORD);
    }
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}
