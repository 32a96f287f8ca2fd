//! Host-time and host-memory readings, and the order statistics the
//! benchmark reports them with. Every wall-clock read of the benchmark goes
//! through this module.

use std::cell::RefCell;
use std::fmt::Write;
// audit:allow(wall_clock): the benchmark measures host time by design
use std::time::Instant;

/// A monotonic stopwatch started on creation.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // audit:allow(wall_clock): the benchmark measures host time by design
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            // audit:allow(wall_clock): the benchmark measures host time by design
            start: Instant::now(),
        }
    }

    /// Seconds since the stopwatch started.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the stopwatch started.
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let value = f();
    (value, watch.seconds())
}

/// Records the string loop formats, hashes, sorts and looks up.
const CALIBRATION_RECORDS: usize = 4096;

/// The memory loop's tables, in 64-bit words: one that stays in a typical
/// host's private caches and one that spills past them.
const CALIBRATION_WORDS: [usize; 2] = [1 << 15, 1 << 18];

/// Dependent random read-modify-writes per table and memory loop.
const CALIBRATION_STEPS: [u64; 2] = [1 << 18, 1 << 16];

/// The calibration loop's lower-quartile time on a quiet 2-core x86-64
/// host; one calibrated second is this many seconds of host time divided
/// by the loop's lower-quartile time in the run.
pub const CALIBRATION_NOMINAL_S: f64 = 0.0022;

thread_local! {
    /// The string loop's records and sort order, kept from call to call so
    /// that the loop allocates nothing after its first run.
    static CALIBRATION_BUFFERS: RefCell<(Vec<String>, Vec<u32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// The memory loop's tables.
    static CALIBRATION_TABLES: RefCell<[Vec<u64>; 2]> =
        RefCell::new(CALIBRATION_WORDS.map(|words| (0..words as u64).collect()));
}

/// Seconds a fixed calibration loop takes now: the geometric mean of a
/// string loop and a memory loop. Neither runs code of the simulator, so
/// dividing a measured time by it cancels how fast the host happens to be
/// (how much of a shared core, its caches and the memory bus other tenants
/// take), not how fast the simulator is.
///
/// The string loop formats a few thousand short JSON-like records into
/// reused strings, hashes their bytes, sorts them and looks each one up by
/// binary search: formatting and branchy, high-throughput integer code, as
/// most of the simulator's host code is, and it slows as that code does
/// when a sibling hardware thread is busy. It allocates nothing after its
/// first run, so the state the measured code leaves the heap in does not
/// change its time. The memory loop makes dependent random reads and
/// writes over a table that fits the private caches and over one that does
/// not: it slows as the A100 cells, whose simulated state is far larger
/// than the host caches, do when other tenants take the shared cache and
/// memory bandwidth.
pub fn calibration_s() -> f64 {
    (string_loop_s() * memory_loop_s()).sqrt()
}

fn string_loop_s() -> f64 {
    CALIBRATION_BUFFERS.with(|buffers| {
        let (records, order) = &mut *buffers.borrow_mut();
        records.resize_with(CALIBRATION_RECORDS, String::new);
        let watch = Stopwatch::start();
        for (i, record) in records.iter_mut().enumerate() {
            let i = i as u64;
            record.clear();
            write!(
                record,
                "{{\"key\":{},\"value\":{:.3},\"name\":\"r{}\"}}",
                i.wrapping_mul(2_654_435_761) % 1_000_003,
                i as f64 / 7.0,
                i ^ 0x5555
            )
            .expect("formatting into a String cannot fail");
        }
        let hash = records
            .iter()
            .flat_map(|r| r.bytes())
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
        order.clear();
        order.extend(0..CALIBRATION_RECORDS as u32);
        order.sort_unstable_by(|&a, &b| records[a as usize].cmp(&records[b as usize]));
        let found: usize = records
            .iter()
            .map(|r| {
                order
                    .binary_search_by(|&o| records[o as usize].as_str().cmp(r))
                    .unwrap_or(0)
            })
            .sum();
        std::hint::black_box((hash, found));
        watch.seconds()
    })
}

/// The geometric mean of the memory loop's times over its two tables.
fn memory_loop_s() -> f64 {
    CALIBRATION_TABLES.with(|tables| {
        let mut tables = tables.borrow_mut();
        let mut product = 1.0;
        for (table, steps) in tables.iter_mut().zip(CALIBRATION_STEPS) {
            let mask = table.len() as u64 - 1;
            let watch = Stopwatch::start();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut acc = 0u64;
            for _ in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = ((x ^ acc) & mask) as usize;
                acc = acc.wrapping_add(table[i]).rotate_left(5);
                table[i] = acc;
            }
            std::hint::black_box(acc);
            product *= watch.seconds();
        }
        product.sqrt()
    })
}

/// The process's peak resident set size (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "the median of nothing is undefined");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The lower quartile of `values`, interpolating linearly between order
/// statistics.
///
/// # Panics
/// Panics on an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "the quartile of nothing is undefined");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() - 1) as f64 / 4.0;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn calibration_takes_positive_time() {
        assert!(calibration_s() > 0.0);
    }

    #[test]
    fn lower_quartile_interpolates() {
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.75);
    }

    #[test]
    fn peak_rss_is_positive_where_proc_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM is readable") > 0.0);
        }
    }
}
