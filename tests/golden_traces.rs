//! Golden traces: the lookup indices `TraceConfig::generate` draws, and the
//! hot-row candidates L2 pinning profiles, stay exactly what earlier builds
//! produced.
//!
//! Every cache key, report and benchmark artifact downstream is a function
//! of these traces, so a sampler change that moves one draw moves them all.
//! This suite pins an FNV-1a hash of the `indices` of every access pattern
//! at table sizes from 1 row to Default scale (250,000 rows; 4,096 is the
//! coverage-skew probe and 20,000 is Test scale), over three seeds, plus
//! `hot_row_candidates(pattern, 64, seed)`, against
//! `tests/fixtures/golden_traces.txt`, one `label<TAB>hash<TAB>len` line per
//! cell.
//!
//! The fixture is a record of what earlier builds generated, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! sampler is canonical, and run there
//! `GOLDEN_TRACES_WRITE=$PWD/tests/fixtures/golden_traces.txt cargo test --test golden_traces`.

use dlrm_datasets::{AccessPattern, TraceConfig};

const FIXTURE: &str = include_str!("fixtures/golden_traces.txt");

const ROWS: [u64; 5] = [1, 7, 4_096, 20_000, 250_000];
const SEEDS: [u64; 3] = [1, 2, 7];

/// Samples and lookups per sample of every pinned trace: 16,384 draws.
const BATCH: u32 = 512;
const POOLING: u32 = 32;

/// 64-bit FNV-1a over the little-endian bytes of `values`.
fn fnv1a(values: impl IntoIterator<Item = u64>, width: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for &b in &v.to_le_bytes()[..width] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(label, hash, length)` of every pinned cell, in fixture order.
fn grid() -> Vec<(String, u64, usize)> {
    let mut cells = Vec::new();
    for pattern in AccessPattern::ALL {
        let name = pattern.paper_name().replace(' ', "_");
        for rows in ROWS {
            let cfg = TraceConfig::new(rows, BATCH, POOLING);
            for seed in SEEDS {
                let trace = cfg.generate(pattern, seed);
                cells.push((
                    format!("{name}/rows={rows}/seed={seed}/indices"),
                    fnv1a(trace.indices.iter().map(|&i| i as u64), 4),
                    trace.indices.len(),
                ));
                let hot = cfg.hot_row_candidates(pattern, 64, seed);
                cells.push((
                    format!("{name}/rows={rows}/seed={seed}/hot64"),
                    fnv1a(hot.iter().copied(), 8),
                    hot.len(),
                ));
            }
        }
    }
    cells
}

#[test]
fn generated_traces_match_the_golden_fixture() {
    let cells = grid();
    if let Ok(path) = std::env::var("GOLDEN_TRACES_WRITE") {
        let text: String = cells
            .iter()
            .map(|(label, hash, n)| format!("{label}\t{hash:016x}\t{n}\n"))
            .collect();
        std::fs::write(&path, text).expect("fixture is writable");
        return;
    }
    let golden: Vec<Vec<&str>> = FIXTURE
        .lines()
        .map(|line| line.split('\t').collect())
        .collect();
    assert_eq!(
        cells.len(),
        golden.len(),
        "the grid and the fixture list different cells"
    );
    for ((label, hash, n), golden) in cells.iter().zip(&golden) {
        assert_eq!(golden.len(), 3, "fixture lines are label<TAB>hash<TAB>len");
        assert_eq!(label, golden[0], "grid order diverged from the fixture");
        assert_eq!(
            (format!("{hash:016x}"), n.to_string()),
            (golden[1].to_string(), golden[2].to_string()),
            "{label}: the generated trace changed"
        );
    }
}
