//! Golden generator output: the instruction streams the embedding-bag and
//! L2-pin kernels emit stay exactly what earlier builds emitted.
//!
//! The cycle-accurate ≡ event-driven suites share one generator, so they
//! cannot catch a change to it. This suite can: it drains a few warps of
//! every kernel build (base, OptMT, a spilling build, every buffer station
//! at several prefetch distances, with and without a register cap) over
//! every access pattern at Test scale, plus the L2-pin kernel, and pins an
//! FNV-1a hash of each stream against `tests/fixtures/golden_programs.txt`,
//! one `label<TAB>hash<TAB>instructions` line per cell.
//!
//! The fixture is a record of what earlier builds generated, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! generator is canonical (adapting `drain` to that commit's program
//! interface if it differs), and run there
//! `GOLDEN_PROGRAMS_WRITE=$PWD/tests/fixtures/golden_programs.txt cargo test --test golden_programs`.

use dlrm::{DlrmConfig, WorkloadScale};
use dlrm_datasets::AccessPattern;
use embedding_kernels::{
    BufferStation, EmbeddingKernelSpec, EmbeddingWorkload, PinPlan, PrefetchConfig,
};
use gpu_sim::{Instruction, KernelProgram, MemSpace, PrefetchTarget, WarpInfo};

const FIXTURE: &str = include_str!("fixtures/golden_programs.txt");

/// `(block, warp in block)` of the warps drained per cell: the first, one
/// in the middle and the last of the Test-scale grid.
const WARPS: [(u32, u32); 3] = [(0, 0), (13, 5), (31, 7)];

/// The whole instruction stream of one warp.
fn drain(kernel: &dyn KernelProgram, block: u32, warp: u32) -> Vec<Instruction> {
    let info = WarpInfo {
        block_id: block,
        warp_in_block: warp,
        warps_per_block: 8,
        threads_per_block: 256,
        global_warp_id: block as u64 * 8 + warp as u64,
        sm_id: 0,
    };
    gpu_sim::decode::drain(&mut *kernel.warp_program(info), gpu_sim::warp::IBUF)
}

/// 64-bit FNV-1a over a canonical byte encoding of instructions.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn reg(&mut self, r: Option<u8>) {
        self.bytes(&[r.is_some() as u8, r.unwrap_or(0)]);
    }

    fn inst(&mut self, inst: &Instruction) {
        let space = |s: MemSpace| match s {
            MemSpace::Global => 0u8,
            MemSpace::Local => 1,
            MemSpace::Shared => 2,
        };
        match *inst {
            Instruction::Load {
                space: s,
                lines,
                dst,
                bytes,
                addr_dep,
            } => {
                self.bytes(&[0, space(s), dst]);
                self.u64(bytes as u64);
                self.reg(addr_dep);
                self.u64(lines.len() as u64);
                lines.iter().for_each(|l| self.u64(l));
            }
            Instruction::Store {
                space: s,
                lines,
                src,
                bytes,
            } => {
                self.bytes(&[1, space(s), src]);
                self.u64(bytes as u64);
                self.u64(lines.len() as u64);
                lines.iter().for_each(|l| self.u64(l));
            }
            Instruction::Prefetch {
                target,
                lines,
                addr_dep,
            } => {
                let t = match target {
                    PrefetchTarget::L1 => 0u8,
                    PrefetchTarget::L2EvictLast => 1,
                };
                self.bytes(&[2, t]);
                self.reg(addr_dep);
                self.u64(lines.len() as u64);
                lines.iter().for_each(|l| self.u64(l));
            }
            Instruction::Alu { dst, srcs, latency } => {
                self.bytes(&[3, dst, srcs.len() as u8]);
                srcs.iter().for_each(|r| self.bytes(&[r]));
                self.u64(latency as u64);
            }
        }
    }
}

fn specs() -> Vec<EmbeddingKernelSpec> {
    let base = EmbeddingKernelSpec::base();
    let mut specs = vec![
        base,
        EmbeddingKernelSpec::optmt(),
        base.with_max_registers(24),
    ];
    for station in BufferStation::ALL {
        for distance in [1, 2, 5, 16] {
            specs.push(base.with_prefetch(PrefetchConfig::new(station, distance)));
        }
        specs.push(EmbeddingKernelSpec::optmt().with_prefetch(PrefetchConfig::new(station, 2)));
        specs.push(
            base.with_prefetch(PrefetchConfig::new(station, 16))
                .with_max_registers(24),
        );
    }
    specs
}

/// Every golden cell as `(label, hash, instructions)`, in fixture order.
fn grid() -> Vec<(String, u64, usize)> {
    let config = DlrmConfig::at_scale(WorkloadScale::Test).embedding;
    let mut cells = Vec::new();
    for pattern in AccessPattern::ALL {
        let workload = EmbeddingWorkload::generate(config, pattern, 1, 7);
        let mut cell = |label: String, kernel: &dyn KernelProgram, warps: &[(u32, u32)]| {
            let mut h = Fnv::new();
            let mut count = 0;
            for &(block, warp) in warps {
                let insts = drain(kernel, block, warp);
                h.u64(insts.len() as u64);
                insts.iter().for_each(|i| h.inst(i));
                count += insts.len();
            }
            cells.push((format!("{label}/{}", pattern.paper_name()), h.0, count));
        };
        for spec in specs() {
            cell(spec.name(), &spec.kernel(&workload), &WARPS);
        }
        let (_, pin) = PinPlan::for_workload(&workload, 64 * 1024).kernel();
        cell("l2_pin".to_string(), &pin, &[(0, 0), (0, 3)]);
    }
    cells
}

#[test]
fn generated_programs_match_the_golden_fixture() {
    let cells = grid();
    if let Ok(path) = std::env::var("GOLDEN_PROGRAMS_WRITE") {
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
        assert_eq!(
            golden.len(),
            3,
            "fixture lines are label<TAB>hash<TAB>instructions"
        );
        assert_eq!(label, golden[0], "grid order diverged from the fixture");
        assert_eq!(
            (format!("{hash:016x}"), n.to_string()),
            (golden[1].to_string(), golden[2].to_string()),
            "{label}: the generated instruction stream changed"
        );
    }
}
