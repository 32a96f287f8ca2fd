//! Golden generator output: the instruction streams the embedding-bag
//! kernels emit stay exactly what earlier builds emitted.
//!
//! The cycle-accurate ≡ event-driven suites share one generator, so they
//! cannot catch a change to it. This suite can: it drains a few warps of
//! every kernel build (base, OptMT, a spilling build, every buffer station
//! at several prefetch distances, with and without a register cap) over
//! every access pattern at Test scale, and pins an FNV-1a hash of each
//! stream against `tests/fixtures/golden_programs.txt`, one
//! `label<TAB>hash<TAB>instructions` line per cell. L2 pinning emits no
//! instructions (its pin pass is `PinPlan::apply`, outside the simulated
//! kernel), so it has no cell.
//!
//! The fixture is a record of what earlier builds generated, so it must
//! never be regenerated from the code it checks. To extend the grid, add
//! cells here, copy this file into a checkout of the last commit whose
//! generator is canonical (adapting `drain` to that commit's program
//! interface if it differs), and run there
//! `GOLDEN_PROGRAMS_WRITE=$PWD/tests/fixtures/golden_programs.txt cargo test --test golden_programs`.

use dlrm::{DlrmConfig, WorkloadScale};
use dlrm_datasets::AccessPattern;
use embedding_kernels::{BufferStation, EmbeddingKernelSpec, EmbeddingWorkload, PrefetchConfig};
use gpu_sim::{InstBuffer, Instruction, KernelProgram, MemSpace, WarpInfo};

const FIXTURE: &str = include_str!("fixtures/golden_programs.txt");

/// `(block, warp in block)` of the warps drained per cell: the first, one
/// in the middle and the last of the Test-scale grid.
const WARPS: [(u32, u32); 3] = [(0, 0), (13, 5), (31, 7)];

fn info(block: u32, warp: u32) -> WarpInfo {
    WarpInfo {
        block_id: block,
        warp_in_block: warp,
        warps_per_block: 8,
        threads_per_block: 256,
        global_warp_id: block as u64 * 8 + warp as u64,
        sm_id: 0,
    }
}

/// The whole instruction stream of one warp.
fn drain(kernel: &dyn KernelProgram, block: u32, warp: u32) -> Vec<Instruction> {
    gpu_sim::decode::drain(
        &mut *kernel.warp_program(info(block, warp)),
        gpu_sim::warp::IBUF,
    )
}

/// The whole instruction stream of one warp as `buf` packs it, through
/// the buffer's register map.
fn drain_into(
    kernel: &dyn KernelProgram,
    block: u32,
    warp: u32,
    buf: &mut InstBuffer,
) -> Vec<Instruction> {
    let mut program = kernel.warp_program(info(block, warp));
    let mut out = Vec::new();
    loop {
        let done = buf.fill(&mut *program);
        out.extend(buf.instructions());
        if done {
            return out;
        }
    }
}

/// One kernel build of a pattern's grid.
struct Build {
    label: String,
    kernel: Box<dyn KernelProgram>,
}

/// Every kernel build of one pattern's grid, one per spec.
fn builds(pattern: AccessPattern) -> Vec<Build> {
    let config = DlrmConfig::at_scale(WorkloadScale::Test).embedding;
    let workload = EmbeddingWorkload::generate(config, pattern, 1, 7);
    specs()
        .into_iter()
        .map(|spec| Build {
            label: format!("{}/{}", spec.name(), pattern.paper_name()),
            kernel: Box::new(spec.kernel(&workload)),
        })
        .collect()
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

    /// A memory access's line, after a line count of 1: the encoding the
    /// fixture's hashes were recorded with.
    fn line(&mut self, line: u64) {
        self.u64(1);
        self.u64(line);
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
                line,
                dst,
                bytes,
                addr_dep,
            } => {
                self.bytes(&[0, space(s), dst]);
                self.u64(bytes as u64);
                self.reg(addr_dep);
                self.line(line);
            }
            Instruction::Store {
                space: s,
                line,
                src,
                bytes,
            } => {
                self.bytes(&[1, space(s), src]);
                self.u64(bytes as u64);
                self.line(line);
            }
            Instruction::Prefetch { line, addr_dep } => {
                // The second byte once tagged the prefetch target (0 = L1),
                // kept so the fixture's hashes stay valid.
                self.bytes(&[2, 0]);
                self.reg(addr_dep);
                self.line(line);
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
    let mut cells = Vec::new();
    for pattern in AccessPattern::ALL {
        for build in builds(pattern) {
            let mut h = Fnv::new();
            let mut count = 0;
            for &(block, warp) in &WARPS {
                let insts = drain(&*build.kernel, block, warp);
                h.u64(insts.len() as u64);
                insts.iter().for_each(|i| h.inst(i));
                count += insts.len();
            }
            cells.push((build.label, h.0, count));
        }
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

/// The engine packs dense register ids through one map per run. That map
/// must be a bijection onto `0..len` covering exactly the raw ids the
/// warps name, and undoing it must give back the raw stream exactly;
/// otherwise two registers share a scoreboard word and hazards change.
#[test]
fn dense_register_ids_undo_to_the_raw_stream() {
    for pattern in AccessPattern::ALL {
        for Build { label, kernel } in builds(pattern) {
            // One map across the build's warps, as one run shares it.
            let mut buf = InstBuffer::dense(gpu_sim::warp::IBUF);
            let mut named = [false; 256];
            for &(block, warp) in &WARPS {
                let raw = drain(&*kernel, block, warp);
                let dense = drain_into(&*kernel, block, warp, &mut buf);
                let map = buf.register_map();
                let undone: Vec<Instruction> =
                    dense.iter().map(|i| i.map_regs(|d| map.raw(d))).collect();
                assert_eq!(undone, raw, "{label}: renaming changed the stream");
                for inst in raw {
                    inst.map_regs(|r| {
                        named[r as usize] = true;
                        r
                    });
                }
            }
            let map = buf.register_map();
            for d in 0..map.len() {
                let d = d as u8;
                assert_eq!(map.get(map.raw(d)), Some(d), "{label}: not injective");
            }
            for r in 0..=255u8 {
                assert_eq!(
                    map.get(r).is_some(),
                    named[r as usize],
                    "{label}: raw id {r} mapped iff the warps name it"
                );
            }
        }
    }
}
