//! Resumable fill: every warp program emits the same instruction stream no
//! matter how small the decode buffer it fills is.
//!
//! The engine refills a warp's decode buffer whenever it runs dry, so a
//! program must be able to stop after any instruction — including in the
//! middle of a prefetch superstep longer than the buffer — and resume
//! exactly there. Each program here is drained through buffers of 1, 2, 3,
//! 7 and `IBUF` entries and compared with one fill of a buffer larger than
//! the whole program. `gpu_sim::decode::drain` also checks the fill
//! contract: a fill that is not done pushes something, and a finished
//! program stays finished.

use dlrm_datasets::{AccessPattern, TraceConfig};
use embedding_kernels::{
    BufferStation, EmbeddingConfig, EmbeddingKernelSpec, EmbeddingWorkload, PrefetchConfig,
};
use gpu_sim::decode::drain;
use gpu_sim::isa::SrcSet;
use gpu_sim::launch::VecProgram;
use gpu_sim::programs::{PointerChaseKernel, StreamKernel};
use gpu_sim::warp::IBUF;
use gpu_sim::{InstBuffer, Instruction, KernelProgram, MemSpace, WarpInfo, WarpProgram};

/// Larger than any program below, so one fill holds it whole.
const UNBOUNDED: usize = 1 << 16;

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

/// Drains fresh copies of one program through every buffer size and
/// returns its stream.
fn assert_resumable(label: &str, make: impl Fn() -> Box<dyn WarpProgram>) -> Vec<Instruction> {
    let mut buf = InstBuffer::new(UNBOUNDED);
    let mut program = make();
    assert!(
        buf.fill(&mut *program),
        "{label}: outgrew the unbounded sink"
    );
    let whole: Vec<Instruction> = buf.instructions().collect();
    assert!(
        buf.fill(&mut *program) && buf.is_empty(),
        "{label}: a finished program must stay finished"
    );
    for capacity in [1, 2, 3, 7, IBUF] {
        assert_eq!(
            drain(&mut *make(), capacity),
            whole,
            "{label}: draining through {capacity}-entry sinks changed the stream"
        );
    }
    whole
}

fn assert_kernel_resumable(label: &str, kernel: &dyn KernelProgram, warps: &[(u32, u32)]) {
    for &(block, warp) in warps {
        let label = format!("{label} warp ({block}, {warp})");
        let stream = assert_resumable(&label, || kernel.warp_program(info(block, warp)));
        assert!(!stream.is_empty(), "{label}: expected a non-empty program");
    }
}

#[test]
fn vec_programs_resume_anywhere() {
    let alu = |dst| Instruction::iadd(dst, 1);
    // The widest byte count must survive the packing at every cut.
    let wide = |dst| Instruction::Load {
        space: MemSpace::Global,
        line: 128,
        dst,
        bytes: u32::MAX,
        addr_dep: None,
    };
    let programs: Vec<Vec<Instruction>> = vec![
        vec![],
        vec![alu(1)],
        (0..17).map(alu).collect(),
        (0..40)
            .map(|i| if i % 3 == 0 { wide(i) } else { alu(i) })
            .collect(),
        (0..9)
            .map(|i| Instruction::Alu {
                dst: i,
                srcs: SrcSet::three(i, 2, 3),
                latency: i as u32,
            })
            .collect(),
    ];
    for insts in programs {
        let stream = assert_resumable("vec", || Box::new(VecProgram::new(insts.clone())));
        assert_eq!(stream, insts);
    }
}

#[test]
fn synthetic_kernels_resume_anywhere() {
    let warps = [(0, 0), (3, 7)];
    assert_kernel_resumable("stream", &StreamKernel::new(13), &warps);
    assert_kernel_resumable("chase", &PointerChaseKernel::new(11, 1 << 20), &warps);
}

/// A workload with 20 lookups per bag: a distance-16 superstep is followed
/// by a partial one, and both can be longer than the decode buffer.
fn workload() -> EmbeddingWorkload {
    let cfg = EmbeddingConfig::new(TraceConfig::new(5_000, 16, 20), 64);
    EmbeddingWorkload::generate(cfg, AccessPattern::MedHot, 0, 3)
}

#[test]
fn embedding_warps_resume_anywhere() {
    let w = workload();
    let base = EmbeddingKernelSpec::base();
    let spilling = base.with_max_registers(24);
    assert!(spilling.spills_per_iteration() > 0);
    let mut specs = vec![base, EmbeddingKernelSpec::optmt(), spilling];
    for station in BufferStation::ALL {
        for distance in [1, 2, 5, 16] {
            specs.push(base.with_prefetch(PrefetchConfig::new(station, distance)));
        }
        specs.push(
            base.with_prefetch(PrefetchConfig::new(station, 16))
                .with_max_registers(24),
        );
    }
    for spec in specs {
        assert_kernel_resumable(&spec.name(), &spec.kernel(&w), &[(0, 0), (1, 5), (3, 7)]);
    }
}

#[test]
fn warps_outside_the_batch_are_empty_programs() {
    let w = workload();
    let kernel = EmbeddingKernelSpec::base().kernel(&w);
    // Sixteen bags of two warps each fill blocks 0..4; block 4 is padding.
    assert!(w.warp_assignment(4, 0).is_none());
    let stream = assert_resumable("empty", || kernel.warp_program(info(4, 0)));
    assert!(stream.is_empty());
}
