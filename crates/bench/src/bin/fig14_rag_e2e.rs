//! Figure 14: end-to-end RAG inference time across platforms and corpus
//! sizes — CPU (modeled Xeon), GPU model,
//! and the simulated compute-in-SRAM device at every optimization
//! variant.

use apu_sim::{ApuDevice, ExecMode, SimConfig};
use cis_bench::table::{print_table, section};
use hbm_sim::{DramSpec, MemorySystem};
use rag::{CorpusSpec, EmbeddingStore, Platform, RagPipeline, RagVariant};

fn main() {
    let cfg = cis_bench::parse_args();
    let pipeline = RagPipeline::paper();
    // Always the paper's corpus points: the retrieval side runs
    // timing-only, so even 200 GB costs milliseconds of host time.
    let specs: Vec<CorpusSpec> = CorpusSpec::paper_points().to_vec();

    section("Figure 14: end-to-end RAG time-to-interactive (ms)");
    println!(
        "generation (Llama-3.1-8B TTFT on a dedicated GPU): {:.0} ms\n",
        pipeline.generation.ttft_ms()
    );

    let platforms: Vec<Platform> = {
        let mut p = vec![Platform::CpuModel, Platform::Gpu];
        p.extend(RagVariant::ALL.into_iter().map(Platform::Apu));
        p
    };

    let mut rows = Vec::new();
    for spec in &specs {
        let mut dev = ApuDevice::new(
            SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_exec_mode(ExecMode::TimingOnly),
        );
        let store = EmbeddingStore::size_only(*spec, cfg.seed);
        let q = vec![1i16; rag::corpus::EMBED_DIM];
        let mut cpu_retrieval = 0.0;
        for platform in &platforms {
            let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
            let e2e = pipeline
                .run(*platform, &store, &q, &mut dev, &mut hbm)
                .expect("pipeline");
            if matches!(platform, Platform::CpuModel) {
                cpu_retrieval = e2e.retrieval_ms;
            }
            rows.push(vec![
                spec.label(),
                e2e.platform.clone(),
                format!("{:.1}", e2e.retrieval_ms),
                format!("{:.0}", e2e.total_ms()),
                format!("{:.0}%", e2e.retrieval_ms / e2e.total_ms() * 100.0),
                if cpu_retrieval > 0.0 {
                    format!("{:.1}x", cpu_retrieval / e2e.retrieval_ms)
                } else {
                    "-".into()
                },
            ]);
        }
        rows.push(vec!["".into(); 6]);
    }
    print_table(
        &[
            "corpus",
            "platform",
            "retrieval (ms)",
            "e2e (ms)",
            "retrieval share",
            "retrieval speedup vs CPU",
        ],
        &rows,
    );
    println!("Paper anchors: retrieval speedups 6.3x/4.8x/6.6x at 10/50/200 GB,");
    println!("end-to-end gains 1.05x/1.15x/1.75x, GPU-level e2e latency.");
}
