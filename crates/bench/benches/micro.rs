//! Micro-benchmarks for the performance-critical primitives: entropy
//! computation, visibility testing, T_visible construction, nearest-sample
//! lookup, cache-policy operations, and the integrity and payload codecs a
//! served block crosses (CRC-32, VSRV `FetchReply` frames, `VBLK` block
//! frames).
//!
//! `cargo bench -p viz-bench --bench micro [FILTER]`; each line is the
//! median time per call ± its MAD (see `viz_bench::timing`).

use std::hint::black_box;
use viz_bench::timing::bench;
use viz_cache::{AccessClass, CacheLevel, Hierarchy, Lookup, PolicyKind};
use viz_core::{
    visible_blocks, visible_blocks_brute_force, ImportanceTable, RadiusModel, RadiusRule,
    SamplingConfig, VisibleTable,
};
use viz_geom::angle::deg_to_rad;
use viz_geom::CameraPose;
use viz_volume::{BlockBvh, BlockStats, BrickLayout, DatasetKind, DatasetSpec, Dims3};

/// Timed batches per case.
const RUNS: usize = 21;
/// Timed batches for the multi-second cases.
const SLOW_RUNS: usize = 10;

fn bench_entropy() {
    for &n in &[4096usize, 32768, 262144] {
        let data: Vec<f32> = (0..n).map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0).collect();
        bench(&format!("entropy/block_stats/{n}"), RUNS, || {
            BlockStats::compute(black_box(&data), 0.0, 1.0, 64)
        });
    }
}

fn bench_visibility() {
    for &blocks in &[512usize, 2048, 4096] {
        let layout = BrickLayout::with_target_blocks(Dims3::cube(256), blocks);
        let pose = CameraPose::orbit(80.0, 30.0, 2.5, 15.0);
        bench(&format!("visibility/cone_frame/{blocks}"), RUNS, || {
            visible_blocks(black_box(&pose), black_box(&layout))
        });
    }
}

fn bench_bvh() {
    for &blocks in &[512usize, 4096, 32768] {
        let layout = BrickLayout::with_target_blocks(Dims3::cube(512), blocks);
        let pose = CameraPose::orbit(80.0, 30.0, 2.5, 15.0);
        bench(&format!("bvh/build/{blocks}"), RUNS, || BlockBvh::new(black_box(&layout)));
        // Warm the cached index so the query benches measure queries only.
        let _ = layout.block_bvh();
        bench(&format!("bvh/query_bvh/{blocks}"), RUNS, || {
            visible_blocks(black_box(&pose), black_box(&layout))
        });
        bench(&format!("bvh/query_brute/{blocks}"), RUNS, || {
            visible_blocks_brute_force(black_box(&pose), black_box(&layout))
        });
    }
}

fn bench_table_build() {
    let layout = BrickLayout::with_target_blocks(Dims3::cube(128), 512);
    let importance =
        ImportanceTable::from_entropies((0..layout.num_blocks()).map(|i| i as f64).collect(), 64);
    for &samples in &[180usize, 720, 1620] {
        let cfg =
            SamplingConfig::paper_default(2.0, 3.2, deg_to_rad(15.0)).with_target_samples(samples);
        bench(&format!("t_visible_build/samples/{samples}"), SLOW_RUNS, || {
            VisibleTable::build(
                cfg,
                black_box(&layout),
                RadiusRule::Optimal(RadiusModel::new(0.25, deg_to_rad(15.0))),
                Some((&importance, 128)),
            )
        });
    }
}

fn bench_table_lookup() {
    let layout = BrickLayout::with_target_blocks(Dims3::cube(128), 512);
    let cfg = SamplingConfig::paper_default(2.0, 3.2, deg_to_rad(15.0)).with_target_samples(3240);
    let tv = VisibleTable::build(cfg, &layout, RadiusRule::Fixed(0.05), None);
    let poses: Vec<CameraPose> = (0..64)
        .map(|i| {
            CameraPose::orbit(i as f64 * 3.0, i as f64 * 7.0, 2.0 + (i % 10) as f64 * 0.1, 15.0)
        })
        .collect();
    bench("t_visible_lookup_64_poses", RUNS, || {
        let mut total = 0usize;
        for p in &poses {
            total += tv.predict(black_box(p)).len();
        }
        total
    });
}

fn bench_policies() {
    let trace: Vec<u32> = (0..10_000u32).map(|i| (i * 2654435761) % 2048).collect();
    for kind in [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Clock,
        PolicyKind::Lfu,
        PolicyKind::Arc,
        PolicyKind::TwoQ,
        PolicyKind::Mru,
    ] {
        bench(&format!("policy_ops/access_insert/{}", kind.label()), RUNS, || {
            let mut cache: CacheLevel<u32> = CacheLevel::new(kind, 512);
            let mut misses = 0u32;
            for &k in black_box(&trace) {
                if cache.access(k) == Lookup::Miss {
                    misses += 1;
                    cache.insert(k);
                }
            }
            misses
        });
    }
}

fn bench_hierarchy() {
    let trace: Vec<u32> = (0..10_000u32).map(|i| (i * 40503) % 4096).collect();
    bench("hierarchy_fetch_10k", RUNS, || {
        let mut h: Hierarchy<u32> = Hierarchy::paper_default(4096, 0.5, PolicyKind::Lru, 64 * 1024);
        for &k in &trace {
            h.fetch(black_box(k), AccessClass::Demand);
        }
        h.stats().miss_rate()
    });
}

fn bench_dataset_generation() {
    for kind in [DatasetKind::Ball3d, DatasetKind::LiftedRr, DatasetKind::Climate] {
        let spec = DatasetSpec::new(kind, 16, 1);
        bench(&format!("dataset_gen/materialize_scale16/{}", kind.name()), SLOW_RUNS, || {
            spec.materialize(0, 0.0)
        });
    }
}

fn bench_codec() {
    use viz_volume::Codec;
    let smooth: Vec<f32> = (0..32768).map(|i| (i as f32 / 32768.0).sin()).collect();
    let ambient = vec![0.0f32; 32768];
    for (name, data) in [("smooth", &smooth), ("ambient", &ambient)] {
        bench(&format!("codec/plane_rle_compress/{name}"), RUNS, || {
            Codec::PlaneRle.compress(black_box(data))
        });
        let encoded = Codec::PlaneRle.compress(data);
        bench(&format!("codec/plane_rle_decompress/{name}"), RUNS, || {
            Codec::PlaneRle.decompress(black_box(&encoded), data.len()).unwrap()
        });
    }
}

fn bench_checksum() {
    for (name, n) in [("4KiB", 4 << 10), ("32KiB", 32 << 10), ("6MiB", 6 << 20)] {
        let data: Vec<u8> =
            (0..n).map(|i: usize| (i.wrapping_mul(2654435761) >> 7) as u8).collect();
        bench(&format!("checksum/crc32/{name}"), RUNS, || viz_volume::crc32(black_box(&data)));
    }
}

/// Voxels in a 32 KB block (32 x 16 x 16 f32), the block size the served
/// benchmark paths move.
const BLOCK_VOXELS: usize = 8192;

fn block_payload(seed: usize) -> Vec<f32> {
    (0..BLOCK_VOXELS).map(|i| ((i * 31 + seed * 7) % 1000) as f32 * 1e-3).collect()
}

fn bench_proto() {
    use std::sync::Arc;
    use viz_serve::proto::{decode_response, encode_response, BlockReply, Response};
    use viz_volume::{BlockId, BlockKey};
    for blocks in [1usize, 64, 200] {
        let reply = Response::FetchReply {
            session: 1,
            blocks: (0..blocks)
                .map(|i| BlockReply {
                    key: BlockKey::scalar(BlockId(i as u32)),
                    result: Ok(Arc::new(block_payload(i))),
                })
                .collect(),
            shed: 0,
            downgraded: 0,
        };
        bench(&format!("proto/fetch_reply_encode/{blocks}x32KB"), RUNS, || {
            encode_response(black_box(&reply))
        });
        let frame = encode_response(&reply);
        bench(&format!("proto/fetch_reply_decode/{blocks}x32KB"), RUNS, || {
            decode_response(black_box(&frame)).expect("well-formed frame")
        });
    }
}

fn bench_store() {
    use viz_volume::store::{decode_block, encode_block};
    let frame = encode_block(Dims3::new(32, 16, 16), &block_payload(0));
    bench("store/decode_block/32KB", RUNS, || {
        decode_block(black_box(&frame)).expect("valid frame")
    });
}

fn bench_reuse_profile() {
    use viz_core::ReuseProfile;
    let trace: Vec<u32> = (0..20_000u32).map(|i| (i * 2654435761) % 512).collect();
    bench("reuse_profile_20k", RUNS, || ReuseProfile::compute(black_box(&trace)));
}

fn main() {
    bench_checksum();
    bench_proto();
    bench_store();
    bench_codec();
    bench_reuse_profile();
    bench_entropy();
    bench_visibility();
    bench_bvh();
    bench_table_build();
    bench_table_lookup();
    bench_policies();
    bench_hierarchy();
    bench_dataset_generation();
}
