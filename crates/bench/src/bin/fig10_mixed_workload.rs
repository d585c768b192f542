//! Figure 10: mixed workload on one 1000-file ACG group — 10 000 updates
//! with a search every 1 024 updates and a background commit every 500.
//! Propeller's per-request latency is measured on the real single-node
//! service. The paper's numbers (taken on a 50M-file dataset against a
//! MySQL baseline) are printed for reference only.

use std::time::Instant;

use propeller_bench::{scales, table};
use propeller_core::{FileRecord, Propeller, PropellerConfig};
use propeller_query::Query;
use propeller_types::{FileId, InodeAttrs, Timestamp};
use propeller_workloads::{MixedOp, MixedWorkload};

fn main() {
    table::banner("Figure 10: mixed workload (one 1000-file group), per-request latency");

    let mut service = Propeller::new(PropellerConfig::default());
    let group: Vec<FileId> = (0..scales::GROUP_FILES).map(FileId::new).collect();
    service.bind_group(&group).unwrap();
    service
        .index_batch(
            group
                .iter()
                .map(|f| FileRecord::new(*f, InodeAttrs::builder().size(f.raw()).build()))
                .collect(),
        )
        .unwrap();
    let query = Query::parse("size>100", Timestamp::EPOCH).unwrap();

    let mut pp_update_lat = Vec::new();
    let mut pp_search_lat = Vec::new();
    let mut version = 0u64;
    for op in MixedWorkload::paper_default(scales::GROUP_FILES) {
        match op {
            MixedOp::Update(file) => {
                version += 1;
                let rec =
                    FileRecord::new(file, InodeAttrs::builder().size(file.raw() + version).build());
                let start = Instant::now();
                service.index_file(rec).unwrap();
                pp_update_lat.push(start.elapsed().as_secs_f64() * 1e6);
            }
            MixedOp::Search => {
                let start = Instant::now();
                let _ = service.search(&query.predicate).unwrap();
                pp_search_lat.push(start.elapsed().as_secs_f64() * 1e6);
            }
            MixedOp::BackgroundCommit => {
                let _ = service.maintenance();
            }
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let p99 = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        s[(s.len() as f64 * 0.99) as usize]
    };
    table::header(&["series", "requests", "avg latency (us)", "p99 (us)"]);
    for (series, lat) in
        [("propeller updates", &pp_update_lat), ("propeller searches", &pp_search_lat)]
    {
        table::row(&[
            series.into(),
            format!("{}", lat.len()),
            format!("{:.1}", avg(lat)),
            format!("{:.1}", p99(lat)),
        ]);
    }
    println!(
        "\npaper reference (50M files): Propeller 15.6 us vs MySQL 3980.9 us \
         average re-indexing latency (250x); Propeller's commit-before-search \
         penalty stays small because the index scale is the group, not the \
         dataset"
    );
}
