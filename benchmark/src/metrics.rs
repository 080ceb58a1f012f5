//! The name and unit of every metric the benchmark prints, in the order of
//! `../BENCHMARK.json` (a test keeps the two equal; the direction in which a
//! metric is better is recorded there only).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// The share by which the medians of two sets of runs of one binary on
    /// one seed may differ: what `--selfcheck` holds the benchmark to.  The
    /// bound in `BENCHMARK.json` is wider: the driver takes its medians over
    /// ten seeds, so that one covers what the seed moves as well (README,
    /// "The driver's contract").
    pub same_seed: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        same_seed: 0.10,
    },
    EndToEnd {
        name: "pass_s",
        unit: "s",
        same_seed: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        same_seed: 0.10,
    },
    // Repeats exactly for a seed.
    EndToEnd {
        name: "f1",
        unit: "ratio",
        same_seed: 1e-9,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit }
}

/// Layer = module.  A workload measures the layers on its path.
pub const PER_LAYER: [Layer; 56] = [
    layer("dataset.csv_parse_mb_per_s", "MB/s"),
    layer("dataset.pool_values", "count"),
    layer("dataset.dedup_ms", "ms"),
    layer("rules.parse_us", "us"),
    layer("distance.lev_ns_per_pair", "ns"),
    layer("index.build_ms", "ms"),
    layer("index.groups", "count"),
    layer("index.gammas", "count"),
    layer("index.insert_rows_per_s", "rows/s"),
    layer("agp.process_ms", "ms"),
    layer("agp.abnormal_groups", "count"),
    layer("agp.merges", "count"),
    layer("cache.agp_lookups", "count"),
    layer("cache.agp_hit_rate", "ratio"),
    layer("cache.rsc_hit_rate", "ratio"),
    layer("weights.assign_ms", "ms"),
    layer("rsc.clean_ms", "ms"),
    layer("rsc.repairs", "count"),
    layer("fscr.resolve_ms", "ms"),
    layer("fscr.conflict_tuples", "count"),
    layer("fscr.changed_cells", "count"),
    layer("engine.assembly_ms", "ms"),
    layer("session.load_ingest_rows_per_s", "rows/s"),
    layer("session.load_first_outcome_ms", "ms"),
    layer("session.apply_update_us", "us"),
    layer("session.apply_insert_us", "us"),
    layer("session.apply_delete_us", "us"),
    layer("session.outcome_update_ms", "ms"),
    layer("session.outcome_insert_ms", "ms"),
    layer("session.outcome_delete_ms", "ms"),
    layer("session.op_p90_ms", "ms"),
    layer("session.recleaned_groups_update", "count"),
    layer("session.recleaned_groups_insert", "count"),
    layer("session.recleaned_groups_delete", "count"),
    layer("session.total_groups", "count"),
    layer("evaluation.precision", "ratio"),
    layer("evaluation.recall", "ratio"),
    layer("mlnw.encode_mb_per_s", "MB/s"),
    layer("mlnw.decode_mb_per_s", "MB/s"),
    layer("mlnw.bytes_per_row", "bytes"),
    layer("transport.apply_batch_ms", "ms"),
    layer("transport.checkpoint_ms", "ms"),
    layer("transport.checkpoint_bytes", "bytes"),
    layer("transport.messages_sent", "count"),
    layer("transport.bytes_sent", "bytes"),
    layer("transport.retransmits", "count"),
    layer("transport.dropped", "count"),
    layer("transport.duplicated", "count"),
    layer("distributed.route_rows_per_s", "rows/s"),
    layer("distributed.merge_rounds", "count"),
    layer("distributed.partition_skew", "ratio"),
    layer("distributed.merge_batch_ms", "ms"),
    layer("distributed.finish_ms", "ms"),
    layer("rayon.speedup_2t", "ratio"),
    layer("trace.overhead_pct", "%"),
    layer("machine.calib_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text_of =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);

        let end_to_end: Vec<(String, String)> = list("end_to_end")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let expected = END_TO_END.map(|m| (m.name.to_string(), m.unit.to_string()));
        assert_eq!(end_to_end, expected);
        for (listed, metric) in list("end_to_end").iter().zip(&END_TO_END) {
            let bound = listed.get("bound").and_then(Json::as_f64).unwrap();
            assert!(
                metric.same_seed <= bound && bound <= 0.25,
                "{}",
                metric.name
            );
        }

        let per_layer: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let expected = PER_LAYER.map(|m| (m.name.to_string(), m.unit.to_string()));
        assert_eq!(per_layer, expected);
    }
}
